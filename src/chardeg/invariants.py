"""Average character degree invariants and degree-counting functions.

Every average and count is taken over a subset of Irr(G) chosen by one of
two selectors: ``irr`` (a degree filter, optionally Irr(G/N) or Irr(G|N))
and ``irr_over`` (the characters lying over a character of a normal
subgroup); the Gallagher correspondence check multiplies Irr(G/N), as
``irr`` selects it, by a character extending one of N.  Averages are exact
rationals; the average of an empty set of degrees is 0 by convention,
uniformly across all filters.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .chars import (Character, CharacterTable, _gram, _on_classes,
                    character_table, inner_product, kernel_classes_contain,
                    restrict_character, tensor)
from .cyclotomic import _is_input_prime
from .errors import ChardegError
from .groups import Group, class_fusion


@dataclass(frozen=True)
class DegreeFilter:
    """Selects characters by degree: all, even, divisible by p, coprime to p."""

    kind: str  # "all" | "even" | "divisible" | "coprime"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("all", "even", "divisible", "coprime"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind in ("divisible", "coprime"):
            if self.p is None or not _is_input_prime(self.p):
                raise ValueError("filter needs a prime p")

    def accepts(self, degree: int) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "even":
            return degree % 2 == 0
        if self.kind == "divisible":
            return degree % self.p == 0
        return degree % self.p != 0


ALL = DegreeFilter("all")
EVEN = DegreeFilter("even")


@dataclass(frozen=True)
class RationalAverage:
    """An exact average together with how many degrees went into it."""

    value: Fraction
    count: int

    @staticmethod
    def of(degrees) -> "RationalAverage":
        degrees = list(degrees)
        if not degrees:
            return RationalAverage(Fraction(0), 0)
        return RationalAverage(Fraction(sum(degrees), len(degrees)), len(degrees))

    def __str__(self):
        return format_rational(self.value)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def degrees(table: CharacterTable) -> Counter:
    """Multiset of irreducible character degrees; n_d is its multiplicity."""
    return Counter(table.degrees())


def irr(table: CharacterTable, filt: DegreeFilter = ALL,
        modulo: Group | None = None,
        mode: str | None = None) -> list[Character]:
    """The characters of Irr(G) whose degree passes the filter, in table order.

    With a normal subgroup N as ``modulo``, mode "quotient" keeps Irr(G/N),
    the characters with N inside the kernel, and mode "relative" keeps
    Irr(G|N), the rest.
    """
    if modulo is None:
        return [c for c in table.chars if filt.accepts(c.degree)]
    if mode not in ("quotient", "relative"):
        raise ValueError("mode must be 'quotient' or 'relative' with a subgroup")
    want_in_kernel = mode == "quotient"
    return [c for c in table.chars if filt.accepts(c.degree)
            and kernel_classes_contain(table, c, modulo) == want_in_kernel]


def irr_over(table: CharacterTable, n: Group, n_table: CharacterTable,
             theta) -> list[Character]:
    """Irr(G|theta): the characters whose restriction to n has theta as a
    constituent, in table order.

    The rows are restricted by one column gather through the class fusion.
    One Gram call gives all the multiplicities <chi_N, theta> together with
    <theta, theta>, which must be 1.
    """
    restrictions = _on_classes(table.chars, class_fusion(table.group, n))
    *mults, norm = _gram(n_table, restrictions + [theta], [theta])
    if norm != [1]:
        raise ChardegError("theta is not an irreducible character of n")
    return [c for c, (m,) in zip(table.chars, mults) if m > 0]


def n_d(table: CharacterTable, d: int, modulo: Group | None = None,
        mode: str | None = None) -> int:
    """Number of degree-d characters, optionally split by a normal subgroup.

    mode "quotient" counts characters with N inside the kernel (n_d(G/N));
    mode "relative" counts the rest (n_d(G|N)); the two add up to n_d(G).
    """
    return sum(1 for c in irr(table, modulo=modulo, mode=mode)
               if c.degree == d)


def acd(table: CharacterTable, filt: DegreeFilter = ALL) -> RationalAverage:
    """Average degree over the characters passing the filter."""
    return RationalAverage.of(c.degree for c in irr(table, filt))


def acd_rel(table: CharacterTable, n: Group) -> RationalAverage:
    """Average degree over Irr(G|N) = {chi : N not in Ker(chi)}.

    A trivial N makes the set empty; that returns 0 with a warning, matching
    the empty-average convention.
    """
    if n.order == 1:
        warnings.warn("acd_rel with trivial subgroup: Irr(G|1) is empty, "
                      "average is 0", stacklevel=2)
    return RationalAverage.of(
        c.degree for c in irr(table, modulo=n, mode="relative"))


def acd_over(table: CharacterTable, n: Group, n_table: CharacterTable,
             theta: Character) -> RationalAverage:
    """Average degree over Irr(G|theta), the characters lying over theta."""
    return RationalAverage.of(
        c.degree for c in irr_over(table, n, n_table, theta))


def theorem_A_inequality_equiv(table: CharacterTable) -> bool:
    """Check the algebraic equivalence behind the 16/5 threshold.

    acd(G) < 16/5 holds iff sum over d >= 4 of (5d-16) n_d is smaller than
    11 n_1 + 6 n_2 + n_3.  This must hold for every group; returning False
    would signal a table bug.
    """
    counts = degrees(table)
    lhs_small = acd(table).value < Fraction(16, 5)
    weighted = sum((5 * d - 16) * k for d, k in counts.items() if d >= 4)
    bound = 11 * counts.get(1, 0) + 6 * counts.get(2, 0) + counts.get(3, 0)
    return lhs_small == (weighted < bound)


@dataclass
class GallagherResult:
    passed: bool
    details: list[str]
    products: list[Character]  # beta * psi per beta in Irr(G/N)


def gallagher_check(group: Group, n: Group, psi: Character) -> GallagherResult:
    """Verify the multiplication map beta -> beta*psi on Irr(G/N).

    Requires psi to restrict irreducibly to n; then every product with a
    character trivial on n must be irreducible and all products distinct.
    """
    g_table = character_table(group)
    restricted = restrict_character(group, psi, n)
    norm = inner_product(character_table(n), restricted, restricted)
    if norm != 1:
        return GallagherResult(False, [
            f"precondition failed: restriction has norm {norm}, not 1"], [])
    betas = irr(g_table, modulo=n, mode="quotient")
    # one Gram matrix: norms on the diagonal; two products of norm 1 coincide
    # exactly when their inner product is 1
    products = [tensor(beta, psi) for beta in betas]
    gram = _gram(g_table, products, products)
    details = [f"product with degree-{beta.degree} character is reducible "
               f"(norm {gram[i][i]})"
               for i, beta in enumerate(betas) if gram[i][i] != 1]
    irreducible = [i for i in range(len(betas)) if gram[i][i] == 1]
    coincide = [(a, b) for a, i in enumerate(irreducible)
                for b, j in enumerate(irreducible) if a < b and gram[i][j] == 1]
    details += [f"products {a} and {b} coincide" for a, b in coincide]
    passed = not coincide and len(irreducible) == len(betas)
    if passed:
        details.append(
            f"{len(betas)} products, all irreducible and distinct")
    return GallagherResult(passed, details, products)
