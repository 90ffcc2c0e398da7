"""Exact character tables and character arithmetic.

The table rows come from the modular engine in ``dixon``; this module owns
the exact layer: canonical ordering, validation, inner products,
restriction, tensor products, kernels, extension tests and the Gallagher
correspondence check.

Inner products and table validation share one exact routine, ``_gram``,
which computes a whole matrix of inner products in Q(zeta_e), e the group
exponent.  A table is certified by one Gram check, rows against rows equal
to the identity; since the table is square this implies the column
relations too (see ``CharacterTable``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import dixon
from .cyclotomic import CycValue, reduce_to_power_basis
from .errors import TableError
from .groups import (ClassData, Group, Subgroup, class_fusion,
                     conjugacy_classes)
from .perms import Permutation


class Character:
    """One irreducible character: degree plus a CycValue per class."""

    __slots__ = ("degree", "values", "kernel_classes")

    def __init__(self, degree: int, values):
        self.degree = degree
        self.values = tuple(values)
        # the kernel is where chi(g) - chi(1) vanishes in Q(zeta_m), m the lcm
        # of the root orders: all classes in one batched reduction
        m = lcm(*(v.n for v in self.values))
        ints = all(isinstance(c, int) and abs(c) < 2**62
                   for v in self.values for c in v.coeffs)
        diffs = _stack([self.values], range(len(self.values)), m,
                       np.int64 if ints else object)[0]
        diffs[:, 0] -= degree
        nonzero = reduce_to_power_basis(diffs, m).astype(bool).any(axis=1)
        self.kernel_classes = frozenset(np.flatnonzero(~nonzero).tolist())

    def __repr__(self):
        return f"<Character degree={self.degree}>"


class CharacterTable:
    """The exact table of a group, rows in canonical order.

    Canonical row order: degree ascending, then lexicographic on the values
    embedded over the group exponent.  Construction validates #rows = #classes,
    the degree sum of squares, degree divisibility, and exact row
    orthogonality; failures raise TableError.

    Row orthogonality is one Gram check: with X the r x r value matrix and
    D = diag(class sizes), X D X* = |G| I over Q(zeta_e), conjugation being
    the field automorphism zeta -> zeta^-1.  X is square, so D X* / |G| is
    a two-sided inverse of X, and X* X = |G| D^-1: the column relations, with
    the centralizer orders on the diagonal.  Checking the rows therefore
    certifies the columns as well.
    """

    def __init__(self, group: Group, classes: ClassData, chars,
                 exponent: int, prime: int, root: int):
        self.group = group
        self.classes = classes
        self.exponent = exponent
        self.dixon_prime = prime
        self.primitive_root = root
        self.chars = tuple(sorted(chars, key=lambda c: (
            c.degree, tuple(v.embed(exponent).coeffs for v in c.values))))
        self._validate()

    def _validate(self) -> None:
        g = self.group
        if len(self.chars) != self.classes.num_classes:
            raise TableError("character count differs from class count")
        if sum(c.degree ** 2 for c in self.chars) != g.order:
            raise TableError("degree squares do not sum to the group order")
        for c in self.chars:
            if g.order % c.degree:
                raise TableError(f"degree {c.degree} does not divide |G|")
        for i, row in enumerate(_gram(self, self.chars, self.chars)):
            for j, value in enumerate(row):
                if value != int(i == j):
                    raise TableError(f"row orthogonality fails at ({i},{j})")

    def degrees(self) -> list[int]:
        return [c.degree for c in self.chars]

    def principal(self) -> Character:
        """The all-ones row (not necessarily row 0 in canonical order)."""
        one = Fraction(1)
        for c in self.chars:
            if c.degree == 1 and all(v.rational() == one for v in c.values):
                return c
        raise TableError("no principal character found (table corrupt)")

    def to_data(self) -> "TableData":
        cd = self.classes
        return TableData(
            name=self.group.name or "",
            order=self.group.order,
            exponent=self.exponent,
            dixon_prime=self.dixon_prime,
            primitive_root=self.primitive_root,
            classes=[(cd.orders[i], cd.sizes[i]) for i in range(cd.num_classes)],
            characters=[(c.degree, [(v.n, list(v.coeffs)) for v in c.values])
                        for c in self.chars],
        )

    def __repr__(self):
        return (f"<CharacterTable {self.group!r} "
                f"degrees={self.degrees()}>")


@dataclass
class TableData:
    """Serializable snapshot of a table (the export format)."""

    name: str
    order: int
    exponent: int
    dixon_prime: int
    primitive_root: int
    classes: list  # (element order, class size) per class
    characters: list  # (degree, [(n, mult list), ...]) per character

    def to_json(self) -> str:
        payload = {
            "format": 1,
            "name": self.name,
            "order": self.order,
            "exponent": self.exponent,
            "dixon_prime": self.dixon_prime,
            "primitive_root": self.primitive_root,
            "classes": [{"order": o, "size": s} for o, s in self.classes],
            "characters": [
                {"degree": d, "values": [[n, mult] for n, mult in values]}
                for d, values in self.characters
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "TableData":
        payload = json.loads(text)
        if payload.get("format") != 1:
            raise TableError("unknown table format")
        return TableData(
            name=payload["name"],
            order=payload["order"],
            exponent=payload["exponent"],
            dixon_prime=payload["dixon_prime"],
            primitive_root=payload["primitive_root"],
            classes=[(c["order"], c["size"]) for c in payload["classes"]],
            characters=[(c["degree"], [(n, list(mult)) for n, mult in c["values"]])
                        for c in payload["characters"]],
        )


def character_table(group: Group) -> CharacterTable:
    """Exact character table via the modular engine (cached per group)."""
    key = "character_table"
    if key not in group._cache:
        cd = conjugacy_classes(group)
        exponent = lcm(*cd.orders)
        p = dixon.dixon_prime(group.order, exponent)
        z = dixon.primitive_root(p)
        omegas = dixon.central_character_vectors(cd, p)
        chars = [Character(d, values)
                 for d, values in dixon.lift_character(omegas, cd, p, z)]
        group._cache[key] = CharacterTable(group, cd, chars, exponent, p, z)
    return group._cache[key]


# -- class function arithmetic ---------------------------------------------

# Most array elements one circulant gather in _gram may hold; a bucket with
# many classes and a long root order is gathered in chunks to stay below it.
_GATHER_ELEMENTS = 1 << 21


def _values_of(f) -> tuple:
    return f.values if isinstance(f, Character) else tuple(f)


def _gram(table: CharacterTable, fs, gs) -> list[list[Fraction]]:
    """Exact inner products: entry (i, j) is (1/|G|) * sum over classes k of
    size_k * fs[i](g_k) * conj(gs[j](g_k)).

    Classes are bucketed by the lcm n of their values' root orders (the
    element order, for table rows).  Per bucket, the products are formed in
    Z[x]/(x^n - 1) by one integer einsum over a circulant gather, then
    embedded into Z[x]/(x^e - 1), e the exponent; all entries are reduced
    to the power basis of Q(zeta_e) in one batched call.  Raises TableError
    when a value lies outside Q(zeta_e) or an entry is not rational.
    """
    fs = [_values_of(f) for f in fs]
    gs = [_values_of(g) for g in gs]
    cd, e = table.classes, table.exponent
    buckets: dict[int, list[int]] = {}
    bound = 0  # bounds every |coefficient| of the sums below
    for k in range(cd.num_classes):
        n = lcm(*(f[k].n for f in fs), *(g[k].n for g in gs))
        if e % n:
            raise TableError(f"a class function value needs the {n}-th roots "
                             f"of unity, not in Q(zeta_{e})")
        buckets.setdefault(n, []).append(k)
        bound += (cd.sizes[k] * max(sum(map(abs, f[k].coeffs)) for f in fs)
                  * max(sum(map(abs, g[k].coeffs)) for g in gs))
    # int64 when provably overflow-free; Python objects (big ints, Fractions)
    # otherwise
    dtype = np.int64 if isinstance(bound, int) and bound < 2**63 else object
    total = np.zeros((len(fs), len(gs), e), dtype=dtype)
    for n, ks in buckets.items():
        shift = (np.arange(n) - np.arange(n)[:, None]) % n  # [t, i] = i - t
        step = max(1, _GATHER_ELEMENTS // (len(gs) * n * n))
        for lo in range(0, len(ks), step):
            chunk = ks[lo:lo + step]
            a = _stack(fs, chunk, n, dtype) * np.array(
                [cd.sizes[k] for k in chunk], dtype=dtype)[:, None]
            b = _stack(gs, chunk, n, dtype)[:, :, shift]
            total[:, :, ::e // n] += np.einsum("fki,gkti->fgt", a, b)
    coords = reduce_to_power_basis(total, e)
    if coords[:, :, 1:].any():
        raise TableError("inner product of class functions is not rational")
    return [[Fraction(c, table.group.order) for c in row]
            for row in coords[:, :, 0].tolist()]


def _stack(funcs, ks, n: int, dtype) -> np.ndarray:
    """(len(funcs), len(ks), n) coefficients over the n-th roots of unity."""
    out = np.zeros((len(funcs), len(ks), n), dtype=dtype)
    for i, f in enumerate(funcs):
        for j, k in enumerate(ks):
            out[i, j, ::n // f[k].n] = f[k].coeffs
    return out


def inner_product(table: CharacterTable, a, b) -> Fraction:
    """(1/|G|) sum over classes of size * a(g) * conj(b(g)), exact."""
    return _gram(table, [a], [b])[0][0]


def tensor(a, b) -> list[CycValue]:
    """Pointwise product of two class functions on the same table."""
    va, vb = _values_of(a), _values_of(b)
    return [x * y for x, y in zip(va, vb)]


def restrict_character(group: Group, chi, h: Group) -> list[CycValue]:
    """Values of chi on the classes of the subgroup h (via class fusion)."""
    fusion = class_fusion(group, h)
    values = _values_of(chi)
    return [values[ci] for ci in fusion]


def kernel_classes_contain(table: CharacterTable, chi: Character,
                           n: Group) -> bool:
    """True iff the subgroup n lies inside Ker(chi)."""
    cd = table.classes
    return all(cd.class_of(g) in chi.kernel_classes for g in n.generators)


def kernel_subgroup(group: Group, chi: Character) -> Subgroup:
    """Ker(chi) as a subgroup: the union of the kernel classes."""
    cd = conjugacy_classes(group)
    target = sum(cd.sizes[j] for j in chi.kernel_classes)
    gens: list[Permutation] = []
    current = Subgroup(group, gens)
    if current.order == target:
        return current
    for j in sorted(chi.kernel_classes):
        for member in cd.members[j]:
            if member not in current:
                gens.append(member)
                current = Subgroup(group, gens)
                if current.order == target:
                    return current
    raise TableError("kernel classes do not close into a subgroup")


def extensions_of(group: Group, n: Group, theta: Character,
                  warn=None) -> list[Character]:
    """All chi in Irr(G) with chi(1) = theta(1) restricting to theta exactly."""
    if isinstance(n, Subgroup) and not n.is_normal():
        if warn is not None:
            warn("extension test on a non-normal subgroup")
    table = character_table(group)
    out = []
    for chi in table.chars:
        if chi.degree != theta.degree:
            continue
        restricted = restrict_character(group, chi, n)
        if all(x.value_eq(y) for x, y in zip(restricted, theta.values)):
            out.append(chi)
    return out


@dataclass
class GallagherResult:
    passed: bool
    details: list[str]


def gallagher_check(group: Group, n: Group, psi: Character) -> GallagherResult:
    """Verify the multiplication map beta -> beta*psi on Irr(G/N).

    Requires psi to restrict irreducibly to n; then every product with a
    character trivial on n must be irreducible and all products distinct.
    """
    details = []
    g_table = character_table(group)
    n_table = character_table(n)
    restricted = restrict_character(group, psi, n)
    norm = inner_product(n_table, restricted, restricted)
    if norm != 1:
        return GallagherResult(False, [
            f"precondition failed: restriction has norm {norm}, not 1"])
    betas = [chi for chi in g_table.chars
             if kernel_classes_contain(g_table, chi, n)]
    # one Gram matrix: norms on the diagonal; two products of norm 1 coincide
    # exactly when their inner product is 1
    products = [tensor(beta, psi) for beta in betas]
    gram = _gram(g_table, products, products)
    irreducible = []
    for i, beta in enumerate(betas):
        if gram[i][i] != 1:
            details.append(
                f"product with degree-{beta.degree} character is reducible "
                f"(norm {gram[i][i]})")
        else:
            irreducible.append(i)
    distinct = True
    for a, i in enumerate(irreducible):
        for b, j in enumerate(irreducible[a + 1:], a + 1):
            if gram[i][j] == 1:
                distinct = False
                details.append(f"products {a} and {b} coincide")
    passed = distinct and len(irreducible) == len(betas)
    if passed:
        details.append(
            f"{len(betas)} products, all irreducible and distinct")
    return GallagherResult(passed, details)
