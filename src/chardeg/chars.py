"""Exact character tables and character arithmetic.

The table rows come from the modular engine in ``dixon``; this module owns
the exact layer: canonical ordering, validation, inner products,
restriction, tensor products, kernels and extension tests, on stacks:
class functions as one coefficient array.
A character is its row of eigenvalue multiplicities: a table's are rows of
the lift's array, and restrictions and products are rows too.  Kernels and
equality are read off the rows; CycValues are built only when something
reads ``values``.

Inner products and table validation share one exact routine,
``_inner_products``, a whole matrix of inner products of two stacks in
Q(zeta_e), e the group exponent.  A table is certified by one Gram check,
rows against rows equal to the identity; since the table is square this
implies the column relations too (see ``CharacterTable``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from . import dixon
from .cyclotomic import CycValue, product_dtype, reduce_to_power_basis
from .errors import TableError
from .groups import (ClassData, Group, Subgroup, class_fusion, class_union,
                     conjugacy_classes)


class Character:
    """A character given by its stack row: class k is a block of orders[k]
    multiplicities, entry a counting the eigenvalue zeta_{orders[k]}^a of a
    representation at the class's elements.  The multiplicities are
    nonnegative and each block sums to the degree; chi on <g> fixes those of
    rho(g), so equal characters have equal rows.  The kernel classes and
    ``values`` (a CycValue per class) are read off the row on first use."""

    def __init__(self, degree: int, orders, row: np.ndarray):
        self.degree, self.orders, self.row = degree, orders, row

    @cached_property
    def kernel_classes(self) -> frozenset:
        # chi(g) = chi(1) iff every eigenvalue of rho(g) is 1
        starts = np.cumsum(self.orders) - self.orders
        return frozenset(np.flatnonzero(self.row[starts] == self.degree)
                         .tolist())

    def _coefficients(self) -> list:
        """(n, coefficient list) per class, sliced off the row."""
        row, at = self.row.tolist(), np.cumsum([0, *self.orders]).tolist()
        return [(n, row[a:a + n]) for n, a in zip(self.orders, at)]

    @cached_property
    def values(self) -> tuple:
        return tuple(CycValue(*c) for c in self._coefficients())

    def __repr__(self):
        return f"<Character degree={self.degree}>"


class CharacterTable:
    """The exact table of a group, rows in canonical order.

    Canonical row order: degree ascending, then lexicographic on the stack
    rows (the values embedded over the exponent compare alike: embedding
    puts zeros at the same places in every row).  Construction validates
    #rows = #classes, the degree sum of squares, degree divisibility, and
    exact row orthogonality; failures raise TableError.

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
        chars = list(chars)
        if len(chars) != classes.num_classes:
            raise TableError("character count differs from class count")
        orders, rows = _stack(chars)
        rank = [i for *_, i in sorted(zip(
            [c.degree for c in chars], rows.tolist(), range(len(chars))))]
        self.chars = tuple(chars[i] for i in rank)
        self._validate(orders, rows, rank)

    def _validate(self, orders, rows: np.ndarray, rank: list[int]) -> None:
        g = self.group
        if sum(c.degree ** 2 for c in self.chars) != g.order:
            raise TableError("degree squares do not sum to the group order")
        for c in self.chars:
            if g.order % c.degree:
                raise TableError(f"degree {c.degree} does not divide |G|")
        gram = _inner_products(self, orders, rows, rows)[np.ix_(rank, rank)]
        identity = g.order * np.eye(len(gram), dtype=int)
        for i, j in np.argwhere(gram != identity)[:1].tolist():
            raise TableError(f"row orthogonality fails at ({i},{j})")

    def degrees(self) -> list[int]:
        return [c.degree for c in self.chars]

    def principal(self) -> Character:
        """The all-ones row (not necessarily row 0 in canonical order)."""
        for c in self.chars:
            if (c.degree == 1
                    and len(c.kernel_classes) == self.classes.num_classes):
                return c
        raise TableError("no principal character found (table corrupt)")

    def to_data(self) -> "TableData":
        return TableData(
            name=self.group.name or "",
            order=self.group.order,
            exponent=self.exponent,
            dixon_prime=self.dixon_prime,
            primitive_root=self.primitive_root,
            classes=list(zip(self.classes.orders, self.classes.sizes)),
            characters=[(c.degree, c._coefficients()) for c in self.chars],
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
        payload = dict(vars(self), format=1, classes=[
            {"order": o, "size": s} for o, s in self.classes], characters=[
            {"degree": d, "values": [[n, mult] for n, mult in values]}
            for d, values in self.characters])
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
        omegas = dixon.central_character_vectors(cd, p, z)
        degrees, mult = dixon.lift_character(omegas, cd, p, z)
        chars = [Character(d, cd.orders, row) for d, row in zip(degrees, mult)]
        group._cache[key] = CharacterTable(group, cd, chars, exponent, p, z)
    return group._cache[key]


# -- class function arithmetic ---------------------------------------------

def _stack(funcs) -> tuple[list[int], np.ndarray]:
    """(orders, coefficients) of class functions (characters or CycValue
    lists), class k over the least common orders[k]-th roots of unity: each
    row as it is where it lies on these orders, else embedded, zeta_n^i in
    class k moving to zeta^(i orders[k]/n)."""
    pairs = [(f.orders, f.row) if isinstance(f, Character) else _row(f)
             for f in funcs]
    # rows of one table, or restricted to one subgroup, need no lcm
    orders = pairs[0][0]
    if any(o != orders for o, _ in pairs):
        orders = np.lcm.reduce([o for o, _ in pairs]).tolist()
    at, rows = np.cumsum([0, *orders]), []
    for own, row in pairs:
        if own != orders:
            embedded = np.zeros(at[-1], dtype=row.dtype)
            embedded[np.concatenate([at[k] + np.arange(0, m, m // n) for k, (
                n, m) in enumerate(zip(own, orders))])] = row
            row = embedded
        rows.append(row)
    return orders, np.array(rows, dtype=np.result_type(*rows))


def _row(values) -> tuple[list[int], np.ndarray]:
    """(orders, coefficients) of a CycValue list, each value over its own
    roots of unity, the one conversion from values to rows: int64 if every
    coefficient is an int of size < 2^62, else Python objects."""
    flat = [c for v in values for c in v.coeffs]
    row = np.array(flat)
    if row.dtype != np.int64 or not (-2**62 < row.min() and row.max() < 2**62):
        row = np.array(flat, dtype=object)
    return [v.n for v in values], row


def _buckets(orders):
    """(n, classes, their columns) for each root order n of a stack."""
    starts = np.cumsum(orders) - orders
    for n in sorted(set(orders)):
        ks = np.flatnonzero(np.equal(orders, n))
        yield n, ks, starts[ks][:, None] + np.arange(n)


def _inner_products(table: CharacterTable, orders, f: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """|G| <f_i, g_j> for the rows of two stacks over the same orders, exact.

    Per root order n, coefficient t of sum_k size_k f_k conj(g_k) in
    Z[x]/(x^n-1) is one matmul of f's columns against the shifted slice
    g_k[i - t] of g's columns written twice, and lands at t e/n in
    Z[x]/(x^e-1); for g the same array as f, coefficient n - t is
    coefficient t transposed, which halves the matmuls.  Then one fold of
    the total into a basis of Q(zeta_e) with 1 first, a block subtraction
    per prime-power factor of e.  The products and the total run in the
    dtype product_dtype picks for sum_k size_k |f_k|_1 |g_k|_1 (row
    maxima), which bounds every entry's terms: float64 (BLAS), int64, or
    Python objects, the last also for stacks that are not int64.  Raises
    TableError when a value lies outside Q(zeta_e) or an entry is not
    rational.
    """
    cd, e = table.classes, table.exponent
    dtype = object
    if f.dtype == g.dtype == np.int64:
        dtype = product_dtype(np.prod([np.add.reduceat(
            np.abs(x, dtype=np.float64), np.cumsum(orders) - orders,
            axis=1).max(axis=0) for x in (f, g)], axis=0) @ cd.sizes)
    sizes = np.array(cd.sizes, dtype=dtype)
    total = np.zeros((len(f), len(g), e), dtype=dtype)
    for n, ks, cols in _buckets(orders):
        if e % n:
            raise TableError(f"a class function value needs the {n}-th roots "
                             f"of unity, not in Q(zeta_{e})")
        a = f[:, cols.T].astype(dtype, copy=False)  # a[j, i, k] = f_j[k][i]
        a *= sizes[ks]
        a = a.reshape(len(f), -1)
        b = g.T[np.vstack([cols.T, cols.T])].astype(dtype, copy=False)
        for t in range(n // 2 + 1 if f is g else n):
            # b[n - t + i, k, j] = g_j[k][i - t]
            c = a @ b[n - t:2 * n - t].reshape(-1, len(g))
            total[:, :, t * e // n] += c
            if f is g and 0 < t < n - t:
                total[:, :, (n - t) * e // n] += c.T
    if dtype is np.float64:
        total = total.astype(np.int64)
    coords = reduce_to_power_basis(total, e)
    if coords[:, :, 1:].any():
        raise TableError("inner product of class functions is not rational")
    return coords[:, :, 0]


def _gram(table: CharacterTable, fs, gs) -> list[list[Fraction]]:
    """Exact inner products <fs[i], gs[j]>, from one stack of both lists."""
    fs = list(fs)
    orders, coeffs = _stack(fs + list(gs))
    gram = _inner_products(table, orders, coeffs[:len(fs)], coeffs[len(fs):])
    return [[Fraction(c, table.group.order) for c in row]
            for row in gram.tolist()]


def inner_product(table: CharacterTable, a, b) -> Fraction:
    """(1/|G|) sum over classes of size * a(g) * conj(b(g)), exact."""
    return _gram(table, [a], [b])[0][0]


def equal(fs, gs) -> np.ndarray:
    """Bool matrix, [i, j] true iff the characters fs[i] and gs[j] are
    equal, which is iff their rows are, on the orders of one stack."""
    fs = list(fs)
    _, rows = _stack(fs + list(gs))
    return (rows[:len(fs), None] == rows[None, len(fs):]).all(axis=2)


def tensor(a: Character, b: Character) -> Character:
    """The pointwise product of two characters: per root order n,
    coefficient t of a_k b_k in Z[x]/(x^n-1) is sum_i a_k[i] b_k[t-i], one
    sum over shifted slices per t, in the dtype product_dtype picks for
    n max|a| max|b|, the row in int64 when that is float64 or int64."""
    orders, xy = _stack([a, b])
    dtype = object
    if xy.dtype == np.int64:
        dtype = product_dtype(max(orders) * np.prod(
            np.abs(xy, dtype=np.float64).max(1)))
    x, y = xy.astype(dtype, copy=False)
    row = np.empty(len(x), dtype=object if dtype is object else np.int64)
    for n, _, cols in _buckets(orders):
        for t in range(n):
            row[cols[:, t]] = (x[cols] * y[cols[:, t - np.arange(n)]]).sum(1)
    return Character(a.degree * b.degree, orders, row)


def _on_classes(funcs, classes) -> list[Character]:
    """Characters read on a list of classes: one column gather of their
    stack, each listed class's block as it is.  Restricted through a class
    fusion, a class of the subgroup has the element order of the class it
    fuses into."""
    if not funcs:
        return []
    orders, rows = _stack(funcs)
    at = np.cumsum([0, *orders])
    cols = np.concatenate([np.arange(at[k], at[k + 1]) for k in classes])
    orders = [orders[k] for k in classes]
    return [Character(f.degree, orders, row)
            for f, row in zip(funcs, rows[:, cols])]


def restrict_character(group: Group, chi: Character, h: Group) -> Character:
    """chi on the classes of the subgroup h (via class fusion)."""
    return _on_classes([chi], class_fusion(group, h))[0]


def kernel_classes_contain(table: CharacterTable, chi: Character,
                           n: Group) -> bool:
    """True iff the subgroup n lies inside Ker(chi)."""
    cd = table.classes
    return all(cd.class_of(g) in chi.kernel_classes for g in n.generators)


def kernel_subgroup(group: Group, chi: Character) -> Subgroup:
    """Ker(chi) as a subgroup: the union of the kernel classes."""
    kernel = class_union(group, chi.kernel_classes)
    if kernel is None:
        raise TableError("kernel classes do not close into a subgroup")
    return kernel


def extensions_of(group: Group, n: Group, theta: Character,
                  warn=None) -> list[Character]:
    """All chi in Irr(G) with chi(1) = theta(1) restricting to theta exactly."""
    if warn is not None and isinstance(n, Subgroup) and not n.is_normal():
        warn("extension test on a non-normal subgroup")
    same = [chi for chi in character_table(group).chars
            if chi.degree == theta.degree]
    restricted = _on_classes(same, class_fusion(group, n))
    hits = equal(restricted, [theta])
    return [chi for chi, hit in zip(same, hits[:, 0]) if hit]
