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
``_inner_products``: a whole matrix of them as traces over Q, for two
Galois-stable stacks on a table's classes (``_table_stack``).  A table is
certified by one Gram check, rows against rows equal to the identity;
since the table is square this implies the column relations too (see
``CharacterTable``).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from . import dixon
from .cyclotomic import CycValue, mobius, product_dtype, totient
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
    puts zeros at the same places in every row), read on the head columns
    of ``ClassData.galois_columns``: on Galois-stable rows column c equals
    its head h(c) <= c, so two rows first differ at a head.  Construction
    validates #rows = #classes, the degree sum of squares, degree
    divisibility, and exact row orthogonality; failures raise TableError.

    Row orthogonality is one Gram check: with X the r x r value matrix and
    D = diag(class sizes), X D X* = |G| I over Q(zeta_e), conjugation being
    the field automorphism zeta -> zeta^-1, compared as phi(e) times it,
    its trace.  X is square, so D X* / |G| is a two-sided inverse of X, and
    X* X = |G| D^-1: the column relations, with the centralizer orders on
    the diagonal.  Checking the rows therefore certifies the columns too.
    ``rows``, when given, is the lift's stack of the chars' rows, read as it
    is: a gather through ``ClassData.galois_columns``, it is Galois-stable.
    """

    def __init__(self, group: Group, classes: ClassData, chars,
                 exponent: int, prime: int, root: int, rows=None):
        self.group = group
        self.classes = classes
        self.exponent = exponent
        self.dixon_prime = prime
        self.primitive_root = root
        chars = list(chars)
        if len(chars) != classes.num_classes:
            raise TableError("character count differs from class count")
        rows = _table_stack(self, chars) if rows is None else rows
        heads = classes.galois_columns
        rank = _canonical_order(np.array([c.degree for c in chars]), rows,
                                np.flatnonzero(heads == np.arange(len(heads))))
        self.chars = tuple(chars[i] for i in rank)
        if sum(c.degree ** 2 for c in self.chars) != group.order:
            raise TableError("degree squares do not sum to the group order")
        for c in self.chars:
            if group.order % c.degree:
                raise TableError(f"degree {c.degree} does not divide |G|")
        gram = _inner_products(self, rows, rows)[np.ix_(rank, rank)]
        trace = totient(exponent) * group.order * np.eye(len(gram), dtype=int)
        for i, j in np.argwhere(gram != trace)[:1].tolist():
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
        return TableData(**{key: payload[key] for key in (
            "name", "order", "exponent", "dixon_prime", "primitive_root")},
            classes=[(c["order"], c["size"]) for c in payload["classes"]],
            characters=[(c["degree"], [(n, list(mult)) for n, mult in c["values"]])
                        for c in payload["characters"]])


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
        group._cache[key] = CharacterTable(group, cd, chars, exponent, p, z,
                                           mult)
    return group._cache[key]


def _canonical_order(degrees: np.ndarray, rows: np.ndarray,
                     columns) -> np.ndarray:
    """Row indices by degree, then lexicographically by the rows' listed
    columns, ties by index: one stable lexsort of views, copying no rows."""
    return np.lexsort([*(rows[:, c] for c in columns[::-1]), degrees])


# -- class function arithmetic ---------------------------------------------

def _stack(funcs) -> tuple[list[int], np.ndarray]:
    """(orders, rows) of characters on one list of orders, else TableError."""
    orders, rows = list(funcs[0].orders), [f.row for f in funcs]
    if any(list(f.orders) != orders for f in funcs):
        raise TableError("class functions on different classes")
    return orders, np.array(rows, dtype=np.result_type(*rows))


def _buckets(orders, classes):
    """(n, classes, their columns) per root order n, of listed classes."""
    starts, classes = np.cumsum(orders) - orders, np.asarray(classes)
    for n in sorted(set(orders)):
        ks = classes[np.equal(orders, n)[classes]]
        yield n, ks, starts[ks][:, None] + np.arange(n)


def _table_stack(table, funcs) -> np.ndarray:
    """The stack of class functions on the table's classes, checked to be
    Galois-stable, as characters and their Z- and Q-combinations are, by
    one gather through ``galois_columns``; anything else raises TableError."""
    orders, rows = _stack(funcs)
    if orders != table.classes.orders:
        raise TableError("class functions must lie on the table's classes")
    if not (np.take(rows, table.classes.galois_columns, axis=1) == rows).all():
        raise TableError("class functions are not Galois-stable")
    return rows


def _inner_products(table: CharacterTable, f: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """phi(e) |G| <f_i, g_j>, exact, for rows of Galois-stable stacks.
    sigma_t maps the value at class k to that at pi_t(k), a class of
    the same size, so it fixes <f_i, g_j>: that is rational and equals its
    trace over Q divided by phi(e).  As Tr(zeta_n^c) = mu(d) phi(e) / phi(d),
    d = n / gcd(n, c), class k adds size_k f_k W_n g_k^T to the trace, with
    W_n[a, b] = Tr(zeta_n^(a - b)), and so does each class of its Galois
    orbit O: one class per orbit is summed, weighted |O|.  The products run
    in product_dtype's dtype for phi(e) sum_k weight_k |f_k|_1 |g_k|_1 (row
    maxima), which bounds every term: an entry of g_k W_n meets only zeros
    unless f_k is nonzero."""
    cd, phi = table.classes, totient(table.exponent)
    reps = np.unique(orbit := cd.galois_orbits, return_index=True)[1]
    weight = np.bincount(orbit)[orbit] * cd.sizes  # |orbit of k| size_k
    blocks = [(n, weight[ks], f[:, cols], g[:, cols])
              for n, ks, cols in _buckets(cd.orders, reps)]
    dtype = object
    if f.dtype == g.dtype == np.int64:
        dtype = product_dtype(phi * sum(np.prod([np.abs(
            x, dtype=np.float64).sum(axis=2).max(axis=0) for x in (a, b)],
            axis=0) @ w for _, w, a, b in blocks))
    total = 0
    for n, w, a, b in blocks:
        c = np.arange(n)
        trace = [mobius(d) * phi // totient(d)
                 for d in (n // np.gcd(n, c)).tolist()]
        a = a.astype(dtype, copy=False) * w.astype(dtype)[:, None]
        b = b.astype(dtype, copy=False) @ np.array(trace, dtype=dtype)[
            (c[:, None] - c) % n]
        total = total + a.reshape(len(f), -1) @ b.reshape(len(g), -1).T
    return total.astype(np.int64) if dtype is np.float64 else total


def _gram(table: CharacterTable, fs, gs) -> list[list[Fraction]]:
    """Exact inner products <fs[i], gs[j]> of characters or Z- or
    Q-combinations of them on the table's classes, else TableError."""
    fs = list(fs)
    rows = _table_stack(table, fs + list(gs))
    gram = _inner_products(table, rows[:len(fs)], rows[len(fs):])
    scale = totient(table.exponent) * table.group.order
    return [[Fraction(c, scale) for c in row] for row in gram.tolist()]


def inner_product(table: CharacterTable, a, b) -> Fraction:
    """(1/|G|) sum over classes of size * a(g) * conj(b(g)), exact, as in
    ``_gram``."""
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
    for n, _, cols in _buckets(orders, range(len(orders))):
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


def extensions_of(group: Group, n: Group,
                  theta: Character) -> list[Character]:
    """All chi in Irr(G) with chi(1) = theta(1) restricting to theta exactly."""
    if isinstance(n, Subgroup) and not n.is_normal():
        warnings.warn("extension test on a non-normal subgroup", stacklevel=2)
    same = [chi for chi in character_table(group).chars
            if chi.degree == theta.degree]
    restricted = _on_classes(same, class_fusion(group, n))
    hits = equal(restricted, [theta])
    return [chi for chi, hit in zip(same, hits[:, 0]) if hit]
