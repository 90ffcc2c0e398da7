"""The table build on stacks: the block Gram routine and the tensor
product against a per-pair reference product, kernels and equality read
off the multiplicity rows against the values and the Gram routine, the
canonical row order against the embedded sort key, and the element rank
where levels skip their inverse gather.
"""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from cyclic_reference import as_character, cyclic_product

from chardeg import bsgs, chars, checks
from chardeg.chars import (Character, CharacterTable, _on_classes,
                           character_table, tensor)
from chardeg.cyclotomic import CycValue
from chardeg.errors import TableError
from chardeg.groups import Group, Subgroup, class_fusion
from chardeg.perms import Permutation, parse_cycles


def make(gens, degree):
    return Group([parse_cycles(s, degree) for s in gens], degree)


SMALL = {
    "A5": lambda: make(["(1 2 3 4 5)", "(1 2 3)"], 5),
    "M11": lambda: make(["(1 2 3 4 5 6 7 8 9 10 11)",
                         "(3 7 11 8)(4 10 5 6)"], 11),
    "C3^4": lambda: make([f"({3 * i + 1} {3 * i + 2} {3 * i + 3})"
                          for i in range(4)], 12),
    "C30": lambda: make(["(1 2)(3 4 5)(6 7 8 9 10)"], 10),
}
SCALE = {
    "S8": lambda: make(["(1 2 3 4 5 6 7 8)", "(1 2)"], 8),
    "M12": lambda: make(["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)",
                         "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"], 12),
    "C2^6": lambda: make([f"({2 * i + 1} {2 * i + 2})" for i in range(6)], 12),
    "C2^7": lambda: make([f"({2 * i + 1} {2 * i + 2})" for i in range(7)], 14),
    "C3^4": SMALL["C3^4"],
}


# -- the block Gram routine ---------------------------------------------------

def reference_inner_product(table, f, g):
    """<f, g> one pair of values at a time, summed over the e-th roots of
    unity; None if irrational."""
    e = table.exponent
    total = [0] * e
    for size, x, y in zip(table.classes.sizes, f.values, g.values):
        m, prod = cyclic_product((x.n, x.coeffs), (y.n, y.coeffs), True)
        for i, c in enumerate(prod):
            total[i * e // m] += size * c
    value = CycValue(e, total).rational()
    return None if value is None else value / table.group.order


def combination(rng, table, scale):
    """sum_i a_i chi_i over a few rows, a_i random multiples of scale,
    written by hand from its values."""
    picks = rng.sample(range(len(table.chars)), min(4, len(table.chars)))
    coeffs = {i: rng.randint(-3, 3) * scale for i in picks}
    row = sum(a * table.chars[i].row.astype(object) for i, a in coeffs.items())
    orders = table.classes.orders
    return coeffs, as_character(0, [
        CycValue(n, row[at:at + n].tolist())
        for n, at in zip(orders, np.cumsum([0, *orders]).tolist())])


SCALES = {
    "int": 1,
    "fraction": Fraction(2, 7),
    "bound above 2^62": 2**40,  # int64 stack, object Gram
    "above 2^63": 2**64 + 1,  # object stack
}


@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("name", list(SMALL))
def test_block_gram_matches_per_pair_reference(name, scale):
    table = character_table(SMALL[name]())
    rng = random.Random(f"{name} {scale}")
    fs = [combination(rng, table, SCALES[scale]) for _ in range(3)]
    gs = [combination(rng, table, SCALES[scale]) for _ in range(2)]
    gram = chars._gram(table, [f for _, f in fs], [g for _, g in gs])
    for i, (a, f) in enumerate(fs):
        for j, (b, g) in enumerate(gs):
            expected = sum(a[k] * b[k] for k in a.keys() & b.keys())
            assert gram[i][j] == expected
            assert reference_inner_product(table, f, g) == expected


@pytest.mark.parametrize("name", list(SMALL))
def test_block_gram_rejects_what_the_reference_finds_irrational(name):
    # random coefficients on the table's classes are no Galois-stable row,
    # so the Gram rejects each, whether or not the reference finds its
    # inner product irrational
    table = character_table(SMALL[name]())
    rng = random.Random(name)
    orders = table.classes.orders
    for _ in range(5):
        f = as_character(1, [CycValue(n, [rng.randint(-5, 5)
                                          for _ in range(n)])
                             for n in orders])
        with pytest.raises(TableError, match="Galois-stable"):
            chars._gram(table, [f], [table.chars[-1]])


# -- the tensor product -------------------------------------------------------

def reference_tensor(a, b):
    """(orders, row) of a * b, one value at a time by the reference."""
    prods = [cyclic_product(x, y) for x, y in zip(a._coefficients(),
                                                   b._coefficients())]
    return [m for m, _ in prods], [c for _, out in prods for c in out]


def test_tensor_of_hand_built_characters_over_mixed_orders():
    # classes over zeta_1, zeta_4, zeta_4 and zeta_6; a has Fractions, so
    # its row holds Python objects
    half = Fraction(1, 2)
    a = as_character(2, [
        CycValue(1, (2,)), CycValue(4, (half, 0, Fraction(3, 2), 0)),
        CycValue(4, (0, 1, 0, 1)), CycValue(6, (1, 0, -1, 0, 0, 0))])
    b = as_character(3, [
        CycValue(1, (3,)), CycValue(4, (1, 0, 2, 0)),
        CycValue(4, (0, 2, 1, 0)), CycValue(6, (0, 1, 0, 0, 2, 0))])
    assert reference_tensor(a, b)[0] == [1, 4, 4, 6]
    for x, y in ((a, b), (b, a), (b, b)):
        prod = tensor(x, y)
        assert prod.degree == x.degree * y.degree
        assert (prod.orders, prod.row.tolist()) == reference_tensor(x, y)
    assert tensor(a, b).row.dtype == object
    assert tensor(b, b).row.dtype == np.int64


@pytest.mark.parametrize("big, exact", [(2**30, np.int64), (2**31, object)])
def test_tensor_on_either_side_of_the_int64_bound(big, exact):
    # one class over zeta_2 with coefficients (big, big) in both factors:
    # each product coefficient is 2 big^2, so n max|a| max|b| = 2 big^2 is
    # 2^61 below the bound and 2^63, past int64, above it
    a = Character(1, [1, 2], np.array([1, big, big], dtype=np.int64))
    prod = tensor(a, a)
    assert prod.row.dtype == exact
    assert prod.row.tolist() == [1, 2 * big**2, 2 * big**2]
    as_objects = Character(1, [1, 2], a.row.astype(object))
    assert tensor(as_objects, as_objects).row.tolist() == prod.row.tolist()
    assert reference_tensor(a, a) == (prod.orders, prod.row.tolist())


@pytest.mark.parametrize("name", list(SMALL))
def test_tensor_of_table_rows_matches_the_reference(name):
    table = character_table(SMALL[name]())
    for chi in table.chars[-3:]:
        for psi in table.chars[:3]:
            prod = tensor(chi, psi)
            assert (prod.orders, prod.row.tolist()) == \
                reference_tensor(chi, psi)


# -- kernels and row order ----------------------------------------------------

def tables(cat):
    for name in cat.names():
        yield name, character_table(cat.group(name))


@pytest.fixture(scope="module")
def scale_tables():
    return {name: character_table(build()) for name, build in SCALE.items()}


def assert_multiplicity_rows(chis):
    """The invariant the kernel read and the row equality rely on: every
    multiplicity is nonnegative, and each class block sums to the degree."""
    for chi in chis:
        starts = np.cumsum(chi.orders) - chi.orders
        assert (chi.row >= 0).all()
        assert (np.add.reduceat(chi.row, starts) == chi.degree).all()


def assert_kernels(chis):
    # the multiplicity of 1 against chi(g) = chi(1) on the exact values,
    # also for the row rebuilt from the values
    assert_multiplicity_rows(chis)
    for chi in chis:
        kernel = {k for k, v in enumerate(chi.values)
                  if v.rational() == chi.degree}
        assert chi.kernel_classes == kernel
        assert as_character(chi.degree, chi.values).kernel_classes == kernel


def test_batched_kernels_equal_one_row_kernels_on_the_corpus(cat):
    for _, table in tables(cat):
        assert_kernels(table.chars)


@pytest.mark.parametrize("name", list(SCALE))
def test_batched_kernels_equal_one_row_kernels_at_scale(scale_tables, name):
    assert_kernels(scale_tables[name].chars)


def s5_and_a5():
    s5 = make(["(1 2 3 4 5)", "(1 2)"], 5)
    return s5, Subgroup(s5, [parse_cycles("(1 2 3 4 5)", 5),
                             parse_cycles("(1 2 3)", 5)])


def test_kernels_of_products_and_restrictions():
    s5, a5 = s5_and_a5()
    for group in (s5, a5):
        rows = character_table(group).chars
        assert_kernels([tensor(a, b) for a in rows for b in rows])
    restricted = _on_classes(character_table(s5).chars, class_fusion(s5, a5))
    assert_kernels(restricted)
    assert_kernels([tensor(a, b) for a in restricted for b in restricted])


# -- equality of rows ---------------------------------------------------------

def reference_equal(table, fs, gs):
    """[i, j] true iff <f - g, f - g> = <f, f> + <g, g> - 2 <f, g> is 0, by
    the Gram routine."""
    both = list(fs) + list(gs)
    gram, k = np.array(chars._gram(table, both, both)), len(fs)
    norms = gram.diagonal()
    return norms[:k, None] + norms[k:] - 2 * gram[:k, k:] == 0


def test_equal_matches_the_gram_on_the_paper_comparisons(cat, monkeypatch):
    # every comparison the paper checks make, against the Gram on the table
    # of the group the compared characters live on
    tables_of = {
        "extensions_of": lambda scope: character_table(scope["n"]),
        "transport_character": lambda scope: scope["source_table"],
        "paper_check_suite": lambda scope: scope["t_s5"],
    }
    seen = []
    real = chars.equal

    def spy(fs, gs):
        fs, gs = list(fs), list(gs)
        caller = sys._getframe(1)
        table = tables_of[caller.f_code.co_name](caller.f_locals)
        hits = real(fs, gs)
        assert hits.tolist() == reference_equal(table, fs, gs).tolist()
        seen.append((caller.f_code.co_name, hits))
        return hits

    monkeypatch.setattr(chars, "equal", spy)
    monkeypatch.setattr(checks, "equal", spy)
    assert checks.paper_check_suite(cat).failed == 0
    assert {name for name, _ in seen} == set(tables_of)
    entries = np.concatenate([hits.ravel() for _, hits in seen])
    assert entries.any() and not entries.all()


@pytest.mark.parametrize("name", ["S5", "SL2_5"])
def test_equal_matches_the_gram_on_rows_and_products(cat, name):
    table = character_table(cat.group(name))
    rows = table.chars
    products = [tensor(a, b) for a in rows for b in rows]
    hits = chars.equal(rows, products)
    assert hits.tolist() == reference_equal(table, rows, products).tolist()
    assert (hits.sum(axis=0) <= 1).all() and hits.any()


def embedded_key(table):
    return lambda c: (c.degree, tuple(v.embed(table.exponent).coeffs
                                      for v in c.values))


def test_row_order_equals_embedded_sort_on_the_corpus(cat):
    for _, table in tables(cat):
        assert list(table.chars) == sorted(table.chars,
                                           key=embedded_key(table))
        assert table.principal().degree == 1
        assert all(v.rational() == 1 for v in table.principal().values)


@pytest.mark.parametrize("name", ["A5", "M11", "C3^4"])
def test_hand_built_rows_sort_like_the_lift(name):
    # rows given in reverse and rebuilt from their values end in the same
    # canonical order, also where the largest row holds Python objects, so
    # that the stack and the Gram take the object path
    table = character_table(SMALL[name]())
    rows = [as_character(chi.degree, chi.values) for chi in table.chars[::-1]]
    rows[0] = Character(rows[0].degree, rows[0].orders,
                        rows[0].row.astype(object))
    rebuilt = CharacterTable(table.group, table.classes, rows, table.exponent,
                             table.dixon_prime, table.primitive_root)
    assert [c.kernel_classes for c in rebuilt.chars] == \
        [c.kernel_classes for c in table.chars]
    assert sorted(rows, key=embedded_key(table)) == list(rebuilt.chars)
    assert rebuilt.chars[-1] is rows[0]


# -- the element rank ---------------------------------------------------------

def direct_power(p, k):
    return make([f"({' '.join(str(p * i + j + 1) for j in range(p))})"
                 for i in range(k)], p * k)


@pytest.mark.parametrize("p, k", [(2, 6), (3, 4)])
def test_rank_skips_every_inverse_gather_of_an_elementary_abelian_group(p, k):
    group = direct_power(p, k)
    assert all(inverse is None for *_, inverse in group.chain._rank_blocks)
    rows = group.element_array()
    assert np.array_equal(group.chain.rank(rows[:, group.chain.base]),
                          np.arange(group.order))


def test_rank_divides_where_a_later_orbit_moves(monkeypatch):
    # level 0's transversal element (0 2)(1 3) fixes base point 1 but moves
    # 3, which base point 1's stabilizer orbit reaches: with one level a
    # block, its inverse must be gathered, or the rank of half the elements
    # comes out wrong
    monkeypatch.setattr(bsgs, "_RANK_KEYS", 1)
    group = Group([Permutation([2, 3, 0, 1, 4]), Permutation([2, 1, 0, 4, 3])],
                  5)
    chain = group.chain
    assert chain.base[:2] == [0, 1]
    assert chain._rank_blocks[0][3] is not None
    rows = group.element_array()
    assert np.array_equal(chain.rank(rows[:, chain.base]),
                          np.arange(group.order))


def test_rank_on_random_groups(monkeypatch):
    rng, default = random.Random(7), bsgs._RANK_KEYS
    skipped = 0
    for _ in range(300):
        degree = rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            points = rng.sample(range(degree), degree)
            images = list(range(degree))
            size = rng.choice([2, 3])
            for lo in range(0, rng.randint(1, degree // size) * size, size):
                cycle = points[lo:lo + size]
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a] = b
            gens.append(Permutation(images))
        # the default blocks, then one level a block
        for keys in (default, 1):
            monkeypatch.setattr(bsgs, "_RANK_KEYS", keys)
            group = Group(gens, degree)
            if group.order > 2000:
                break
            skipped += sum(inverse is None
                           for *_, inverse in group.chain._rank_blocks[:-1])
            rows = group.element_array()
            assert np.array_equal(group.chain.rank(rows[:, group.chain.base]),
                                  np.arange(group.order))
    assert skipped > 0
