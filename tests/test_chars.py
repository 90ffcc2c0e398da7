import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

from cyclic_reference import as_character

from chardeg import chars, cyclotomic, dixon
from chardeg.chars import (Character, CharacterTable, character_table,
                           extensions_of, inner_product,
                           kernel_classes_contain, kernel_subgroup,
                           restrict_character, tensor)
from chardeg.invariants import gallagher_check
from chardeg.cyclotomic import CycValue, reduce_to_power_basis, totient
from chardeg.errors import TableError
from chardeg.groups import (ClassData, Group, Subgroup, center,
                            conjugacy_classes)
from chardeg.perms import parse_cycles


def make(gens, degree, name=None):
    return Group([parse_cycles(s, degree) for s in gens], degree, name=name)


@pytest.fixture(scope="module")
def s5():
    return make(["(1 2 3 4 5)", "(1 2)"], 5, "S5")


@pytest.fixture(scope="module")
def a5_in_s5(s5):
    return Subgroup(s5, [parse_cycles("(1 2 3 4 5)", 5),
                         parse_cycles("(1 2 3)", 5)])


def combination(table, coeffs) -> Character:
    """sum_i coeffs[i] chi_i, written by hand from its values."""
    row = sum(a * chi.row.astype(object) for a, chi in zip(coeffs, table.chars))
    at = np.cumsum([0, *table.classes.orders]).tolist()
    return as_character(
        sum(a * chi.degree for a, chi in zip(coeffs, table.chars)),
        [CycValue(n, row[a:a + n].tolist())
         for n, a in zip(table.classes.orders, at)])


def sign(table) -> Character:
    return next(c for c in table.chars
                if c.degree == 1 and c is not table.principal())


def test_inner_product_regular(s5):
    t = character_table(s5)
    # <1, regular> = 1: the regular character is sum of d * chi, |G| at 1
    regular = combination(t, t.degrees())
    assert [v.rational() for v in regular.values] == [120] + [0] * 6
    assert inner_product(t, t.principal(), regular) == 1


def test_tensor_with_principal(s5):
    t = character_table(s5)
    chi = t.chars[-1]
    prod = tensor(chi, t.principal())
    assert prod.degree == chi.degree and prod.orders == chi.orders
    assert prod.row.tolist() == chi.row.tolist()


def test_sign_squares_to_one(s5):
    t = character_table(s5)
    square = tensor(sign(t), sign(t))
    assert square.row.tolist() == t.principal().row.tolist()


def test_sign_times_degree5(s5):
    t = character_table(s5)
    deg5 = [c for c in t.chars if c.degree == 5]
    prod = tensor(sign(t), deg5[0])
    # equals the other degree-5 character, as rows: both are canonical
    assert prod.row.tolist() == deg5[1].row.tolist()
    assert prod.row.tolist() != deg5[0].row.tolist()
    assert chars.equal([prod], deg5).tolist() == [[False, True]]


def test_products_and_restrictions_know_their_kernels(s5, a5_in_s5):
    t = character_table(s5)
    assert kernel_subgroup(s5, tensor(sign(t), sign(t))).order == 120
    restricted = restrict_character(s5, sign(t), a5_in_s5)
    assert kernel_subgroup(a5_in_s5, restricted).order == 60


def test_restriction_to_a5(s5, a5_in_s5):
    ts5 = character_table(s5)
    ta5 = character_table(a5_in_s5)
    restricted = restrict_character(s5, ts5.principal(), a5_in_s5)
    assert all(v.rational() == 1 for v in restricted.values)
    # S5's degree-4 restricts to A5's degree-4 irreducibly
    deg4 = [c for c in ts5.chars if c.degree == 4][0]
    restricted = restrict_character(s5, deg4, a5_in_s5)
    assert inner_product(ta5, restricted, restricted) == 1
    target = [c for c in ta5.chars if c.degree == 4][0]
    assert inner_product(ta5, restricted, target) == 1


def test_restriction_degree5_irreducible(s5, a5_in_s5):
    ts5 = character_table(s5)
    ta5 = character_table(a5_in_s5)
    deg5 = [c for c in ts5.chars if c.degree == 5][0]
    restricted = restrict_character(s5, deg5, a5_in_s5)
    target = [c for c in ta5.chars if c.degree == 5][0]
    assert inner_product(ta5, restricted, target) == 1


def test_kernel_of_principal(s5):
    t = character_table(s5)
    ker = kernel_subgroup(s5, t.principal())
    assert ker.order == s5.order


def test_kernel_of_sign(s5):
    assert kernel_subgroup(s5, sign(character_table(s5))).order == 60


def test_faithful_kernel_trivial(cat):
    sl25 = cat.group("SL2_5")
    t = character_table(sl25)
    deg2 = [c for c in t.chars if c.degree == 2][0]
    assert kernel_subgroup(sl25, deg2).order == 1


def test_restrict_sl25_degree2_to_center(cat):
    sl25 = cat.group("SL2_5")
    t = character_table(sl25)
    z = center(sl25)
    tz = character_table(z)
    lam = sign(tz)
    for chi in t.chars:
        if chi.degree != 2:
            continue
        restricted = restrict_character(sl25, chi, z)
        # restriction is 2 * lambda: -1 twice on the central involution
        assert restricted.orders == lam.orders
        assert restricted.row.tolist() == (2 * lam.row).tolist()


def test_extensions_principal_case(s5, a5_in_s5):
    ta5 = character_table(a5_in_s5)
    exts = extensions_of(s5, a5_in_s5, ta5.principal())
    # exactly the linear characters of S5 trivial on A5... both are
    assert len(exts) == 2
    assert all(c.degree == 1 for c in exts)


def test_extensions_degree5(s5, a5_in_s5):
    ta5 = character_table(a5_in_s5)
    theta = [c for c in ta5.chars if c.degree == 5][0]
    exts = extensions_of(s5, a5_in_s5, theta)
    assert len(exts) == 2
    assert all(c.degree == 5 for c in exts)


def test_extensions_warn_non_normal(s5):
    h = Subgroup(s5, [parse_cycles("(1 2)", 5)])
    th = character_table(h)
    with pytest.warns(UserWarning, match="non-normal subgroup"):
        extensions_of(s5, h, th.principal())


def test_gallagher_whole_group(s5):
    t = character_table(s5)
    whole = Subgroup(s5, list(s5.generators))
    psi = t.chars[-1]
    res = gallagher_check(s5, whole, psi)
    assert res.passed


def test_gallagher_s5_a5(s5, a5_in_s5):
    ta5 = character_table(a5_in_s5)
    theta = [c for c in ta5.chars if c.degree == 5][0]
    psi = extensions_of(s5, a5_in_s5, theta)[0]
    res = gallagher_check(s5, a5_in_s5, psi)
    assert res.passed


def test_gallagher_precondition_reported(s5, a5_in_s5):
    ts5 = character_table(s5)
    deg6 = [c for c in ts5.chars if c.degree == 6][0]
    # degree-6 restricts reducibly (A5 has no degree-6)
    res = gallagher_check(s5, a5_in_s5, deg6)
    assert not res.passed
    assert "precondition" in res.details[0]


def test_kernel_classes_contain(cat):
    sl27 = cat.group("SL2_7")
    t = character_table(sl27)
    z = center(sl27)
    for chi in t.chars:
        expected = all(t.classes.class_of(g) in chi.kernel_classes
                       for g in z.generators)
        assert kernel_classes_contain(t, chi, z) == expected


def test_tensor_decomposes_with_nonneg_integer_multiplicities(cat):
    for name in ("A5", "S4", "Q8", "PSL2_7"):
        g = cat.group(name)
        t = character_table(g)
        chi, psi = t.chars[-1], t.chars[-2]
        prod = tensor(chi, psi)
        total_degree = 0
        for tau in t.chars:
            mult = inner_product(t, prod, tau)
            assert mult.denominator == 1 and mult >= 0
            total_degree += mult * tau.degree
        assert total_degree == chi.degree * psi.degree


def test_regular_character_multiplicities(cat):
    g = cat.group("SL2_5")
    t = character_table(g)
    regular = combination(t, t.degrees())
    for c in t.chars:
        assert inner_product(t, regular, c) == c.degree


def test_fused_characters_do_not_extend(cat):
    # the two degree-3 characters of A5 are swapped by S5, so neither extends
    s5 = cat.group("S5")
    a5 = Subgroup(s5, cat.group("A5").generators)
    ta5 = character_table(a5)
    for theta in ta5.chars:
        if theta.degree == 3:
            assert extensions_of(s5, a5, theta) == []


def test_quotient_degrees_consistency(cat):
    # characters trivial on the center realize the central quotient's table
    from chardeg.groups import quotient_group
    for name in ("SL2_5", "SL2_7", "2A6", "3A6", "Q8", "D8"):
        g = cat.group(name)
        z = center(g)
        t = character_table(g)
        kernel_degrees = sorted(
            c.degree for c in t.chars if kernel_classes_contain(t, c, z))
        q = quotient_group(g, z)
        assert kernel_degrees == character_table(q.group).degrees(), name
    # SL2(5)/Z realizes A5's table exactly
    sl25 = cat.group("SL2_5")
    q = quotient_group(sl25, center(sl25))
    assert character_table(q.group).degrees() == \
        character_table(cat.group("A5")).degrees()


def test_inner_product_rejects_value_outside_exponent(cat):
    # A5 has exponent 30, so the 4th root of unity i is not in Q(zeta_30).
    # f = i on one 5-class and -zeta_30^7 on the other, of equal size:
    # <f, 1> is not rational, and reading i as zeta_30^(30 // 4) would
    # silently cancel it to 0.  f is not on the table's classes, so no
    # inner product is taken.
    t = character_table(cat.group("A5"))
    cd = t.classes
    k, m = [j for j, o in enumerate(cd.orders) if o == 5]
    values = [CycValue(1, (0,))] * cd.num_classes
    values[k] = CycValue(4, (0, 1, 0, 0))
    values[m] = CycValue(30, [-1 if i == 7 else 0 for i in range(30)])
    f = as_character(1, values)
    with pytest.raises(TableError, match="table's classes"):
        inner_product(t, f, f)
    with pytest.raises(TableError):
        inner_product(t, f, t.principal())


def test_table_rejects_corrupted_rows(cat):
    t = character_table(cat.group("A5"))

    def rebuild(chars):
        return CharacterTable(t.group, t.classes, chars, t.exponent,
                              t.dixon_prime, t.primitive_root)

    assert rebuild(t.chars).degrees() == t.degrees()
    # one degree-3 row replaced by a copy of the other
    first, second = [c for c in t.chars if c.degree == 3]
    with pytest.raises(TableError):
        rebuild([first if c is second else c for c in t.chars])
    # one nonzero value off the identity class negated
    chi = t.chars[-1]
    k = next(k for k, v in enumerate(chi.values)
             if t.classes.orders[k] != 1 and v.rational() != 0)
    at = np.cumsum([0, *chi.orders])
    row = chi.row.copy()
    row[at[k]:at[k + 1]] *= -1
    negated = Character(chi.degree, chi.orders, row)
    with pytest.raises(TableError):
        rebuild(t.chars[:-1] + (negated,))


def test_inner_product_exact_beyond_int64(cat):
    t = character_table(cat.group("A5"))
    chi = t.chars[-1]
    half = combination(t, [0, 0, 0, 0, Fraction(1, 2)])
    huge = combination(t, [0, 0, 0, 0, 10**20])
    assert inner_product(t, half, chi) == Fraction(1, 2)
    assert inner_product(t, huge, huge) == 10**40


def test_gram_reduces_once(cat, monkeypatch):
    # the Gram is a trace over Q: no entry goes through a power basis
    t = character_table(cat.group("S5"))
    calls = []

    def counting(coeffs, n):
        calls.append(np.shape(coeffs))
        return reduce_to_power_basis(coeffs, n)

    monkeypatch.setattr(cyclotomic, "reduce_to_power_basis", counting)
    monkeypatch.setattr(chars, "reduce_to_power_basis", counting,
                        raising=False)
    r = len(t.chars)
    assert chars._gram(t, t.chars, t.chars) == [
        [int(i == j) for j in range(r)] for i in range(r)]
    assert calls == []


def test_extensions_of_reducible_theta(s5, a5_in_s5):
    # S5's degree-6 character restricts to A5 as the sum of its two
    # degree-3 characters; it is the one degree-6 extension of that sum
    (deg6,) = [c for c in character_table(s5).chars if c.degree == 6]
    theta = restrict_character(s5, deg6, a5_in_s5)
    assert extensions_of(s5, a5_in_s5, theta) == [deg6]


def test_kernel_subgroup_rejects_classes_that_do_not_close(s5):
    # the identity and the transpositions generate S5, not 11 elements
    cd = character_table(s5).classes
    k = next(i for i, (o, s) in enumerate(zip(cd.orders, cd.sizes))
             if (o, s) == (2, 10))
    # a degree-1 row: eigenvalue 1 at those classes, another root elsewhere
    at = np.cumsum([0, *cd.orders])
    row = np.zeros(at[-1], dtype=np.int64)
    row[at[:-1] + [0 if j in (0, k) else o // 2
                   for j, o in enumerate(cd.orders)]] = 1
    fake = Character(1, cd.orders, row)
    assert fake.kernel_classes == {0, k}
    with pytest.raises(TableError):
        kernel_subgroup(s5, fake)


@pytest.mark.parametrize("cycles,degree,powers", [
    ("(1 2 3 4 5 6)", 6, [1, 4]),  # zeta_6 + zeta_6^4 = 0
    ("(1 2 3)(4 5 6 7 8)", 8, [1, 6, 11]),  # zeta_15 (1 + zeta_3 + zeta_3^2)
])
def test_gram_of_a_stack_against_itself_matches_the_general_path(
        cycles, degree, powers):
    # every other row rewritten at one class of order n by a sum of powers
    # that vanishes: the same values, so the same rational inner products,
    # but vectors that are no longer Galois-stable (the classes of the
    # rewritten one's orbit are not), and the trace form is only sound on
    # stable rows: the Gram and the table both reject them
    group = Group([parse_cycles(cycles, degree)], degree)
    table = character_table(group)
    orders = table.classes.orders
    k = orders.index(max(orders))
    n, at = orders[k], sum(orders[:k])
    vanishing = np.zeros(n, dtype=np.int64)
    vanishing[powers] = 1
    assert not any(reduce_to_power_basis(vanishing.tolist(), n))
    rewritten = []
    for i, chi in enumerate(table.chars):
        row = chi.row.copy()
        if i % 2 == 0:
            row[at:at + n] += vanishing
        rewritten.append(Character(chi.degree, chi.orders, row))
    for chi in rewritten[::2]:
        with pytest.raises(TableError, match="Galois-stable"):
            chars._gram(table, [chi], table.chars)
    with pytest.raises(TableError, match="Galois-stable"):
        CharacterTable(group, table.classes, rewritten, table.exponent,
                       table.dixon_prime, table.primitive_root)


def test_table_rejects_rows_that_are_not_galois_stable():
    # C3's rows (1, 1, 1), (1, w, w) and (1, w^2, w^2), w = zeta_3, as
    # multiplicity rows: degrees 1, dividing 3, whose squares sum to 3, and
    # a trace Gram of phi(3) |G| I, which is what the Gram check compares;
    # only the stability check tells that g -> g^2, which swaps the two
    # classes of order 3, does not permute the values as it must
    group = Group([parse_cycles("(1 2 3)", 3)], 3)
    table = character_table(group)
    orders = table.classes.orders
    assert orders == [1, 3, 3]
    unit = np.eye(3, dtype=np.int64)
    fake = [Character(1, orders, np.array([1, *unit[a], *unit[a]]))
            for a in range(3)]
    rows = np.array([chi.row for chi in fake])
    assert np.array_equal(chars._inner_products(table, rows, rows),
                          totient(3) * 3 * np.eye(3, dtype=int))
    with pytest.raises(TableError, match="Galois-stable"):
        CharacterTable(group, table.classes, fake, table.exponent,
                       table.dixon_prime, table.primitive_root)


def test_stability_check_rejects_fake_rows_and_passes_table_rows():
    # C3's fake rows (1, 1, 1), (1, w, w) and (1, w^2, w^2) fail the one
    # gather through the orbit heads; the real table's rows, handed in as
    # characters, pass it
    group = Group([parse_cycles("(1 2 3)", 3)], 3)
    table = character_table(group)
    orders = table.classes.orders
    unit = np.eye(3, dtype=np.int64)
    fake = [Character(1, orders, np.array([1, *unit[a], *unit[a]]))
            for a in range(3)]
    args = table.exponent, table.dixon_prime, table.primitive_root
    with pytest.raises(TableError, match="Galois-stable"):
        CharacterTable(group, table.classes, fake, *args)
    rebuilt = CharacterTable(group, table.classes, table.chars[::-1], *args)
    assert rebuilt.chars == table.chars


def galois_group(cat, name):
    return {
        "C60": lambda: make(["(1 2 3)(4 5 6 7)(8 9 10 11 12)"], 12),
        "C_120": lambda: make(["(1 2 3)(4 5 6 7 8 9 10 11)(12 13 14 15 16)"],
                              16),
        "M12": lambda: make(["(1 2 3 4 5 6 7 8 9 10 11)",
                             "(3 7 11 8)(4 10 5 6)",
                             "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"], 12),
        "D_400": lambda: make(
            ["(" + " ".join(map(str, range(1, 201))) + ")",
             "".join(f"({i} {202 - i})" for i in range(2, 101))], 200),
    }.get(name, lambda: cat.group(name))()


@pytest.mark.parametrize("name", ["C60", "Q16", "2A6", "M12", "D_400"])
def test_galois_columns_are_fixed_by_every_map(cat, name):
    # each head is fixed by the move (k, a) -> (pi_t(k), a t mod n_k) of
    # every unit t mod e, so every gather through the heads is Galois-stable
    # whatever its values; it is the least image of its column under those
    # moves, and lies in the least class of its class's orbit
    cd = conjugacy_classes(galois_group(cat, name))
    heads = cd.galois_columns
    at = np.cumsum([0, *cd.orders])
    k = np.repeat(np.arange(cd.num_classes), cd.orders)
    a, n = np.arange(at[-1]) - at[k], np.repeat(cd.orders, cd.orders)
    e = lcm(*cd.orders)
    moves = [at[np.take([c[t % len(c)] for c in cd.power_class], k)]
             + a * t % n for t in range(1, e) if gcd(t, e) == 1]
    for moved in moves:
        assert np.array_equal(heads[moved], heads)
    assert np.array_equal(heads, np.min(moves, axis=0))
    reps = np.unique(cd.galois_orbits, return_index=True)[1]
    assert np.array_equal(k[heads], reps[cd.galois_orbits[k]])


def test_galois_columns_are_found_once_per_table(monkeypatch):
    # A5: the split's rational skip, the lift, the table's sort and Gram and
    # every later inner product share the class data's one array of heads
    found = []
    original = ClassData.galois_columns.func

    def spy(cd):
        found.append(cd)
        return original(cd)
    monkeypatch.setattr(ClassData.galois_columns, "func", spy)
    table = character_table(make(["(1 2 3 4 5)", "(1 2 3)"], 5))
    for chi in table.chars:
        assert inner_product(table, chi, chi) == 1
    assert found == [table.classes]


def test_new_table_stacks_the_lift_rows_in_place(monkeypatch):
    # the table's rows are those of the lift's one array, which is their
    # stack: building the table copies none of them into a new one
    stacked = []
    original = chars._stack

    def spy(funcs):
        stacked.append(len(funcs))
        return original(funcs)
    monkeypatch.setattr(chars, "_stack", spy)
    table = character_table(make(["(1 2 3 4 5)", "(1 2 3)"], 5))
    assert stacked == []
    mult = table.chars[0].row.base
    assert len(mult) == len(table.chars)
    assert all(chi.row.base is mult for chi in table.chars)


@pytest.mark.parametrize("width,dtype", [
    (1, np.int64), (7, np.int64), (40, np.int64), (40, object)])
def test_canonical_order_is_degree_then_row_then_index(width, dtype):
    # rows over {0, 1}, tied on every short prefix, ten of them equal to
    # row 0, so that no prefix decides them and they keep their input order
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 2, (60, width))
    rows[30:40] = rows[0]
    degrees = rng.integers(1, 3, 60)
    expected = [i for *_, i in sorted(zip(degrees.tolist(), rows.tolist(),
                                          range(60)))]
    assert chars._canonical_order(
        degrees, rows.astype(dtype), range(width)).tolist() == expected


@pytest.mark.parametrize("name", ["C_120", "D_400", "2A6", "Q16", "M12"])
def test_head_columns_give_the_order_of_the_full_rows(cat, name):
    # on Galois-stable rows two rows first differ at a head column, so the
    # heads alone sort them as the full rows do; no head is redundant:
    # some head, dropped, leaves rows tied or misordered
    table = character_table(galois_group(cat, name))
    shuffle = np.random.default_rng(0).permutation(len(table.chars))
    rows = np.array([chi.row for chi in table.chars])[shuffle]
    degrees = np.array(table.degrees())[shuffle]
    cols = table.classes.galois_columns
    heads = np.flatnonzero(cols == np.arange(len(cols)))
    full = np.lexsort((*rows.T[::-1], degrees))
    assert np.array_equal(chars._canonical_order(degrees, rows, heads), full)
    assert any(not np.array_equal(chars._canonical_order(
        degrees, rows, np.delete(heads, j)), full) for j in range(len(heads)))


def test_a_table_build_leaves_numpy_ma_unimported():
    # np.unique with no index, inverse or counts asked for imports numpy.ma,
    # 10 ms or more and 1.5 MB in a fresh process; no table build, and none
    # of the CLI commands below, may do so
    code = ("import contextlib, io, sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from chardeg import Catalogue, character_table\n"
            "from chardeg.cli import main\n"
            "character_table(Catalogue().group('A5'))\n"
            "after = ['numpy.ma' in sys.modules]\n"
            "for argv in (['table', 'A5', '--json'], ['verify', 'paper',\n"
            "             '--json'], ['scan', '--check', 'question:7',\n"
            "                         '--json']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    after.append('numpy.ma' in sys.modules)\n"
            "print(before, *after)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(chars.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    before, *after = out.stdout.split()
    if before == "True":
        pytest.skip("importing numpy already imports numpy.ma")
    # after the A5 table, then after each CLI command in turn
    assert after == ["False"] * 4
