import hashlib
import importlib.util
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chardeg import groups
from chardeg.chars import character_table, kernel_subgroup
from chardeg.constructions import direct_product
from chardeg.dixon import class_matrix
from chardeg.errors import GroupTooLargeError, NotMemberError, NotNormalError
from chardeg.groups import (Group, Subgroup, center, class_fusion,
                            class_union, commutator_subgroup,
                            conjugacy_classes, derived_series,
                            is_p_solvable, is_perfect, is_solvable,
                            minimal_normal_subgroups, normal_closure,
                            quotient_group, solvable_radical)
from chardeg.perms import Permutation, parse_cycles


def make(gens, degree, name=None):
    return Group([parse_cycles(s, degree) for s in gens], degree, name=name)


@pytest.fixture(scope="module")
def a5():
    return make(["(1 2 3 4 5)", "(1 2 3)"], 5, "A5")


@pytest.fixture(scope="module")
def s4():
    return make(["(1 2 3 4)", "(1 2)"], 4, "S4")


@pytest.fixture(scope="module")
def s5():
    return make(["(1 2 3 4 5)", "(1 2)"], 5, "S5")


def test_trivial_group():
    g = Group([], 1)
    assert g.order == 1
    assert conjugacy_classes(g).num_classes == 1


def test_build_orders(a5, s4):
    assert a5.order == 60
    assert s4.order == 24


def test_generators_canonically_sorted():
    g1 = make(["(1 2 3 4 5)", "(1 2 3)"], 5)
    g2 = make(["(1 2 3)", "(1 2 3 4 5)"], 5)
    assert g1.generators == g2.generators


def test_class_data_a5(a5):
    cd = conjugacy_classes(a5)
    assert cd.sizes == [1, 15, 20, 12, 12]
    assert cd.orders == [1, 2, 3, 5, 5]
    assert sum(cd.sizes) == 60
    assert all(60 % s == 0 for s in cd.sizes)
    assert len(cd.element_index) == 60


def test_class_data_cyclic():
    c3 = make(["(1 2 3)"], 3)
    cd = conjugacy_classes(c3)
    assert cd.sizes == [1, 1, 1]


def test_class_count_s5(s5):
    assert conjugacy_classes(s5).num_classes == 7


def test_inverse_and_power_maps(a5):
    cd = conjugacy_classes(a5)
    for i in range(cd.num_classes):
        assert cd.inverse_class[cd.inverse_class[i]] == i
        assert cd.power_class[i][0] == 0  # identity class is index 0
        if cd.orders[i] > 1:
            assert cd.power_class[i][1] == i


def test_derived_series(s4, a5):
    orders = [g.order for g in derived_series(s4)]
    assert orders == [24, 12, 4, 1]
    assert is_solvable(s4)
    assert derived_series(a5) == [a5]
    assert is_perfect(a5)
    assert not is_solvable(a5)


def test_derived_series_abelian():
    c6 = make(["(1 2 3 4 5 6)"], 6)
    assert [g.order for g in derived_series(c6)] == [6, 1]


def test_center(a5):
    assert center(a5).order == 1
    c4 = make(["(1 2 3 4)"], 4)
    assert center(c4).order == 4
    d8 = make(["(1 2 3 4)", "(2 4)"], 4)
    assert center(d8).order == 2


def test_normal_closure(s4, a5):
    assert normal_closure(s4, [parse_cycles("(1 2 3)", 4)]).order == 12
    assert normal_closure(s4, [s4.identity()]).order == 1
    assert normal_closure(a5, [parse_cycles("(1 2)(3 4)", 5)]).order == 60
    with pytest.raises(NotMemberError):
        normal_closure(a5, [parse_cycles("(1 2)", 5)])


def test_minimal_normal_subgroups(s4):
    mins = minimal_normal_subgroups(s4)
    assert [m.order for m in mins] == [4]
    v4 = make(["(1 2)", "(3 4)"], 4)
    assert sorted(m.order for m in minimal_normal_subgroups(v4)) == [2, 2, 2]
    trivial = Group([], 1)
    assert minimal_normal_subgroups(trivial) == []


def test_minimal_normal_subgroups_without_duplicates(a5):
    # closures of different classes give the same subgroup, generated
    # differently; each subgroup is listed once
    assert [m.order for m in minimal_normal_subgroups(a5)] == [60]
    s8 = make(["(1 2 3 4 5 6 7 8)", "(1 2)"], 8)
    assert [m.order for m in minimal_normal_subgroups(s8)] == [20160]
    c2_3 = make(["(1 2)", "(3 4)", "(5 6)"], 6)
    mins = minimal_normal_subgroups(c2_3)
    assert [m.order for m in mins] == [2] * 7
    assert len({m.generators for m in mins}) == 7


def test_solvable_radical(s4, a5):
    assert solvable_radical(s4).order == 24
    assert solvable_radical(a5).order == 1


def test_quotient_s4_v4(s4):
    v4 = s4.subgroup([parse_cycles("(1 2)(3 4)", 4),
                      parse_cycles("(1 3)(2 4)", 4)])
    q = quotient_group(s4, v4)
    assert q.group.order == 6
    assert not q.group.is_abelian()


def test_quotient_whole_and_trivial(s4):
    whole = s4.subgroup(list(s4.generators))
    assert quotient_group(s4, whole).group.order == 1
    trivial = s4.subgroup([])
    q = quotient_group(s4, trivial)
    assert q.group.order == 24
    assert q.project(s4.generators[0]) == s4.generators[0]


def test_quotient_not_normal(s5):
    h = s5.subgroup([parse_cycles("(1 2)", 5)])
    with pytest.raises(NotNormalError):
        quotient_group(s5, h)


def test_quotient_projection_and_preimage(s4):
    v4 = s4.subgroup([parse_cycles("(1 2)(3 4)", 4),
                      parse_cycles("(1 3)(2 4)", 4)])
    q = quotient_group(s4, v4)
    for x in q.group.elements():
        pre = q.preimage(x)
        assert q.project(pre) == x
    assert [g.order for g in derived_series(q.group)] == [6, 3, 1]


def test_quotient_order_multiplicative(cat):
    for name in ("SL2_5", "S4", "2A6"):
        g = cat.group(name)
        z = center(g)
        if z.order == 1:
            continue
        q = quotient_group(g, z)
        assert q.group.order * z.order == g.order
        assert is_solvable(q.group) == (is_solvable(g))


def test_solvable_quotient_of_solvable(s4):
    a4 = s4.subgroup([parse_cycles("(1 2 3)", 4), parse_cycles("(2 3 4)", 4)])
    assert is_solvable(quotient_group(s4, a4).group)


def test_p_solvable(a5, s4):
    for p in (2, 3, 5):
        assert not is_p_solvable(a5, p)
    assert is_p_solvable(a5, 7)  # 7 does not divide 60
    for p in (2, 3, 5, 7):
        assert is_p_solvable(s4, p)
    with pytest.raises(ValueError):
        is_p_solvable(s4, 6)


def test_p_solvable_steps_through_quotients(cat, a5):
    # SL2(5) is refused at A5 after the quotient by its center; in A5 x C_61
    # the quotient by A5 is C_61, whose own quotient is trivial
    sl25 = cat.group("SL2_5")
    assert [is_p_solvable(sl25, p) for p in (2, 3, 5, 7)] == [
        False, False, False, True]
    c7 = make(["(1 2 3 4 5 6 7)"], 7)
    assert is_p_solvable(direct_product(a5, c7), 7)
    c61 = Group([Permutation(list(range(1, 61)) + [0])], 61)
    a5_c61 = direct_product(a5, c61)
    assert is_p_solvable(a5_c61, 61)
    assert not is_p_solvable(a5_c61, 5)


def test_p_solvable_agrees_with_solvable(cat):
    for name in ("S4", "D8", "F20", "E27", "Q8"):
        g = cat.group(name)
        for p in (2, 3, 5, 7):
            assert is_p_solvable(g, p)


def test_class_fusion(s5, a5):
    a5_sub = s5.subgroup(list(a5.generators))
    fusion = class_fusion(s5, a5_sub)
    cd5 = conjugacy_classes(s5)
    cda = conjugacy_classes(a5_sub)
    # the two 12-element 5-cycle classes fuse into one S5 class
    five_cycle_classes = [fusion[i] for i in range(cda.num_classes)
                          if cda.orders[i] == 5]
    assert len(five_cycle_classes) == 2
    assert len(set(five_cycle_classes)) == 1
    # identity maps to identity
    assert fusion[0] == 0
    # fusion of H = G is the identity map
    assert class_fusion(s5, s5.subgroup(list(s5.generators))) == \
        list(range(cd5.num_classes))


def test_subgroup_membership_validated(a5):
    with pytest.raises(NotMemberError):
        Subgroup(a5, [parse_cycles("(1 2)", 5)])


def test_product_solvability(cat):
    a5xa5 = cat.group("A5xA5")
    assert not is_solvable(a5xa5)
    c3xs3 = cat.group("C3xS3")
    assert is_solvable(c3xs3)


def test_radical_properties(cat):
    g = cat.group("C2xA5")
    rad = solvable_radical(g)
    assert rad.order == 2
    assert is_solvable(rad)
    assert rad.is_normal()
    q = quotient_group(g, rad)
    assert solvable_radical(q.group).order == 1


def test_radical_of_central_products(cat):
    # the radical of SL2(5) o Q8 is the Q8 image extended over the center:
    # the quotient by it is A5, so its order is 480 / 60 = 8
    g = cat.group("SL25oQ8")
    rad = solvable_radical(g)
    assert rad.order == 8
    assert is_solvable(rad)
    q = quotient_group(g, rad)
    assert q.group.order == 60
    assert solvable_radical(q.group).order == 1
    # for the perfect central cover 6.A6 the radical is the center
    g6 = cat.group("6A6")
    assert solvable_radical(g6).order == 6


def reference_radical(group):
    """The solvable radical as it was built before it became a normal
    closure: absorb a solvable minimal normal subgroup of the quotient by
    the radical so far, lifted through Quotient.preimage, until the
    quotient has none."""
    gens = []
    while True:
        radical = Subgroup(group, gens)
        q = quotient_group(group, radical)
        candidates = [m for m in minimal_normal_subgroups(q.group)
                      if is_solvable(m)]
        if not candidates:
            return radical
        gens = list(radical.generators) + [q.preimage(x)
                                           for x in candidates[0].generators]


def element_rows(h):
    return sorted(map(tuple, h.element_array().tolist()))


def class_rows(group, classes):
    cd = conjugacy_classes(group)
    return sorted(map(tuple, cd.rows[np.isin(cd.element_index,
                                             list(classes))].tolist()))


@pytest.mark.parametrize("name", ["S4", "A5", "C2xA5", "A5xA5", "SL2_5",
                                  "SL25oC4", "SL25oQ8", "D8oQ8", "2A6",
                                  "3A6", "6A6"])
def test_radical_matches_the_quotient_loop(cat, name):
    g = cat.group(name)
    assert element_rows(solvable_radical(g)) == \
        element_rows(reference_radical(g))


@pytest.mark.parametrize("name", ["S4", "SL2_5", "SL25oC4", "D8oQ8"])
def test_center_and_kernels_hold_their_classes(cat, name):
    g = cat.group(name)
    cd = conjugacy_classes(g)
    central = [i for i, s in enumerate(cd.sizes) if s == 1]
    assert element_rows(center(g)) == class_rows(g, central)
    for chi in character_table(g).chars:
        assert element_rows(kernel_subgroup(g, chi)) == \
            class_rows(g, chi.kernel_classes)


def test_p_solvable_nonsolvable_cases(cat):
    psl27 = cat.group("PSL2_7")
    for p in (2, 3, 7):
        assert not is_p_solvable(psl27, p)
    for p in (5, 11, 13):
        assert is_p_solvable(psl27, p)
    assert not is_p_solvable(cat.group("A5xA5"), 2)
    assert is_p_solvable(cat.group("A5xA5"), 7)


def test_fusion_of_central_classes(cat):
    sl25 = cat.group("SL2_5")
    z = center(sl25)
    fusion = class_fusion(sl25, z)
    cd = conjugacy_classes(sl25)
    assert len(fusion) == 2
    assert all(cd.sizes[ci] == 1 for ci in fusion)


def test_exponent(a5):
    assert a5.exponent() == 30


def test_class_union(monkeypatch, s4):
    cd = conjugacy_classes(s4)
    sizes = list(zip(cd.orders, cd.sizes))
    v4 = [0, sizes.index((2, 3))]
    union = class_union(s4, v4)
    assert union.order == 4 and union.is_normal()
    # the transpositions generate S4, which is more than the 7 elements
    assert class_union(s4, [0, sizes.index((2, 6))]) is None
    # the sweep reads the rows of its classes, not every class's members:
    # C2 x S4's center makes fewer Permutations than C2 x S4 has elements
    c2_s4 = make(["(1 2 3 4)", "(1 2)", "(5 6)"], 6)
    conjugacy_classes(c2_s4)
    made = []
    trusted = Permutation._trusted.__func__

    def spy(cls, images):
        made.append(images)
        return trusted(cls, images)
    monkeypatch.setattr(Permutation, "_trusted", classmethod(spy))
    assert center(c2_s4).generators == (parse_cycles("(5 6)", 6),)
    assert 0 < len(made) < c2_s4.order


def test_table_build_makes_no_representatives():
    g = make(["(1 2 3 4 5)", "(1 2)"], 5)
    character_table(g)
    cd = conjugacy_classes(g)
    assert "reps" not in vars(cd)
    assert cd.num_classes == 7 and cd.reps[0].is_identity()


def test_class_bound_holds_for_cached_classes(monkeypatch):
    # the element enumeration refuses a group past the bound before any
    # classes are cached, and caches them once the group is within it
    s5 = make(["(1 2 3 4 5)", "(1 2)"], 5, "S5")
    for bound in (100, 119):
        monkeypatch.setattr(groups, "DEFAULT_ELEMENT_BOUND", bound)
        with pytest.raises(GroupTooLargeError, match="exceeds element bound"):
            conjugacy_classes(s5)
        assert s5._cache == {}
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_BOUND", 120)
    assert conjugacy_classes(s5).num_classes == 7
    assert conjugacy_classes(s5) is conjugacy_classes(s5)


@pytest.mark.parametrize("first, second", [(is_perfect, is_solvable),
                                           (is_solvable, is_perfect)])
def test_perfect_and_solvable_share_one_derived_series(monkeypatch, first,
                                                       second):
    formed = []
    commutator = groups.commutator_subgroup
    monkeypatch.setattr(groups, "commutator_subgroup",
                        lambda h: formed.append(h) or commutator(h))
    for gens, degree in ((["(1 2 3 4 5)", "(1 2 3)"], 5),
                         (["(1 2 3 4)", "(1 2)"], 4)):
        g = make(gens, degree)
        first(g)
        assert formed
        formed.clear()
        second(g)
        assert formed == []  # the second predicate forms no G'
        # plain ints: no subgroup, whose parent would point back at g
        assert all(type(o) is int for o in g._cache["derived_orders"])


def test_commutator_subgroup_matches_all_ordered_pairs():
    # [b, a] = [a, b]^-1 and [a, a] = 1: the pairs a before b have the
    # normal closure of all ordered pairs
    for gens, degree in ((["(1 2 3 4 5)", "(1 2)"], 5),
                         (["(1 2 3 4)", "(1 2)", "(5 6 7)", "(5 6)"], 7),
                         (["(1 2)(3 4)", "(1 3)(2 4)", "(1 2 3)"], 4)):
        g = make(gens, degree)
        everything = [a.inverse() * b.inverse() * a * b
                      for a in g.generators for b in g.generators]
        assert (commutator_subgroup(g).order
                == normal_closure(g, everything).order)


def _scale_group(name):
    path = Path(__file__).resolve().parents[1] / "tools" / "golden_tables.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scale_group(name)


def _relabelled(group):
    """The group with its points renamed by a shuffle from Random(1)."""
    points = list(range(group.degree))
    random.Random(1).shuffle(points)
    rename = Permutation(points)
    return Group([g.conjugate(rename) for g in group.generators],
                 group.degree)


A8 = (["(1 2 3 4 5 6 7)", "(6 7 8)"], 8)
M11 = (["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"], 11)


def test_classes_are_pinned(cat):
    # every ClassData below, and each class matrix of A5, M11 and A8, as
    # the element layer built them when this digest was recorded: class
    # numbering, representatives, power maps and Galois heads
    scale = [_scale_group(name) for name in ("S8", "M12", "C2^6", "C3^4")]
    with_matrices = [cat.group("A5"), make(*M11), make(*A8)]
    digest = hashlib.sha256()
    for group in [entry.group for entry in cat.load_all()] + scale + [
            _relabelled(g) for g in scale[:2]] + with_matrices:
        cd = conjugacy_classes(group)
        for array in (cd.element_index, cd.rep_rows, cd.galois_columns):
            digest.update(array.astype(np.int64).tobytes())
        digest.update(repr((cd.sizes, cd.orders, cd.power_class)).encode())
    for group in with_matrices:
        for i in range(conjugacy_classes(group).num_classes):
            digest.update(class_matrix(conjugacy_classes(group), i).tobytes())
    assert digest.hexdigest() == (
        "bdb248d2bfeeddab85930cbd781bc1c0ec4a1bb8e0e374da9b0516e1022a8df0")


def test_classes_of_m12_stay_within_their_memory():
    # the tracemalloc peak of conjugacy_classes on M12, its element rows
    # built first, was 5.34 MiB before the gathers became takes (CPython
    # 3.11, NumPy 2.4, x86-64 Linux); gathers in chunks of bsgs._RANK_ROWS
    # keep it there, where one take over all |G| rows converts its whole
    # index to intp (5.89 MiB)
    m12 = _scale_group("M12")
    m12.element_array()
    tracemalloc.start()
    try:
        conjugacy_classes(m12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 5.34 * 2**20
