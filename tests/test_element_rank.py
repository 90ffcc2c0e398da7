"""Element lookup by base images: StabilizerChain.rank against the row
order of element_array(), and the class data built on it against a
reference that sorts Permutation objects with sorted().
"""

import itertools

import numpy as np
import pytest

from chardeg import bsgs
from chardeg.dixon import class_matrix
from chardeg.errors import NotMemberError
from chardeg.groups import Group, center, conjugacy_classes, quotient_group
from chardeg.perms import Permutation, parse_cycles


def make(gens, degree, **kwargs):
    return Group([parse_cycles(s, degree) for s in gens], degree, **kwargs)


def agl1(p, a):
    """AGL(1, p) on the points 1..p: x -> x + 1 and x -> a*x."""
    shift = Permutation([(x + 1) % p for x in range(p)])
    scale = Permutation([a * x % p for x in range(p)])
    return Group([shift, scale], p)


GROUPS = {
    "trivial": lambda: Group([], 4),
    "A5": lambda: make(["(1 2 3 4 5)", "(1 2 3)"], 5),
    "M11": lambda: make(["(1 2 3 4 5 6 7 8 9 10 11)",
                         "(3 7 11 8)(4 10 5 6)"], 11),
    "AGL(1,17)": lambda: agl1(17, 3),
    # S4 on 1..4 with 5 and 6 fixed: the prefix puts trivial levels at
    # base[1] and base[3], between and after the moving ones
    "S4 prefix": lambda: make(["(1 2 3 4)", "(1 2)"], 6,
                              _base_prefix=(0, 4, 1, 5)),
    # degree 300, so rows are uint16 and points above 256 move
    "C12 degree 300": lambda: make(["(1 2 3)(255 256 257 258)(299 300)"],
                                   300),
}


def base_images(group):
    return group.element_array()[:, group.chain.base]


@pytest.mark.parametrize("name", list(GROUPS))
def test_rank_inverts_element_array(name):
    group = GROUPS[name]()
    images = base_images(group)
    assert np.array_equal(group.chain.rank(images), np.arange(group.order))


def test_shapes_of_the_trivial_and_prefixed_chains():
    trivial = GROUPS["trivial"]()
    assert trivial.chain.base == [] and base_images(trivial).shape == (1, 0)
    prefixed = GROUPS["S4 prefix"]()
    assert prefixed.chain.base[:4] == [0, 4, 1, 5]
    assert prefixed.chain.orbit_sizes[:4] == (4, 1, 3, 1)
    assert prefixed.order == 24
    big = GROUPS["C12 degree 300"]()
    assert big.element_array().dtype == np.uint16


@pytest.mark.parametrize("name", ["A5", "M11", "S4 prefix"])
def test_rank_keeps_leading_shape_and_chunks(name, monkeypatch):
    group = GROUPS[name]()
    images = base_images(group)
    order = np.random.default_rng(7).permutation(group.order)
    expected = order.reshape(2, -1)
    monkeypatch.setattr(bsgs, "_RANK_ROWS", 7)  # many chunks, a short last
    ranked = group.chain.rank(images[order].reshape(2, group.order // 2, -1))
    assert np.array_equal(ranked, expected)


@pytest.mark.parametrize("name", ["A5", "M11", "AGL(1,17)"])
def test_rank_of_products(name):
    # x * y built with Permutation arithmetic, looked up by its base images
    group = GROUPS[name]()
    rows = group.element_array()
    elements = group.elements()
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, group.order, (200, 2))
    products = np.array([(elements[i] * elements[j]).images
                         for i, j in pairs.tolist()], dtype=rows.dtype)
    ranked = group.chain.rank(products[:, group.chain.base])
    assert np.array_equal(rows[ranked], products)


# (_RANK_KEYS, _RANK_INVERSES): blocks of one level each, and one block for
# the whole base (the groups whose key table over all of it is small)
LAYOUTS = {"one level a block": (1, 1), "one block": (1 << 62, 1 << 62)}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("name", ["trivial", "A5", "M11", "AGL(1,17)",
                                  "S4 prefix"])
def test_rank_under_forced_block_layouts(name, layout, monkeypatch):
    keys, inverses = LAYOUTS[layout]
    monkeypatch.setattr(bsgs, "_RANK_KEYS", keys)
    monkeypatch.setattr(bsgs, "_RANK_INVERSES", inverses)
    group = GROUPS[name]()
    chain = group.chain
    moving = [i for i, n in enumerate(chain.orbit_sizes) if n > 1]
    blocks = [levels for levels, *_ in chain._rank_blocks]
    assert blocks == ([[i] for i in moving] if keys == 1
                      else [moving] if moving else [])
    assert np.array_equal(chain.rank(base_images(group)),
                          np.arange(group.order))
    rng = np.random.default_rng(5)
    junk = rng.integers(0, group.degree, (500, len(chain.base)))
    ranked = chain.rank(junk.astype(group.element_array().dtype))
    assert ((0 <= ranked) & (ranked < group.order)).all()
    outside = next(x for x in (Permutation(p.tolist()) for p in
                               rng.permuted(np.tile(np.arange(group.degree),
                                                    (100, 1)), axis=1))
                   if x not in group)
    with pytest.raises(NotMemberError):
        conjugacy_classes(group).class_of(outside)


def _class_data(group):
    cd = conjugacy_classes(group)
    return (cd.element_index.tolist(), cd.rep_rows.tolist(), cd.sizes,
            cd.orders, cd.power_class, cd.galois_columns.tolist(),
            [class_matrix(cd, i).tolist() for i in range(cd.num_classes)])


def _coset_action(cat):
    g = cat.group("SL25oC4")
    q = quotient_group(g, center(g))
    assert q.group.degree == 60  # the action on the cosets of Z, not orbits
    return [q.project(x).images for x in g.elements()]


def test_classes_and_cosets_under_forced_chunk_boundaries(cat, monkeypatch):
    # 13 divides none of the orders 7920, 20160 and 240, so every chunked
    # gather (conjugation images, rank, class matrices, coset names) ends
    # on a short chunk
    groups = [GROUPS["M11"], lambda: make(["(1 2 3 4 5 6 7)", "(6 7 8)"], 8)]
    expected = [_class_data(build()) for build in groups]
    cosets = _coset_action(cat)
    monkeypatch.setattr(bsgs, "_RANK_ROWS", 13)
    assert [_class_data(build()) for build in groups] == expected
    assert _coset_action(cat) == cosets


def sorted_class_data(group):
    """(reps, members) from sorted(): classes by (order, size, least
    member), members sorted by image tuple."""
    elements = sorted(group.elements(), key=lambda x: x.images)
    classes, seen = [], set()
    for x in elements:
        if x not in seen:
            cls = sorted({x.conjugate(g) for g in elements},
                         key=lambda y: y.images)
            seen.update(cls)
            classes.append(cls)
    classes = sorted(classes,
                     key=lambda c: (c[0].order(), len(c), c[0].images))
    return [c[0] for c in classes], classes


@pytest.mark.parametrize("name", list(GROUPS))
def test_reps_members_and_class_of_match_sorted(name):
    group = GROUPS[name]()
    cd = conjugacy_classes(group)
    reps, members = sorted_class_data(group)
    assert cd.reps == reps
    assert cd.sizes == [len(m) for m in members]
    for i, cls in enumerate(members):
        assert all(cd.class_of(x) == i for x in cls)
    class_of = {x: i for i, cls in enumerate(members) for x in cls}
    assert cd.element_index.tolist() == [class_of[x]
                                         for x in group.elements()]


def test_class_of_rejects_non_members():
    cd = conjugacy_classes(GROUPS["A5"]())
    with pytest.raises(NotMemberError):
        cd.class_of(parse_cycles("(1 2)", 5))  # odd
    with pytest.raises(NotMemberError):
        cd.class_of(parse_cycles("(1 2 3)", 6))  # wrong degree
    with pytest.raises(NotMemberError):
        conjugacy_classes(GROUPS["trivial"]()).class_of(
            parse_cycles("(1 2)", 4))



@pytest.mark.parametrize("name", ["A5", "S4 prefix"])
def test_class_of_decides_membership_over_the_symmetric_group(name):
    # base images outside a level's orbit still rank to some row, which
    # the lookup must then reject
    group = GROUPS[name]()
    cd = conjugacy_classes(group)
    class_of = dict(zip(group.elements(), cd.element_index.tolist()))
    for images in itertools.permutations(range(group.degree)):
        x = Permutation(images)
        if x in class_of:
            assert cd.class_of(x) == class_of[x]
        else:
            with pytest.raises(NotMemberError):
                cd.class_of(x)
