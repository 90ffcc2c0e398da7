"""The element-array class data against a plain-Python reference.

The reference closes the generators under products, splits the elements
into classes by conjugating with every element, and counts class-matrix
entries one product at a time, all with Permutation arithmetic.
"""

import pytest

from chardeg.dixon import class_matrix
from chardeg.errors import GroupTooLargeError, NotMemberError
from chardeg.groups import ClassData, Group, conjugacy_classes
from chardeg.perms import Permutation, parse_cycles


def make(gens, degree):
    return Group([parse_cycles(s, degree) for s in gens], degree)


def agl1(p, a):
    """AGL(1, p) on the points 1..p: x -> x + 1 and x -> a*x."""
    shift = Permutation([(x + 1) % p for x in range(p)])
    scale = Permutation([a * x % p for x in range(p)])
    return Group([shift, scale], p)


def dihedral(n):
    """The dihedral group of order 2n on n points: x -> x + 1 and x -> -x."""
    rotation = Permutation([(x + 1) % n for x in range(n)])
    reflection = Permutation([-x % n for x in range(n)])
    return Group([rotation, reflection], n)


# C60 has element order 60 above its degree 12 and classes of every order
# dividing 60; D90's rotations are 45-cycles.  The power classes are read
# off one walk of the base points, so their orders and powers must come out
# right for every representative, not only the one of largest order.
GROUPS = {
    "A5": lambda: make(["(1 2 3 4 5)", "(1 2 3)"], 5),
    "S5": lambda: make(["(1 2 3 4 5)", "(1 2)"], 5),
    "AGL(1,17)": lambda: agl1(17, 3),
    "C60": lambda: make(["(1 2 3)(4 5 6 7)(8 9 10 11 12)"], 12),
    "D90": lambda: dihedral(45),
}
# degree 300, so rows are uint16 and points above 256 move
CYCLIC_300 = (["(1 2 3)(255 256 257 258)(299 300)"], 300)


def brute_elements(group):
    elements = {group.identity()}
    frontier = list(elements)
    while frontier:
        frontier = {x * g for x in frontier for g in group.generators}
        frontier -= elements
        elements |= frontier
    return elements


def brute_class_data(group):
    """(members, reps, sizes, orders, class_of) in the canonical order."""
    elements = sorted(brute_elements(group))
    classes, seen = [], set()
    for x in elements:
        if x not in seen:
            cls = sorted({x.conjugate(g) for g in elements})
            seen.update(cls)
            classes.append(cls)
    classes.sort(key=lambda c: (c[0].order(), len(c), c[0].images))
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    return (classes, [c[0] for c in classes], [len(c) for c in classes],
            [c[0].order() for c in classes], class_of)


def check_class_data(group):
    cd = conjugacy_classes(group)
    members, reps, sizes, orders, class_of = brute_class_data(group)
    assert cd.reps == reps
    assert cd.sizes == sizes
    assert cd.orders == orders
    assert cd.element_index.tolist() == [class_of[x]
                                         for x in group.elements()]
    assert all(cd.class_of(x) == i for x, i in class_of.items())
    assert cd.inverse_class == [class_of[r.inverse()] for r in reps]
    assert cd.power_class == [[class_of[r ** e] for e in range(n)]
                              for r, n in zip(reps, orders)]
    return cd, members, class_of


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_class_data_and_matrices_match_reference(name):
    cd, members, class_of = check_class_data(GROUPS[name]())
    r = cd.num_classes
    for i in range(r):
        expected = [[0] * r for _ in range(r)]
        for x in members[i]:
            for k, rep in enumerate(cd.reps):
                expected[class_of[x.inverse() * rep]][k] += 1
        assert class_matrix(cd, i).tolist() == expected


def test_uint16_class_data_matches_reference():
    group = make(*CYCLIC_300)
    cd, _, _ = check_class_data(group)
    assert cd.rows.dtype.name == "uint16"
    assert cd.num_classes == group.order == 12


def test_element_array_order_matches_elements():
    for build in GROUPS.values():
        group = build()
        rows = group.element_array()
        assert [tuple(row) for row in rows.tolist()] == \
            [e.images for e in group.elements()]
        assert set(group.elements()) == brute_elements(group)


def test_class_of_non_member():
    a5 = GROUPS["A5"]()
    cd = conjugacy_classes(a5)
    with pytest.raises(NotMemberError):
        cd.class_of(parse_cycles("(1 2)", 5))  # odd
    with pytest.raises(NotMemberError):
        cd.class_of(parse_cycles("(1 2 3)", 6))  # wrong degree
    big = conjugacy_classes(make(*CYCLIC_300))
    with pytest.raises(NotMemberError):
        big.class_of(parse_cycles("(1 3 2)(299 300)", 300))


def test_bound_guard_allocates_nothing():
    s12 = make(["(1 2 3 4 5 6 7 8 9 10 11 12)", "(1 2)"], 12)
    assert s12.order == 479001600
    with pytest.raises(GroupTooLargeError):
        s12.elements()
    with pytest.raises(GroupTooLargeError):
        s12.element_array()
    with pytest.raises(GroupTooLargeError):
        ClassData(s12)
    with pytest.raises(GroupTooLargeError):
        conjugacy_classes(s12)
    assert s12._cache == {}
