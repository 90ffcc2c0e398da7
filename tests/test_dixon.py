import pytest

from chardeg.chars import TableData, character_table
from chardeg.dixon import dixon_prime, primitive_root
from chardeg.groups import Group
from chardeg.perms import parse_cycles


def make(gens, degree, name=None):
    return Group([parse_cycles(s, degree) for s in gens], degree, name=name)


def test_dixon_prime_conditions():
    p = dixon_prime(60, 30)
    assert p % 30 == 1
    assert p * p > 4 * 60
    # smallest such prime
    assert p == 31


def test_primitive_root():
    assert primitive_root(31) == 3
    assert primitive_root(7) == 3
    assert primitive_root(2) == 1


def test_c2_table_exact():
    t = character_table(make(["(1 2)"], 2, "C2"))
    assert t.degrees() == [1, 1]
    values = [[v.rational() for v in c.values] for c in t.chars]
    assert values == [[1, -1], [1, 1]] or values == [[1, 1], [1, -1]]


@pytest.mark.parametrize("gens,degree,name,expected", [
    (["(1 2 3 4 5)", "(1 2 3)"], 5, "A5", [1, 3, 3, 4, 5]),
    (["(1 2 3 4)", "(1 2)"], 4, "S4", [1, 1, 2, 3, 3]),
    (["(1 2 3 4 5)", "(1 2)"], 5, "S5", [1, 1, 4, 4, 5, 5, 6]),
    (["(1 2 3 4 5)", "(4 5 6)"], 6, "A6", [1, 5, 5, 8, 8, 9, 10]),
    (["(1 2 3)"], 3, "C3", [1, 1, 1]),
])
def test_degrees(gens, degree, name, expected):
    t = character_table(make(gens, degree, name))
    assert t.degrees() == expected


def test_table_invariants_a5():
    t = character_table(make(["(1 2 3 4 5)", "(1 2 3)"], 5, "A5"))
    assert len(t.chars) == t.classes.num_classes
    assert sum(d * d for d in t.degrees()) == 60
    assert all(60 % d == 0 for d in t.degrees())
    # orthogonality is validated at construction; spot check one pair anyway
    from chardeg.chars import inner_product
    assert inner_product(t, t.chars[0], t.chars[0]) == 1
    assert inner_product(t, t.chars[0], t.chars[1]) == 0


def test_construction_deterministic():
    a = character_table(make(["(1 2 3 4 5)", "(1 2 3)"], 5, "A5"))
    b = character_table(make(["(1 2 3)", "(1 2 3 4 5)"], 5, "A5"))
    assert a.degrees() == b.degrees()
    for ca, cb in zip(a.chars, b.chars):
        assert ca.degree == cb.degree
        assert [v.coeffs for v in ca.values] == [v.coeffs for v in cb.values]
    assert a.to_data().to_json() == b.to_data().to_json()


def test_export_roundtrip_bit_exact():
    t = character_table(make(["(1 2 3 4 5)", "(1 2)"], 5, "S5"))
    text = t.to_data().to_json()
    assert TableData.from_json(text).to_json() == text


def test_identity_column_is_degree():
    t = character_table(make(["(1 2 3 4 5)", "(1 2 3)"], 5, "A5"))
    for c in t.chars:
        assert c.values[0].rational() == c.degree


def test_values_are_canonical_multiplicities():
    # the degree-3 characters of A5 at a 5-cycle have eigenvalue
    # multiplicities 1, zeta, zeta^-1 in some labeling
    t = character_table(make(["(1 2 3 4 5)", "(1 2 3)"], 5, "A5"))
    chi = [c for c in t.chars if c.degree == 3][0]
    five_class = [j for j in range(5) if t.classes.orders[j] == 5][0]
    mult = chi.values[five_class]
    assert mult.n == 5
    assert sum(mult.coeffs) == 3
    assert all(m >= 0 for m in mult.coeffs)


def test_gauss_sum_values_psl27(cat):
    # degree-3 characters of PSL2(7) at order-7 classes take the quadratic
    # Gauss sum values: the residue split {1,2,4} / {3,5,6} of zeta_7 powers
    t = character_table(cat.group("PSL2_7"))
    cd = t.classes
    seven = [j for j in range(cd.num_classes) if cd.orders[j] == 7]
    assert len(seven) == 2
    residues = (0, 1, 1, 0, 1, 0, 0)  # multiplicity at zeta_7^{1,2,4}
    non_residues = (0, 0, 0, 1, 0, 1, 1)
    for chi in t.chars:
        if chi.degree != 3:
            continue
        pair = {chi.values[j].coeffs for j in seven}
        assert pair == {residues, non_residues}


def test_size_bound_enforced(monkeypatch):
    from chardeg import groups
    from chardeg.errors import GroupTooLargeError
    from chardeg.groups import conjugacy_classes
    s5 = make(["(1 2 3 4 5)", "(1 2)"], 5, "S5")
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_BOUND", 100)
    with pytest.raises(GroupTooLargeError):
        conjugacy_classes(s5)


def test_dixon_prime_ceiling(monkeypatch):
    from chardeg import dixon
    from chardeg.dixon import dixon_prime
    from chardeg.errors import TableError
    monkeypatch.setattr(dixon, "DEFAULT_PRIME_CEILING", 20)
    with pytest.raises(TableError):
        dixon_prime(60, 30)
