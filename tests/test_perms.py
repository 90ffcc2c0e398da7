import pytest

from chardeg.perms import Permutation, format_cycles, parse_cycles


def test_identity():
    p = Permutation.identity(4)
    assert p.is_identity()
    assert p.order() == 1
    assert format_cycles(p) == "()"


def test_composition_order():
    # (p * q) applies p first: 0 -> 1 under p, then 1 -> 2 under q
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert (p * q)[0] == 2
    assert (p * q).images == (2, 0, 1)
    assert (q * p).images == (1, 2, 0)


def test_inverse_and_power():
    p = parse_cycles("(1 2 3 4 5)", 5)
    assert (p * p.inverse()).is_identity()
    assert (p ** 5).is_identity()
    assert p ** -1 == p.inverse()
    assert p.order() == 5


def test_conjugate():
    p = parse_cycles("(1 2)", 4)
    g = parse_cycles("(1 3)", 4)
    assert p.conjugate(g) == parse_cycles("(2 3)", 4)


@pytest.mark.parametrize("text", ["(1 2 3)", "(1 2)(3 4)", "()",
                                  "(1 5)(2 4)", "(1 2 3 4 5)"])
def test_parse_format_roundtrip(text):
    p = parse_cycles(text, 5)
    assert parse_cycles(format_cycles(p), 5) == p


def test_parse_separators():
    assert parse_cycles("(1, 2, 3)", 3) == parse_cycles("(1 2 3)", 3)


@pytest.mark.parametrize("bad", ["(1 2", "(1 2 3)(", "1 2 3", "(0 1)",
                                 "(1 6)", "(1 1 2)", "", "(1 2)(1 2)",
                                 "(1 2 3)(3 1 2)"])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_cycles(bad, 5)


def test_not_a_permutation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_immutable_and_hashable():
    p = parse_cycles("(1 2)", 2)
    with pytest.raises(AttributeError):
        p.images = (0, 1)
    assert len({p, parse_cycles("(1 2)", 2)}) == 1


def test_cycles_start_at_least_point():
    p = parse_cycles("(3 5 4)(1 2)", 5)
    assert format_cycles(p) == "(1 2)(3 5 4)"
