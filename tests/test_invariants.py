from collections import Counter
from fractions import Fraction

import pytest

from chardeg.chars import character_table
from chardeg.errors import ChardegError
from chardeg.groups import Group, Subgroup, center
from chardeg.invariants import (EVEN, DegreeFilter, RationalAverage,
                                acd, acd_over, acd_rel, degrees,
                                format_rational, n_d,
                                theorem_A_inequality_equiv)
from chardeg.perms import parse_cycles


def make(gens, degree, name=None):
    return Group([parse_cycles(s, degree) for s in gens], degree, name=name)


def test_degree_filter_validation():
    with pytest.raises(ValueError):
        DegreeFilter("divisible")  # missing prime
    with pytest.raises(ValueError):
        DegreeFilter("coprime", 6)  # not a prime
    with pytest.raises(ValueError):
        DegreeFilter("weird")


def test_rational_average_empty():
    avg = RationalAverage.of([])
    assert avg.value == 0
    assert avg.count == 0
    assert str(avg) == "0"


def test_format_rational():
    assert format_rational(Fraction(16, 5)) == "16/5"
    assert format_rational(Fraction(3)) == "3"


def test_degrees_multiset(cat):
    t = character_table(cat.group("A5"))
    assert degrees(t) == Counter({1: 1, 3: 2, 4: 1, 5: 1})
    trivial = character_table(make([], 1, "C1"))
    assert degrees(trivial) == Counter({1: 1})


def test_degrees_a6_sum(cat):
    t = character_table(cat.group("A6"))
    assert sum(t.degrees()) == 46
    assert len(t.degrees()) == 7


def test_acd_values(cat):
    assert acd(character_table(cat.group("A5"))).value == Fraction(16, 5)
    assert acd(character_table(cat.group("A6"))).value == Fraction(46, 7)
    t = character_table(cat.group("SL2_5"))
    assert acd(t).value == Fraction(10, 3)
    assert acd(t, EVEN).value == Fraction(18, 5)
    assert acd(t, DegreeFilter("coprime", 3)).value == 3
    assert acd(character_table(cat.group("A5")),
               DegreeFilter("divisible", 3)).value == 3


def test_acd_empty_filter_is_zero(cat):
    t = character_table(cat.group("C15"))
    avg = acd(t, EVEN)
    assert avg.value == 0
    assert avg.count == 0


def test_n_d_modes(cat):
    sl25 = cat.group("SL2_5")
    t = character_table(sl25)
    z = center(sl25)
    for d in set(t.degrees()):
        total = n_d(t, d)
        quo = n_d(t, d, modulo=z, mode="quotient")
        rel = n_d(t, d, modulo=z, mode="relative")
        assert total == quo + rel
    assert n_d(t, 1, modulo=z, mode="relative") == 0
    assert n_d(t, 2, modulo=z, mode="relative") == 2
    assert n_d(t, 4, modulo=z, mode="relative") == 1
    assert n_d(t, 6, modulo=z, mode="relative") == 1
    with pytest.raises(ValueError):
        n_d(t, 2, modulo=z)


def test_acd_rel(cat):
    sl25 = cat.group("SL2_5")
    t = character_table(sl25)
    z = center(sl25)
    assert acd_rel(t, z).value == Fraction(7, 2)
    # trivial N: empty relative set, returns 0 and warns
    trivial = Subgroup(sl25, [])
    with pytest.warns(UserWarning, match="trivial subgroup"):
        avg = acd_rel(t, trivial)
    assert avg.value == 0 and avg.count == 0


def test_acd_rel_whole_group(cat):
    a5 = cat.group("A5")
    t = character_table(a5)
    whole = Subgroup(a5, list(a5.generators))
    # characters with G in the kernel: only the principal one
    assert acd_rel(t, whole).value == Fraction(3 + 3 + 4 + 5, 4)


def test_acd_over(cat):
    s5 = cat.group("S5")
    t = character_table(s5)
    a5 = Subgroup(s5, [parse_cycles("(1 2 3 4 5)", 5),
                       parse_cycles("(1 2 3)", 5)])
    ta5 = character_table(a5)
    theta4 = [c for c in ta5.chars if c.degree == 4][0]
    assert acd_over(t, a5, ta5, theta4).value == 4
    one = ta5.principal()
    # Irr(G|1_N) are the characters of G/N; for N = A5 that's {1, sgn}
    assert acd_over(t, a5, ta5, one).value == 1


def test_acd_over_self(cat):
    a5 = cat.group("A5")
    t = character_table(a5)
    whole = Subgroup(a5, list(a5.generators))
    tw = character_table(whole)
    one = tw.principal()
    assert acd_over(t, whole, tw, one).value == 1


def test_acd_over_requires_irreducible(cat):
    from chardeg.chars import Character
    s5 = cat.group("S5")
    t = character_table(s5)
    a5 = Subgroup(s5, [parse_cycles("(1 2 3 4 5)", 5),
                       parse_cycles("(1 2 3)", 5)])
    ta5 = character_table(a5)
    # the sum of two characters is the sum of their multiplicity rows
    a, b = ta5.chars[:2]
    reducible = Character(a.degree + b.degree, a.orders, a.row + b.row)
    with pytest.raises(ChardegError):
        acd_over(t, a5, ta5, reducible)


def test_acd_multiplicative_on_products(cat):
    pairs = [("A5", "A5", "A5xA5"), ("C2", "A5", "C2xA5"),
             ("C3", "S3", "C3xS3"), ("C2", "A4", "C2xA4")]
    for a, b, ab in pairs:
        va = acd(character_table(cat.group(a))).value
        vb = acd(character_table(cat.group(b))).value
        vab = acd(character_table(cat.group(ab))).value
        assert vab == va * vb


def test_inequality_equivalence(cat):
    for name in ("A5", "C2", "SL2_7", "S4", "PSL2_7", "SL2_5"):
        t = character_table(cat.group(name))
        assert theorem_A_inequality_equiv(t)


def test_acd_divisible_zero_when_p_misses(cat):
    # p not dividing any degree gives the empty average
    t = character_table(cat.group("S4"))
    assert acd(t, DegreeFilter("divisible", 7)).value == 0
    for name in ("A5", "S4", "Q8"):
        g = cat.group(name)
        t = character_table(g)
        for p in (7, 11, 13):
            if g.order % p:
                assert acd(t, DegreeFilter("divisible", p)).value == 0


def test_cauchy_schwarz_sample(cat):
    for name in ("A5", "SL2_5", "S5", "Q8", "C12"):
        g = cat.group(name)
        t = character_table(g)
        assert acd(t).value * sum(t.degrees()) <= g.order
