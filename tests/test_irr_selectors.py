"""The two Irr(G) selectors behind every average and count: ``irr`` (degree
filter, Irr(G/N), Irr(G|N)) and ``irr_over`` (Irr(G|theta))."""

import pytest

from cyclic_reference import as_character

from chardeg.chars import (character_table, inner_product,
                           kernel_classes_contain, restrict_character)
from chardeg.checks import transport_character
from chardeg.cyclotomic import CycValue
from chardeg.errors import ChardegError
from chardeg.groups import center
from chardeg.invariants import ALL, EVEN, DegreeFilter, acd, irr, irr_over


def lying_over_reference(group, n, n_table, theta):
    """Irr(G|theta) one character at a time: <chi_N, theta> > 0."""
    return [chi for chi in character_table(group).chars
            if inner_product(n_table, restrict_character(group, chi, n),
                             theta) > 0]


def assert_matches_reference(group, n, theta):
    n_table = character_table(n)
    got = irr_over(character_table(group), n, n_table, theta)
    assert got == lying_over_reference(group, n, n_table, theta)
    return got


@pytest.mark.parametrize("name", ["SL25oC4", "SL25oQ8"])
def test_irr_over_matches_reference_on_central_products(cat, name):
    cp = cat.entry(name).construction
    tz_g = character_table(cp.z_image)
    tz_m, tz_c = character_table(cp.z_m), character_table(cp.z_c)
    for lam in tz_g.chars:
        lam_m = transport_character(tz_g, lam, cp.z_m, tz_m, cp.embed_m)
        lam_c = transport_character(tz_g, lam, cp.z_c, tz_c, cp.embed_c)
        over = [assert_matches_reference(cp.group, cp.z_image, lam),
                assert_matches_reference(cp.m, cp.z_m, lam_m),
                assert_matches_reference(cp.c, cp.z_c, lam_c)]
        assert all(over)


def test_irr_over_matches_reference_on_3A6(cat):
    g = cat.group("3A6")
    z = center(g)
    sizes = [len(assert_matches_reference(g, z, lam))
             for lam in character_table(z).chars]
    # Irr(3.A6) splits over the three characters of the center
    assert sum(sizes) == len(character_table(g).chars)
    assert sorted(sizes) == [5, 5, 7]


def test_irr_over_rejects_a_reducible_theta(cat):
    g = cat.group("SL2_5")
    z = center(g)
    tz = character_table(z)
    doubled = as_character(2 * tz.chars[0].degree, [
        CycValue(n, [2 * c for c in coeffs])
        for n, coeffs in tz.chars[0]._coefficients()])
    with pytest.raises(ChardegError):
        irr_over(character_table(g), z, tz, doubled)


def test_quotient_and_relative_partition_irr(cat):
    g = cat.group("SL2_5")
    t = character_table(g)
    z = center(g)
    quotient = irr(t, modulo=z, mode="quotient")
    relative = irr(t, modulo=z, mode="relative")
    assert sorted(map(id, quotient + relative)) == sorted(map(id, t.chars))
    assert all(kernel_classes_contain(t, c, z) for c in quotient)
    assert not any(kernel_classes_contain(t, c, z) for c in relative)
    assert [c.degree for c in quotient] == [1, 3, 3, 4, 5]
    assert [c.degree for c in relative] == [2, 2, 4, 6]


def test_filter_and_subgroup_combine(cat):
    g = cat.group("SL2_5")
    t = character_table(g)
    z = center(g)
    assert irr(t) == list(t.chars) == irr(t, ALL)
    assert [c.degree for c in irr(t, EVEN)] == [2, 2, 4, 4, 6]
    assert [c.degree for c in irr(t, EVEN, modulo=z, mode="relative")] \
        == [2, 2, 4, 6]
    assert irr(t, DegreeFilter("divisible", 5), modulo=z,
               mode="relative") == []
    assert acd(t, EVEN).value * len(irr(t, EVEN)) == 18


def test_subgroup_without_mode_raises(cat):
    g = cat.group("SL2_5")
    t = character_table(g)
    with pytest.raises(ValueError):
        irr(t, modulo=center(g))
    with pytest.raises(ValueError):
        irr(t, modulo=center(g), mode="kernel")
