"""Acceptance criteria, one test per criterion.

All equalities are exact rational equalities (no tolerances); the timing
assertions use the stated wall-clock budgets.  Each test prints its own
pass line so a `pytest -s` run reads as a checklist.
"""

import time
from fractions import Fraction

from cyclic_reference import cyclic_product

from chardeg import Catalogue
from chardeg.chars import character_table, inner_product, kernel_classes_contain
from chardeg.checks import nonprincipal_chars, paper_check_suite, theorem_scan
from chardeg.cyclotomic import CycValue
from chardeg.groups import (Group, center, minimal_normal_subgroups,
                            quotient_group)
from chardeg.invariants import EVEN, DegreeFilter, acd, acd_over, n_d
from chardeg.oracle import verify_against_oracle
from chardeg.perms import parse_cycles


def report(criterion, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'pass' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok


def test_criterion_1_basic_averages_and_a5_speed(cat):
    ok = acd(character_table(cat.group("A5"))).value == Fraction(16, 5)
    ok &= acd(character_table(cat.group("A6"))).value == Fraction(46, 7)
    ok &= acd(character_table(cat.group("SL2_5"))).value == Fraction(10, 3)
    # fresh group, so nothing is cached, then time the table
    fresh = Group([parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)],
                  5, name="A5")
    start = time.perf_counter()
    character_table(fresh)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 0.1
    report(1, ok, f"A5 table in {elapsed:.4f}s")


def test_criterion_2_even_average(cat):
    ok = acd(character_table(cat.group("SL2_5")), EVEN).value == Fraction(18, 5)
    odd = [e for e in cat.load_all() if e.group.order % 2 == 1]
    assert odd
    for entry in odd:
        avg = acd(character_table(entry.group), EVEN)
        ok &= avg.value == 0 and avg.count == 0
    report(2, ok, f"{len(odd)} odd-order groups")


def test_criterion_3_divisible_averages(cat):
    ok = True
    for p, name in ((5, "A5"), (7, "PSL2_7"), (11, "PSL2_11"),
                    (13, "PSL2_13")):
        value = acd(character_table(cat.group(name)),
                    DegreeFilter("divisible", p)).value
        ok &= value == p
    ok &= acd(character_table(cat.group("A5")),
              DegreeFilter("divisible", 3)).value == 3
    report(3, ok)


def test_criterion_4_coprime_averages(cat):
    ok = acd(character_table(cat.group("SL2_5")),
             DegreeFilter("coprime", 3)).value == 3
    ok &= acd(character_table(cat.group("A5")),
              DegreeFilter("coprime", 3)).value == Fraction(10, 3)
    report(4, ok)


def test_criterion_5_relative_averages(cat):
    sl25 = cat.group("SL2_5")
    z = center(sl25)
    tz = character_table(z)
    ok = True
    lams = nonprincipal_chars(tz)
    assert len(lams) == 1
    for lam in lams:
        ok &= acd_over(character_table(sl25), z, tz, lam).value == \
            Fraction(7, 2)
    g3 = cat.group("3A6")
    z3 = center(g3)
    tz3 = character_table(z3)
    lams3 = nonprincipal_chars(tz3)
    assert len(lams3) == 2
    for lam in lams3:
        ok &= acd_over(character_table(g3), z3, tz3, lam).value == \
            Fraction(36, 5)
    report(5, ok)


def test_criterion_6_central_product_lemma(cat):
    from chardeg.checks import Report, _central_product_checks
    rep = Report("lemma cp")
    for name in ("SL25oC4", "SL25oQ8"):
        _central_product_checks(cat, name, rep)
    ok = rep.all_passed() and len(rep.checks) >= 6
    report(6, ok, f"{len(rep.checks)} identities checked")


def test_criterion_7_kernel_facts(cat):
    ok = True
    sl27 = cat.group("SL2_7")
    t27 = character_table(sl27)
    z27 = center(sl27)
    deg3 = [c for c in t27.chars if c.degree == 3]
    ok &= len(deg3) == 2
    ok &= all(kernel_classes_contain(t27, c, z27) for c in deg3)

    g6 = cat.group("6A6")
    t6 = character_table(g6)
    z6 = center(g6)
    involution = next(e for e in z6.elements() if e.order() == 2)
    z2 = g6.subgroup([involution])
    deg3 = [c for c in t6.chars if c.degree == 3]
    ok &= len(deg3) > 0
    ok &= all(kernel_classes_contain(t6, c, z2) for c in deg3)

    t25 = character_table(cat.group("SL2_5"))
    z25 = center(cat.group("SL2_5"))
    for d, expected in ((1, 0), (2, 2), (4, 1), (6, 1)):
        ok &= n_d(t25, d, modulo=z25, mode="relative") == expected
    report(7, ok)


def test_criterion_8_scans(cat):
    start = time.perf_counter()
    ok = True
    for mode, boundary_member in (("thmA", "A5"), ("thmB", "SL2_5"),
                                  ("conj3p", "SL2_5")):
        rep = theorem_scan(cat, mode)
        ok &= rep.all_passed()
        ok &= boundary_member in rep.boundary
    for p in (2, 3, 5, 7, 11, 13):
        ok &= theorem_scan(cat, "question", p=p).all_passed()
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300
    report(8, ok, f"scans in {elapsed:.1f}s")


def test_criterion_9_property_suite(cat):
    ok = True
    entries = cat.load_all()
    for entry in entries:
        g = entry.group
        t = character_table(g)
        cd = t.classes
        r = cd.num_classes
        ok &= len(t.chars) == r
        ok &= sum(d * d for d in t.degrees()) == g.order
        ok &= all(g.order % d == 0 for d in t.degrees())
        # exact row orthogonality, all pairs
        for i in range(r):
            for j in range(i, r):
                expected = Fraction(1 if i == j else 0)
                ok &= inner_product(t, t.chars[i], t.chars[j]) == expected
        # exact column orthogonality, all pairs, one product at a time
        rows = [chi._coefficients() for chi in t.chars]
        for a in range(r):
            for b in range(a, r):
                prods = [cyclic_product(row[a], row[b], conjugate=True)
                         for row in rows]
                total = [sum(c) for c in zip(*(p for _, p in prods))]
                expected = cd.centralizer_order(a) if a == b else 0
                ok &= CycValue(prods[0][0], total).rational() == expected
        # Cauchy-Schwarz
        ok &= acd(t).value * sum(t.degrees()) <= g.order
        assert ok, f"property suite failed at {entry.name}"

    # quotient-degrees consistency for every minimal normal subgroup
    for entry in entries:
        g = entry.group
        t = character_table(g)
        for n in minimal_normal_subgroups(g):
            kernel_degrees = sorted(
                c.degree for c in t.chars if kernel_classes_contain(t, c, n))
            q = quotient_group(g, n)
            ok &= kernel_degrees == character_table(q.group).degrees()
            assert ok, f"quotient degrees failed at {entry.name}"

    # timing: 6.A6 table from scratch
    fresh_cat = Catalogue()
    g6 = fresh_cat.group("6A6")
    start = time.perf_counter()
    character_table(g6)
    table_time = time.perf_counter() - start
    ok &= table_time < 30

    # timing: verify paper end to end on a fresh catalogue
    start = time.perf_counter()
    rep = paper_check_suite(Catalogue())
    verify_time = time.perf_counter() - start
    ok &= rep.all_passed()
    ok &= verify_time < 60
    report(9, ok, f"6A6 table {table_time:.1f}s, verify paper "
           f"{verify_time:.1f}s")


def test_criterion_10_oracle_equivalence(cat):
    small = [e for e in cat.load_all() if e.group.order <= 24]
    assert len(small) >= 40
    for entry in small:
        verify_against_oracle(entry.group, character_table(entry.group))
    report(10, True, f"{len(small)} groups of order <= 24")
