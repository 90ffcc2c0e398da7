"""Named verification checks and corpus-wide scans.

Every check evaluates one concrete arithmetic fact about the bundled groups
(an average-degree value, a degree count, a kernel containment, an
extendibility or correspondence statement) in exact arithmetic, and records
the claim plus an exact witness string.  Scans test a threshold implication
("average below the bound forces solvability") over the whole catalogue and
report boundary cases separately from violations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .chars import (Character, _on_classes, character_table, equal,
                    extensions_of)
from .corpusio import Catalogue
from .errors import ChardegError
from .groups import (Group, Subgroup, center, conjugacy_classes,
                     is_p_solvable, is_solvable)
from .invariants import (ALL, EVEN, DegreeFilter, RationalAverage, acd,
                         acd_over, acd_rel, format_rational, gallagher_check,
                         irr_over, n_d, theorem_A_inequality_equiv)

SCHEMA_VERSION = 1


@dataclass
class Check:
    id: str
    description: str
    anchor: str  # the exact claim, stated with the values involved
    outcome: bool
    witness: str

    def as_dict(self):
        return {"id": self.id, "description": self.description,
                "anchor": self.anchor,
                "outcome": "pass" if self.outcome else "fail",
                "witness": self.witness}


@dataclass
class Report:
    title: str
    checks: list[Check] = dc_field(default_factory=list)
    boundary: list[str] = dc_field(default_factory=list)

    def add(self, check: Check):
        self.checks.append(check)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.outcome)

    @property
    def failed(self) -> int:
        return len(self.checks) - self.passed

    def all_passed(self) -> bool:
        return self.failed == 0

    def exit_status(self) -> int:
        return 0 if self.all_passed() else 1

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.checks:
            status = "pass" if c.outcome else "FAIL"
            lines.append(f"[{status}] {c.id}: {c.anchor}  [{c.witness}]")
        if self.boundary:
            lines.append("boundary (equality) cases: "
                         + ", ".join(sorted(self.boundary)))
        lines.append(f"{self.passed}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "title": self.title,
            "checks": [c.as_dict() for c in self.checks],
            "boundary": sorted(self.boundary),
            "summary": {"total": len(self.checks), "passed": self.passed,
                        "failed": self.failed},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- helpers ------------------------------------------------------------------

def nonprincipal_chars(table) -> list[Character]:
    principal = table.principal()
    return [c for c in table.chars if c is not principal]


def transport_character(target_table, lam: Character, source_group,
                        source_table, element_map) -> Character:
    """The character of ``source_group`` whose value at every element s
    equals lam's value at element_map(s); unique when element_map is an
    isomorphism onto the target."""
    t_cd, s_cd = target_table.classes, source_table.classes
    # each element's target class once: one target class per source class
    pairs = sorted({(k, t_cd.class_of(element_map(s))) for s, k in zip(
        source_group.elements(), s_cd.element_index.tolist())})
    if len(pairs) != s_cd.num_classes:
        raise ChardegError("the identification splits a source class")
    hits = equal(_on_classes([lam], [b for _, b in pairs]),
                 source_table.chars)[0]
    if not hits.any():
        raise ChardegError("no matching character under the identification")
    return source_table.chars[hits.argmax()]


# -- the named check suite ----------------------------------------------------

def paper_check_suite(cat: Catalogue) -> Report:
    report = Report("paper value checks")
    add = report.add

    t_a5 = character_table(cat.group("A5"))
    t_a6 = character_table(cat.group("A6"))
    t_sl25 = character_table(cat.group("SL2_5"))

    v = acd(t_a5).value
    add(Check("acd_A5", "average character degree of A5",
              "acd(A5) = 16/5", v == Fraction(16, 5), format_rational(v)))
    v = acd(t_a6).value
    add(Check("acd_A6", "average character degree of A6",
              "acd(A6) = 46/7", v == Fraction(46, 7), format_rational(v)))
    v = acd(t_sl25).value
    add(Check("acd_SL25", "average character degree of SL2(5)",
              "acd(SL2(5)) = 10/3", v == Fraction(10, 3), format_rational(v)))

    v = acd(t_sl25, EVEN).value
    add(Check("acde_SL25", "average even character degree of SL2(5)",
              "acd_e(SL2(5)) = 18/5", v == Fraction(18, 5),
              format_rational(v)))

    odd_entries = [e for e in cat.load_all() if e.group.order % 2 == 1]
    bad = [e.name for e in odd_entries
           if acd(character_table(e.group), EVEN).value != 0]
    add(Check("acde_odd_zero",
              "even-degree average over odd-order groups (empty set)",
              "acd_e(G) = 0 for every odd-order catalogue group",
              not bad, f"{len(odd_entries)} odd-order groups"
              + (f", violations: {bad}" if bad else "")))

    for p, name in ((5, "A5"), (7, "PSL2_7"), (11, "PSL2_11"),
                    (13, "PSL2_13")):
        t = character_table(cat.group(name))
        v = acd(t, DegreeFilter("divisible", p)).value
        add(Check(f"acd{p}_{name}",
                  f"average degree divisible by {p} in {name}",
                  f"acd_{p}({name}) = {p}", v == p, format_rational(v)))

    v = acd(t_a5, DegreeFilter("divisible", 3)).value
    add(Check("acd3_A5", "average degree divisible by 3 in A5",
              "acd_3(A5) = 3", v == 3, format_rational(v)))

    v1 = acd(t_sl25, DegreeFilter("coprime", 3)).value
    v2 = acd(t_a5, DegreeFilter("coprime", 3)).value
    add(Check("acd3p_SL25", "average 3'-degree of SL2(5)",
              "acd_3'(SL2(5)) = 3", v1 == 3, format_rational(v1)))
    add(Check("acd3p_A5", "average 3'-degree of A5",
              "acd_3'(A5) = 10/3", v2 == Fraction(10, 3), format_rational(v2)))
    add(Check("acd3p_order", "3'-averages separate SL2(5) from A5",
              "acd_3'(SL2(5)) < acd_3'(A5)", v1 < v2,
              f"{format_rational(v1)} < {format_rational(v2)}"))

    # relative averages over the center of SL2(5)
    sl25 = cat.group("SL2_5")
    z = center(sl25)
    tz = character_table(z)
    v = acd_rel(t_sl25, z).value
    add(Check("acd_rel_SL25", "average degree over Irr(SL2(5)|Z)",
              "acd(SL2(5)|Z) = 7/2 = (2+2+4+6)/4",
              v == Fraction(7, 2), format_rational(v)))
    for lam in nonprincipal_chars(tz):
        v = acd_over(t_sl25, z, tz, lam).value
        add(Check("acd_over_SL25_lambda",
                  "average degree over the faithful central character",
                  "acd(SL2(5)|lambda) = 7/2", v == Fraction(7, 2),
                  format_rational(v)))

    # relative averages over the center of 3.A6
    g3a6 = cat.group("3A6")
    t3a6 = character_table(g3a6)
    z3 = center(g3a6)
    tz3 = character_table(z3)
    lams = nonprincipal_chars(tz3)
    add(Check("center_3A6", "central characters of 3.A6",
              "Z(3.A6) has exactly 2 nonprincipal characters",
              len(lams) == 2, f"{len(lams)} nonprincipal"))
    for i, lam in enumerate(lams):
        v = acd_over(t3a6, z3, tz3, lam).value
        add(Check(f"acd_over_3A6_lambda{i + 1}",
                  "average degree over a nonprincipal central character",
                  "acd(3.A6|lambda) = 36/5 = (3+3+6+9+15)/5",
                  v == Fraction(36, 5), format_rational(v)))
    v = acd_rel(t3a6, z3).value
    add(Check("acd_rel_3A6", "average degree over Irr(3.A6|Z)",
              "acd(3.A6|Z) = 36/5", v == Fraction(36, 5), format_rational(v)))

    # relative degree counts n_d(SL2(5)|Z)
    for d, expected in ((1, 0), (2, 2), (4, 1), (6, 1)):
        got = n_d(t_sl25, d, modulo=z, mode="relative")
        add(Check(f"n{d}_SL25_rel", f"number of degree-{d} characters of "
                  "SL2(5) not containing Z in the kernel",
                  f"n_{d}(SL2(5)|Z) = {expected}", got == expected, str(got)))

    # degree-2 and degree-3 facts for the simple groups in the corpus
    simple_names = ["A5", "A6", "A7", "PSL2_7", "PSL2_11", "PSL2_13"]
    deg2 = {name: n_d(character_table(cat.group(name)), 2)
            for name in simple_names}
    add(Check("no_deg2_simple",
              "simple groups have no irreducible character of degree 2",
              "n_2(S) = 0 for the simple catalogue groups",
              all(v == 0 for v in deg2.values()), str(deg2)))
    deg3 = {name: n_d(character_table(cat.group(name)), 3)
            for name in simple_names}
    with3 = sorted(name for name, v in deg3.items() if v > 0)
    add(Check("deg3_simple_only",
              "which simple catalogue groups have a degree-3 character",
              "exactly A5 and PSL2(7) have degree-3 characters",
              with3 == ["A5", "PSL2_7"], str(deg3)))
    add(Check("deg3_count_PSL27", "degree-3 count in PSL2(7)",
              "PSL2(7) has exactly two degree-3 characters",
              deg3["PSL2_7"] == 2, str(deg3["PSL2_7"])))

    # 2k degree-3 characters in a product of k copies of A5
    n3_a5 = n_d(t_a5, 3)
    n3_a5x2 = n_d(character_table(cat.group("A5xA5")), 3)
    add(Check("deg3_A5_powers", "degree-3 counts in A5 and A5 x A5",
              "n_3(A5^k) = 2k for k = 1, 2",
              n3_a5 == 2 and n3_a5x2 == 4, f"k=1: {n3_a5}, k=2: {n3_a5x2}"))

    # kernel facts: central involutions inside every degree-3 kernel
    t_sl27 = character_table(cat.group("SL2_7"))
    z27 = center(cat.group("SL2_7"))
    add(Check("deg3_kernel_SL27",
              "kernels of the degree-3 characters of SL2(7)",
              "every degree-3 character of SL2(7) has the center "
              "in its kernel",
              n_d(t_sl27, 3, modulo=z27, mode="relative") == 0,
              f"{n_d(t_sl27, 3)} degree-3 characters"))

    g6a6 = cat.group("6A6")
    t6a6 = character_table(g6a6)
    z2_in_6a6 = _central_subgroup_of_order(g6a6, 2)
    add(Check("deg3_kernel_6A6",
              "kernels of the degree-3 characters of 6.A6",
              "every degree-3 character of 6.A6 has the central "
              "involution in its kernel",
              n_d(t6a6, 3, modulo=z2_in_6a6, mode="relative") == 0,
              f"{n_d(t6a6, 3)} degree-3 characters"))
    n3_2a6 = n_d(character_table(cat.group("2A6")), 3)
    add(Check("deg3_2A6", "degree-3 characters of 2.A6",
              "2.A6 has no degree-3 character", n3_2a6 == 0, str(n3_2a6)))

    # extendibility from A5 to S5 and from PSL2(7) to PGL2(7)
    s5 = cat.group("S5")
    a5_sub = Subgroup(s5, cat.group("A5").generators)
    t_a5sub = character_table(a5_sub)
    for d in (4, 5):
        theta = next(c for c in t_a5sub.chars if c.degree == d)
        exts = extensions_of(s5, a5_sub, theta)
        add(Check(f"extend_A5_deg{d}", f"extensions of the degree-{d} "
                  "character of A5 to S5",
                  f"the degree-{d} character of A5 extends to S5",
                  len(exts) > 0, f"{len(exts)} extensions"))

    pgl27 = cat.group("PGL2_7")
    psl_sub = Subgroup(pgl27, cat.group("PSL2_7").generators)
    t_pslsub = character_table(psl_sub)
    for d in (7, 8):
        theta = next(c for c in t_pslsub.chars if c.degree == d)
        exts = extensions_of(pgl27, psl_sub, theta)
        label = "Steinberg (degree 7)" if d == 7 else f"degree-{d}"
        add(Check(f"extend_PSL27_deg{d}", f"extensions of the {label} "
                  "character of PSL2(7) to PGL2(7)",
                  f"the degree-{d} character of PSL2(7) extends to PGL2(7)",
                  len(exts) > 0, f"{len(exts)} extensions"))

    # Gallagher correspondence on the two extension pairs
    theta5 = next(c for c in t_a5sub.chars if c.degree == 5)
    psi = extensions_of(s5, a5_sub, theta5)[0]
    res = gallagher_check(s5, a5_sub, psi)
    t_s5 = character_table(s5)
    deg5_rows = [c for c in t_s5.chars if c.degree == 5]
    matched = equal(res.products, deg5_rows).any(axis=1).all()
    add(Check("gallagher_S5", "multiplication by the degree-5 extension",
              "beta -> beta*psi maps Irr(S5/A5) onto the two degree-5 "
              "characters of S5",
              res.passed and matched and len(res.products) == 2,
              "; ".join(res.details)))

    theta7 = next(c for c in t_pslsub.chars if c.degree == 7)
    psi7 = extensions_of(pgl27, psl_sub, theta7)[0]
    res = gallagher_check(pgl27, psl_sub, psi7)
    add(Check("gallagher_PGL27", "multiplication by the Steinberg extension",
              "beta -> beta*psi is injective from Irr(PGL2(7)/PSL2(7))",
              res.passed, "; ".join(res.details)))

    # central products: the multiplicativity lemma and its counting form
    for name in ("SL25oC4", "SL25oQ8"):
        _central_product_checks(cat, name, report)

    # counting identities in SL2(5) o C4
    _counting_identities_SL25oC4(cat, report)

    # smallest nonsolvable order over the corpus
    small = [e.name for e in cat.load_all()
             if e.group.order < 60 and not is_solvable(e.group)]
    add(Check("smallest_nonsolvable", "orders below 60 are solvable",
              "every catalogue group of order < 60 is solvable",
              not small, f"violations: {small}" if small else "none below 60"))

    # the threshold inequality restatement is an identity
    bad = [e.name for e in cat.load_all()
           if not theorem_A_inequality_equiv(character_table(e.group))]
    add(Check("inequality_equiv",
              "acd < 16/5 matches its degree-count restatement",
              "the 16/5 inequality equivalence holds on every "
              "catalogue group", not bad, f"violations: {bad}" if bad else
              f"{len(cat.names())} groups"))

    return report


def _central_subgroup_of_order(g: Group, order: int) -> Subgroup:
    """The subgroup generated by the first central class of the given
    element order."""
    cd = conjugacy_classes(g)
    for rep, size, o in zip(cd.reps, cd.sizes, cd.orders):
        if size == 1 and o == order:
            return Subgroup(g, [rep])
    raise ChardegError(f"no central element of order {order}")


def _central_product_checks(cat: Catalogue, name: str, report: Report):
    entry = cat.entry(name)
    cp = entry.construction
    tg = character_table(cp.group)
    tm = character_table(cp.m)
    tc = character_table(cp.c)
    tz_g = character_table(cp.z_image)
    tz_m = character_table(cp.z_m)
    tz_c = character_table(cp.z_c)

    for i, lam in enumerate(tz_g.chars):
        lam_m = transport_character(tz_g, lam, cp.z_m, tz_m, cp.embed_m)
        lam_c = transport_character(tz_g, lam, cp.z_c, tz_c, cp.embed_c)
        # degree multisets of Irr(G|lambda), Irr(M|lambda), Irr(C|lambda)
        n_g, n_m, n_c = (
            Counter(c.degree for c in irr_over(t, z, tz, mu))
            for t, z, tz, mu in ((tg, cp.z_image, tz_g, lam),
                                 (tm, cp.z_m, tz_m, lam_m),
                                 (tc, cp.z_c, tz_c, lam_c)))
        vg, vm, vc = (RationalAverage.of(n.elements()).value
                      for n in (n_g, n_m, n_c))
        report.add(Check(
            f"lemma_cp_{name}_lambda{i}",
            f"central product multiplicativity in {name}",
            "acd(G|lambda) = acd(M|lambda) * acd(C|lambda)",
            vg == vm * vc, f"{format_rational(vg)} = {format_rational(vm)} "
            f"* {format_rational(vc)}"))

        # counting refinement over each nonprincipal lambda
        if lam is tz_g.principal():
            continue
        rhs = {d: sum(k * n_c[d // d1] for d1, k in n_m.items() if d % d1 == 0)
               for d in sorted(n_g)}
        details = [f"n_{d}: {n_g[d]}={r}" for d, r in rhs.items()]
        count_g, count_mc = n_g.total(), n_m.total() * n_c.total()
        ok = all(n_g[d] == r for d, r in rhs.items()) and count_g == count_mc
        report.add(Check(
            f"counting_cp_{name}_lambda{i}",
            f"degree-counting refinement in {name}",
            "n_d(G|lambda) = sum over d1*d2=d of "
            "n_d1(M|lambda)*n_d2(C|lambda)",
            ok, ", ".join(details) + f"; |Irr(G|lambda)|: {count_g}={count_mc}"))


def _counting_identities_SL25oC4(cat: Catalogue, report: Report):
    entry = cat.entry("SL25oC4")
    cp = entry.construction
    g = cp.group
    tg = character_table(g)
    z = cp.z_image
    tz = character_table(z)
    n1_g = n_d(tg, 1)
    n2_g = n_d(tg, 2)
    n4_g = n_d(tg, 4)
    n6_g = n_d(tg, 6)
    # n_2(C/Z): classes of C4 / C2 , i.e. characters of C with Z in kernel
    tc = character_table(cp.c)
    n2_c_mod_z = n_d(tc, 2, modulo=cp.z_c, mode="quotient")
    n2_rel = n_d(tg, 2, modulo=z, mode="relative")
    checks = [
        ("n2_identity_SL25oC4", "n_2(G) = n_2(C/Z) + 2 n_1(G)",
         n2_g == n2_c_mod_z + 2 * n1_g,
         f"{n2_g} = {n2_c_mod_z} + 2*{n1_g}"),
        ("n2_rel_SL25oC4", "n_2(G|Z) = 2 n_1(G)",
         n2_rel == 2 * n1_g, f"{n2_rel} = 2*{n1_g}"),
        ("n4_bound_SL25oC4", "n_4(G) >= 2 n_1(G)",
         n4_g >= 2 * n1_g, f"{n4_g} >= 2*{n1_g}"),
        ("n6_bound_SL25oC4", "n_6(G) >= 2 n_2(G) - 3 n_1(G)",
         n6_g >= 2 * n2_g - 3 * n1_g, f"{n6_g} >= 2*{n2_g}-3*{n1_g}"),
    ]
    for cid, anchor, ok, witness in checks:
        report.add(Check(cid, "degree counting in SL2(5) o C4", anchor, ok,
                         witness))


# -- corpus scans -------------------------------------------------------------

def theorem_scan(cat: Catalogue, mode: str, p: int | None = None) -> Report:
    """Scan the catalogue for violations of one implication.

    thmA:     acd(G) < 16/5         implies G solvable
    thmB:     acd_e(G) < 18/5       implies G solvable
    conj3p:   acd_3'(G) < 3         implies G solvable
    question: 3*acd(G)^2 < p^2      implies G p-solvable
    cs:       acd(G) <= |G| / (sum of degrees), unconditionally

    An average equal to its mode's threshold is a boundary case; question
    has none, its threshold p/sqrt(3) being irrational.
    """
    if mode == "question" and p is None:
        raise ChardegError("question scan needs a prime p")
    scans = {
        "thmA": _implication("acd(G) < 16/5 implies G solvable", ALL,
                             Fraction(16, 5)),
        "thmB": _implication("acd_e(G) < 18/5 implies G solvable", EVEN,
                             Fraction(18, 5)),
        "conj3p": _implication("acd_3'(G) < 3 implies G solvable",
                               DegreeFilter("coprime", 3), Fraction(3)),
        "question": _implication(
            f"3*acd(G)^2 < {p}^2 implies G {p}-solvable", ALL, None,
            lambda v: 3 * v * v < p * p, lambda g: is_p_solvable(g, p)),
        "cs": _cauchy_schwarz,
    }
    if mode not in scans:
        raise ChardegError(f"unknown scan mode {mode!r}")
    title = f"scan question p={p}" if mode == "question" else f"scan {mode}"
    report = Report(title)
    for entry in cat.load_all():
        check, boundary = scans[mode](title.replace(" ", "_"), entry.name,
                                      entry.group,
                                      character_table(entry.group))
        report.add(check)
        if boundary:
            report.boundary.append(entry.name)
    return report


def _implication(claim: str, filt: DegreeFilter, threshold: Fraction | None,
                 holds=None, conclusion=is_solvable):
    """The scan of ``claim``, "a hypothesis on the average over ``filt``
    implies a conclusion on G": a function of (report label, group name,
    group, table) returning the group's Check and whether its average equals
    the threshold.  ``holds`` decides the hypothesis; by default the average
    lies below the threshold."""
    holds = holds or (lambda v: v < threshold)

    def check(label, name, g, t):
        value = acd(t, filt).value
        hypothesis = holds(value)
        ok = not hypothesis or conclusion(g)
        witness = f"value {format_rational(value)}, " + (
            f"hypothesis holds, conclusion {'holds' if ok else 'FAILS'}"
            if hypothesis else "hypothesis vacuous")
        return (Check(f"{label}_{name}", f"scan of {name}", claim, ok,
                      witness), value == threshold)
    return check


def _cauchy_schwarz(label, name, g, t):
    """The cs scan's Check for one group, never a boundary case."""
    value, degree_sum = acd(t).value, sum(t.degrees())
    return (Check(f"cs_{name}", "Cauchy-Schwarz bound",
                  "acd(G) <= |G|/(sum of degrees)",
                  value * degree_sum <= g.order,
                  f"{format_rational(value)} <= {g.order}/{degree_sum}"),
            False)
