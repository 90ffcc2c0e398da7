import json

import pytest

from chardeg.chars import character_table
from chardeg.checks import paper_check_suite, theorem_scan, transport_character
from chardeg.errors import ChardegError
from chardeg.groups import Group
from chardeg.perms import parse_cycles


@pytest.fixture(scope="module")
def paper_report(cat):
    return paper_check_suite(cat)


def test_paper_suite_all_pass(paper_report):
    failed = [c.id for c in paper_report.checks if not c.outcome]
    assert not failed, f"failed checks: {failed}"


def test_paper_suite_covers_key_values(paper_report):
    ids = {c.id for c in paper_report.checks}
    required = {
        "acd_A5", "acd_A6", "acd_SL25", "acde_SL25", "acde_odd_zero",
        "acd3_A5", "acd3p_SL25", "acd3p_A5", "acd_rel_SL25",
        "acd_over_3A6_lambda1", "acd_over_3A6_lambda2",
        "n1_SL25_rel", "n2_SL25_rel", "n4_SL25_rel", "n6_SL25_rel",
        "deg3_count_PSL27", "deg3_kernel_SL27", "deg3_kernel_6A6",
        "extend_A5_deg4", "extend_A5_deg5", "extend_PSL27_deg7",
        "gallagher_S5", "gallagher_PGL27",
        "lemma_cp_SL25oC4_lambda0", "lemma_cp_SL25oQ8_lambda0",
        "n2_identity_SL25oC4", "n4_bound_SL25oC4", "n6_bound_SL25oC4",
        "smallest_nonsolvable", "inequality_equiv",
    }
    assert required <= ids


def test_witnesses_are_exact(paper_report):
    by_id = {c.id: c for c in paper_report.checks}
    assert by_id["acd_A5"].witness == "16/5"
    assert by_id["acde_SL25"].witness == "18/5"
    assert by_id["acd_SL25"].witness == "10/3"
    assert by_id["acd_rel_SL25"].witness == "7/2"


def test_report_exit_status(paper_report):
    assert paper_report.exit_status() == 0
    assert paper_report.all_passed()


def test_report_json_schema(paper_report):
    payload = json.loads(paper_report.to_json())
    assert payload["schema"] == 1
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == len(paper_report.checks)
    for check in payload["checks"]:
        assert set(check) == {"id", "description", "anchor", "outcome",
                              "witness"}
        assert check["outcome"] in ("pass", "fail")


def test_report_deterministic(cat, paper_report):
    again = paper_check_suite(cat)
    assert again.to_json() == paper_report.to_json()
    assert again.to_text() == paper_report.to_text()


@pytest.mark.parametrize("mode,expected_boundary", [
    ("thmA", {"A5", "C2xA5"}),
    ("thmB", {"SL2_5", "SL25oC4"}),
    ("conj3p", {"SL2_5", "SL25oC4"}),
])
def test_threshold_scans(cat, mode, expected_boundary):
    report = theorem_scan(cat, mode)
    assert report.all_passed()
    assert len(report.checks) == len(cat.names())
    assert set(report.boundary) == expected_boundary


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_question_scans(cat, p):
    report = theorem_scan(cat, "question", p=p)
    assert report.all_passed()


def test_cs_scan(cat):
    report = theorem_scan(cat, "cs")
    assert report.all_passed()


def test_scan_mode_validation(cat):
    with pytest.raises(ChardegError):
        theorem_scan(cat, "nope")
    with pytest.raises(ChardegError):
        theorem_scan(cat, "question")  # missing p


def test_scan_reports_deterministic(cat):
    a = theorem_scan(cat, "thmA").to_json()
    b = theorem_scan(cat, "thmA").to_json()
    assert a == b


def test_transport_character_rejects_a_split_class():
    # the map sends S3's two 3-cycles to a 3-cycle and a transposition
    s3 = Group([parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)], 3)
    t = character_table(s3)
    swap = {parse_cycles("(1 3 2)", 3): parse_cycles("(1 2)", 3)}
    with pytest.raises(ChardegError, match="splits"):
        transport_character(t, t.principal(), s3, t,
                            lambda s: swap.get(s, s))
