import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from chardeg import cyclotomic
from chardeg.cli import main
from chardeg.groups import Group, is_p_solvable
from chardeg.invariants import DegreeFilter
from chardeg.perms import parse_cycles


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_acd_a5(capsys):
    code, out, _ = run(capsys, "acd", "A5")
    assert code == 0
    assert out.strip() == "16/5"


def test_acd_even_empty(capsys):
    code, out, _ = run(capsys, "acd", "C3", "--even")
    assert code == 0
    assert out.strip() == "0"


def test_acd_filters(capsys):
    assert run(capsys, "acd", "SL2_5", "--even")[1].strip() == "18/5"
    assert run(capsys, "acd", "SL2_5", "--coprime", "3")[1].strip() == "3"
    assert run(capsys, "acd", "A5", "--div", "3")[1].strip() == "3"


def test_acd_json(capsys):
    code, out, _ = run(capsys, "acd", "A5", "--json")
    assert code == 0
    assert json.loads(out) == {"group": "A5", "acd": "16/5"}


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "C2")
    assert code == 0
    assert "order 2" in out
    assert "degree 1" in out


def test_table_json_roundtrip(capsys):
    from chardeg.chars import TableData
    code, out, _ = run(capsys, "table", "A5", "--json")
    assert code == 0
    data = TableData.from_json(out.strip())
    assert data.order == 60
    assert [d for d, _ in data.characters] == [1, 3, 3, 4, 5]
    assert data.to_json() == out.strip()


def test_table_from_file(capsys, tmp_path):
    f = tmp_path / "K4.grp"
    f.write_text("name K4\nperm 4\ngen (1 2)(3 4)\ngen (1 3)(2 4)\n")
    code, out, _ = run(capsys, "table", str(f))
    assert code == 0
    assert "order 4" in out


def test_unknown_group_exits_2(capsys):
    code, _, err = run(capsys, "acd", "NO_SUCH_GROUP")
    assert code == 2
    assert "error" in err


def test_bad_file_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.grp"
    f.write_text("name bad\nperm 3\ngen (1 2\n")
    code, _, err = run(capsys, "table", str(f))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("header", ["mat 1 1 2", "mat 2 0 2", "mat 2 1 -1"])
def test_malformed_mat_header_exits_2(capsys, tmp_path, header):
    # p not prime, k < 1, n < 1: each named at its line, not a traceback
    f = tmp_path / "M.grp"
    f.write_text(f"name M\n{header}\ngen 1 0 0 1\n")
    code, out, err = run(capsys, "table", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: ") and err.count("\n") == 1


@pytest.mark.parametrize("body, message", [
    ("perm 3\ngen (1 2 3)\nperm 4", "second definition line: perm after perm"),
    ("perm 3\ngen (1 2 3)\nmat 2 1 2\ngen 1 1 0 1",
     "second definition line: mat after perm"),
    ("perm 3\ngen (1 2 3)\nname Y", "second name line"),
], ids=["perm-perm", "perm-mat", "name-name"])
def test_second_definition_line_exits_2(capsys, tmp_path, body, message):
    # one name and one definition line per file: a second one is named at
    # its line, neither a traceback nor a silently dropped generator
    f = tmp_path / "X.grp"
    f.write_text(f"name X\n{body}\n")
    assert run(capsys, "acd", str(f)) == (2, "", f"error: line 4: {message}\n")


@pytest.mark.parametrize("body, error", [
    ("perm 3\ngen (1 2 3)\naction projective\npoly 1 1\nzm perm (1 2)",
     "line 4: action line outside a mat group"),
    ("mat 3 1 2\npoly 1 0 1\npoly 2 0 1\ngen 1 1 0 1",
     "line 4: second poly line"),
    ("mat 3 1 2\naction vectors\naction projective\ngen 1 1 0 1",
     "line 4: second action line"),
    ("poly 1 0 1\nmat 3 1 2\ngen 1 1 0 1",
     "line 2: poly line outside a mat group"),
    ("perm 3\ngen (1 2 3)\nzm perm (1 2)",
     "line 4: zm line outside a central group"),
    ("direct C2 C2\nzc perm (1 2)", "line 3: zc line outside a central group"),
    ("central S4 S4\nepia (1 2)", "line 3: epia line outside a fiber group"),
    ("mat 2 1 2\ngen 1 1 0 1\nepib (1 2)",
     "line 4: epib line outside a fiber group"),
], ids=["action-in-perm", "poly-poly", "action-action", "poly-before-mat",
        "zm-in-perm", "zc-in-direct", "epia-in-central", "epib-in-mat"])
def test_foreign_or_repeated_line_exits_2(capsys, tmp_path, body, error):
    # a line of another kind of group, or a second poly or action line, is
    # named at its line, not dropped or let overwrite the first
    f = tmp_path / "X.grp"
    f.write_text(f"name X\n{body}\n")
    assert run(capsys, "acd", str(f)) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("body", [
    "mat 5 1 2\ngen 7 0 0 1",  # an entry of q or more
    "mat 3 2 2\ngen 1 0 0 -1",  # negative: not read as element 8 of F_9
    "fiber S4 S4 S3\nepia (1 2 9)\nepia (1 2)\nepib (1 2 3)\nepib (1 2)",
    "central S4 S4\nzm perm (1 9)\nzc perm (1 2)(3 4)",
    "central SL2_5 SL2_5\nzm mat 7 0 0 4\nzc mat 4 0 0 4",
    "central SL2_5 SL2_5\nzm mat 4 0 0 -1\nzc mat 4 0 0 4",
    "central SL2_5 SL2_5\nzm mat 4 x 0 4\nzc mat 4 0 0 4",
], ids=["gen-over-q", "gen-negative", "epia-point", "zm-perm-point",
        "zm-mat-over-q", "zm-mat-negative", "zm-mat-not-int"])
def test_malformed_payload_exits_2(capsys, tmp_path, body):
    # field entries outside 0..q-1 and points outside the acted-on set are
    # input errors, whether in a generator or in a product's payload
    f = tmp_path / "M.grp"
    f.write_text(f"name M\n{body}\n")
    code, out, err = run(capsys, "acd", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("body, message", [
    ("mat 5 1 2\ngen 0 0 0 0", "singular generator matrix"),
    ("central SL2_5 SL2_5\nzm mat 7 0 0 4\nzc mat 4 0 0 4",
     "matrix entries must lie in 0..4"),
    ("central S4 S4\nzm perm (1 9)\nzc perm (1 2)(3 4)",
     "perm '(1 9)': point 9 out of range 1..4"),
    ("fiber S4 S4 S3\nepia (1 2 9)\nepia (1 2)\nepib (1 2 3)\nepib (1 2)",
     "perm '(1 2 9)': point 9 out of range 1..3"),
    ("direct NOPE C2", "no catalogue entry named 'NOPE'"),
    ("perm 2\ngen (1 2)\nexpect center 1", "center order 2 != expected 1"),
    ("perm 5\ngen (1 2 3 4 5)\ngen (1 2 3)\nexpect perfect false",
     "perfect flag mismatch"),
    ("perm 3\ngen (1 2 3)\nexpect solvable false", "solvable flag mismatch"),
], ids=["gen-singular", "zm-mat", "zm-perm", "epia", "unknown-ref",
        "expect-center", "expect-perfect", "expect-solvable"])
def test_entry_error_names_the_entry(capsys, tmp_path, body, message):
    # an error raised while an entry is built or checked is one line that
    # names the entry once, and exits 2
    f = tmp_path / "M.grp"
    f.write_text(f"name M\n{body}\n")
    code, out, err = run(capsys, "acd", str(f))
    assert code == 2
    assert out == ""
    assert err == f"error: M: {message}\n"


def test_error_in_a_referenced_entry_names_that_entry(capsys, tmp_path):
    (tmp_path / "BADM.grp").write_text("name BADM\nmat 5 1 2\ngen 0 0 0 0\n")
    (tmp_path / "D.grp").write_text("name D\ndirect BADM BADM\n")
    (tmp_path / "E.grp").write_text("name E\ndirect D D\n")
    code, out, err = run(capsys, "acd", "E", "--corpus", str(tmp_path))
    assert code == 2
    assert err == "error: BADM: singular generator matrix\n"


@pytest.mark.parametrize("gen, message", [
    ("7 0 0 1", "matrix entries must lie in 0..4"),
    ("1 0 0", "generator matrix has wrong shape"),
], ids=["over-q", "short"])
def test_bad_matrix_generator_exits_2_at_its_line(capsys, tmp_path, gen,
                                                  message):
    # the mat line gives q and n, so a gen line's entries are checked where
    # they are read
    f = tmp_path / "X.grp"
    f.write_text(f"name X\nmat 5 1 2\ngen {gen}\n")
    assert run(capsys, "acd", str(f)) == (2, "", f"error: line 3: {message}\n")


def test_point_in_two_cycles_exits_2(capsys, tmp_path):
    # (1 2)(1 2) would read as (1 2) and (1 2 3)(3 1 2) as (1 2 3), not as
    # their products: a point in two cycles is refused, in a group file at
    # its line and in the generators of --mod
    f = tmp_path / "X.grp"
    f.write_text("name X\nperm 3\ngen (1 2)(1 2)\n")
    code, out, err = run(capsys, "acd", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3: ") and err.count("\n") == 1
    code, out, err = run(capsys, "acd", "A5", "--mod", "(1 2 3)(3 1 2)")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad generators ") and err.count("\n") == 1


@pytest.mark.parametrize("body", [
    "perm 70000\ngen (1 70000)",
    "mat 101 1 5\ngen " + " ".join("1" if i % 6 == 0 else "0"
                                    for i in range(25)),
    "mat 65537 1 2\ngen 1 0 0 1",
])
def test_degree_above_the_element_rows_exits_2(capsys, tmp_path, body):
    # element rows hold at most 2^16 points: a larger permutation degree,
    # or a matrix group acting on more vectors, is refused before the
    # chain, the field tables or the vector list is built
    f = tmp_path / "Big.grp"
    f.write_text(f"name Big\n{body}\n")
    code, out, err = run(capsys, "table", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "65536" in err


def test_field_with_oversized_tables_exits_2_before_building_them(
        capsys, tmp_path):
    # F_65521 in dimension 1 acts on 65520 points, within the element rows'
    # bound, but its q x q operation tables would hold 4.3e9 entries: the
    # field refuses them before anything is allocated
    f = tmp_path / "Big.grp"
    f.write_text("name Big\nmat 65521 1 1\ngen 3\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "table", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "65521" in err
    assert peak < 1 << 22


def test_oversized_field_degree_is_refused_before_p_to_the_k(tmp_path):
    # 3^(10^8) would take minutes to form: the mat header, the field and the
    # matrix action bound k first.  Run in a child process, so that a
    # regression times out instead of hanging the suite.
    f = tmp_path / "X.grp"
    f.write_text("name X\nmat 3 100000000 1\ngen 1\n")
    code = (
        "import sys\n"
        "from chardeg.cli import main\n"
        "from chardeg.constructions import (FiniteField, MatrixGroupSpec,\n"
        "                                   perm_from_matrix_group)\n"
        "from chardeg.errors import GroupTooLargeError\n"
        "spec = MatrixGroupSpec(p=3, k=10**8, n=1, generators=[(1,)])\n"
        "for build in (lambda: FiniteField(3, 10**8),\n"
        "              lambda: perm_from_matrix_group(spec)):\n"
        "    try:\n"
        "        build()\n"
        "    except GroupTooLargeError:\n"
        "        continue\n"
        "    sys.exit('not refused')\n"
        "sys.exit(main(['acd', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cyclotomic.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, str(f)], env=env,
                         capture_output=True, text=True, timeout=10)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error: line 2: field of order 3^100000000")
    assert out.stderr.count("\n") == 1


def test_parse_error_in_a_corpus_file_names_the_file(capsys, tmp_path):
    # the user named D, not the file that fails to parse: the error names it
    (tmp_path / "BADM.grp").write_text("name BADM\nmat 5 1 2\ngen 7 0 0 1\n")
    (tmp_path / "D.grp").write_text("name D\ndirect BADM BADM\n")
    code, out, err = run(capsys, "acd", "D", "--corpus", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: BADM.grp: line 3: matrix entries must lie in 0..4\n"


@pytest.mark.parametrize("first, second", [(6, 3), (3, 6)])
def test_repeated_expect_key_exits_2_at_its_line(capsys, tmp_path, first,
                                                 second):
    # a second value would overwrite the first without a word
    f = tmp_path / "X.grp"
    f.write_text(f"name X\nperm 3\ngen (1 2 3)\nexpect order {first}\n"
                 f"expect order {second}\n")
    assert run(capsys, "acd", str(f)) == (
        2, "", "error: line 5: second expect order line\n")


def test_acd_rel_mod(capsys):
    z = "(1 4)(2 3)(5 20)(6 24)(7 23)(8 22)(9 21)(10 15)(11 19)(12 18)(13 17)(14 16)"
    code, out, _ = run(capsys, "acd", "SL2_5", "--rel", z)
    assert code == 0
    assert out.strip() == "7/2"
    code, out, _ = run(capsys, "acd", "SL2_5", "--mod", z)
    assert code == 0
    assert out.strip() == "16/5"


def test_acd_rel_requires_normal(capsys):
    code, _, err = run(capsys, "acd", "S5", "--rel", "(1 2)")
    assert code == 2
    assert "normal" in err


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify", "paper")
    assert code == 0
    assert "checks passed" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0


def test_scan_cli(capsys):
    code, out, _ = run(capsys, "scan", "--check", "thmA")
    assert code == 0
    assert "boundary" in out
    code, out, _ = run(capsys, "scan", "--check", "question:7", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_scan_failure_exit_code(capsys, tmp_path):
    # a corpus whose only entry violates nothing still exits 0; force a
    # failing check by scanning a fake nonsolvable flag is not possible,
    # so check the argument error path instead
    code, _, err = run(capsys, "scan", "--check", "bogus")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["acd", "A5", "--div", "4"],
    ["acd", "A5", "--coprime", "1"],
    ["acd", "A5", "--rel", "(1_2)"],
    ["scan", "--check", "question:x"],
    ["scan", "--check", "question:4"],
    # primality by trial division would not finish on these
    ["acd", "A5", "--div", "99999999999999999999999"],
    ["scan", "--check", "question:99999999999999999989"],
])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_input_primes_past_2_31_are_refused_untested(capsys, tmp_path,
                                                    monkeypatch):
    # trial division runs to sqrt(p): every site that takes a prime from
    # outside refuses one past 2^31 before factoring it
    factors = cyclotomic._prime_factors

    def small_factors(n):
        if n >= 2**31:
            raise AssertionError(f"trial division of {n}")
        return factors(n)
    monkeypatch.setattr(cyclotomic, "_prime_factors", small_factors)
    big = 2**61 - 1  # a Mersenne prime
    with pytest.raises(ValueError, match="filter needs a prime p"):
        DegreeFilter("divisible", big)
    a5 = Group([parse_cycles(c, 5) for c in ("(1 2 3 4 5)", "(1 2 3)")], 5)
    with pytest.raises(ValueError, match=f"{big} is not a prime below 2"):
        is_p_solvable(a5, big)
    code, out, err = run(capsys, "acd", "A5", "--div", str(big))
    assert (code, out) == (2, "")
    assert err == f"error: --div needs a prime below 2^31, got {big}\n"
    f = tmp_path / "M.grp"
    f.write_text(f"name M\nmat {big} 1 2\ngen 1 0 0 1\n")
    code, out, err = run(capsys, "table", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: mat needs p k n with p a prime "
                          "below 2^31")


def test_expect_center_cyclic(capsys, tmp_path):
    # C2 x C2 is its own center; the center of D8 has order 2; C4 is its
    # own center: the flag is compared both ways
    f = tmp_path / "V.grp"
    f.write_text("name V\nperm 4\ngen (1 2)\ngen (3 4)\n"
                 "expect center_cyclic true\n")
    assert run(capsys, "acd", str(f)) == (
        2, "", "error: V: center is not cyclic\n")
    f.write_text("name V\nperm 4\ngen (1 2)\ngen (3 4)\n"
                 "expect center_cyclic false\n")
    assert run(capsys, "acd", str(f)) == (0, "1\n", "")
    f.write_text("name D8\nperm 4\ngen (1 2 3 4)\ngen (1 3)\n"
                 "expect center_cyclic true\n")
    assert run(capsys, "acd", str(f)) == (0, "6/5\n", "")
    f.write_text("name X\nperm 4\ngen (1 2 3 4)\n"
                 "expect center_cyclic false\n")
    assert run(capsys, "acd", str(f)) == (
        2, "", "error: X: center is cyclic\n")


def test_unreadable_input_exits_2(capsys, tmp_path):
    (tmp_path / "dir.grp").mkdir()
    latin1 = "name Caf\xe9\nperm 3\ngen (1 2 3)\n".encode("latin-1")
    (tmp_path / "latin1.grp").write_bytes(latin1)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "latin1.grp").write_bytes(latin1)
    for argv in (["table", str(tmp_path / "dir.grp")],
                 ["table", str(tmp_path / "latin1.grp")],
                 ["acd", "A5", "--corpus", str(corpus)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_no_command_shows_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out


def test_corpus_flag(capsys, tmp_path):
    (tmp_path / "T2.grp").write_text("name T2\nperm 3\ngen (1 2 3)\n"
                                     "expect order 3\nexpect solvable true\n")
    code, out, _ = run(capsys, "acd", "T2", "--corpus", str(tmp_path))
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "scan", "--check", "thmA",
                       "--corpus", str(tmp_path))
    assert code == 0
    assert "1/1 checks passed" in out


def test_perm_file_expect_lines_are_checked(capsys, tmp_path):
    f = tmp_path / "W3.grp"
    f.write_text("name W3\nperm 3\ngen (1 2 3)\nexpect order 7\n")
    code, out, err = run(capsys, "acd", str(f))
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert "expected 7" in err
