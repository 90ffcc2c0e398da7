import pytest

from chardeg.corpusio import (Catalogue, parse_group_file,
                              serialize_group_spec)
from chardeg.errors import ParseError, ValidationError
from chardeg.groups import center, is_solvable


def test_parse_trivial():
    spec = parse_group_file("name C1\nperm 1\n")
    assert spec.name == "C1"
    assert spec.kind == "perm"
    assert spec.degree == 1
    assert spec.perm_gens == []


def test_parse_a5_with_expect():
    text = """# alternating group
name A5
perm 5
gen (1 2 3 4 5)
gen (1 2 3)
expect order 60
expect solvable false
"""
    spec = parse_group_file(text)
    assert spec.expect["order"] == 60
    assert spec.expect["solvable"] is False
    assert len(spec.perm_gens) == 2


def test_roundtrip_is_identity():
    text = """name SL2_5
mat 5 1 2
action vectors
gen 1 1 0 1
gen 2 0 0 3
gen 0 1 4 0
expect order 120
expect center 2
expect degrees 1,2,2,3,3,4,4,5,6
"""
    spec = parse_group_file(text)
    assert parse_group_file(serialize_group_spec(spec)) == spec


def test_roundtrip_all_bundled(cat):
    for name in cat.names():
        text = (cat.path / f"{name}.grp").read_text()
        spec = parse_group_file(text)
        assert parse_group_file(serialize_group_spec(spec)) == spec
        assert serialize_group_spec(spec) == text, name


def test_parse_error_has_line_number():
    with pytest.raises(ParseError) as err:
        parse_group_file("name X\nperm 5\ngen (1 2 3\n")
    assert "line 3" in str(err.value)


def test_parse_point_out_of_range():
    with pytest.raises(ParseError):
        parse_group_file("name X\nperm 3\ngen (1 4)\n")


def test_parse_unknown_directive():
    with pytest.raises(ParseError):
        parse_group_file("name X\nperm 2\nfrobnicate yes\n")


def test_missing_name():
    with pytest.raises(ParseError):
        parse_group_file("perm 3\ngen (1 2)\n")


def test_catalogue_names_sorted(cat):
    names = cat.names()
    assert names == sorted(names)
    assert len(names) >= 60


def test_catalogue_contents(cat):
    required = ["A5", "A6", "A7", "S3", "S4", "S5", "S6", "D8", "Q8", "A4",
                "SL2_5", "SL2_7", "PSL2_7", "PGL2_7", "2A6", "3A6", "6A6",
                "PSL2_11", "PSL2_13", "SL25oC4", "SL25oQ8"]
    for name in required:
        assert name in cat
    # all abelian groups of order <= 16
    abelian = [n for n in cat.names() if n.startswith("C") and
               is_solvable(cat.group(n)) and cat.group(n).is_abelian()]
    assert len(abelian) >= 25
    # at least 20 assorted nonabelian solvable entries
    solvable_nonabelian = [
        n for n in cat.names()
        if is_solvable(cat.group(n)) and not cat.group(n).is_abelian()]
    assert len(solvable_nonabelian) >= 20


def test_catalogue_key_orders(cat):
    assert cat.group("A5").order == 60
    assert cat.group("SL2_7").order == 336
    assert cat.group("6A6").order == 2160
    assert center(cat.group("6A6")).order == 6


def test_unknown_entry(cat):
    with pytest.raises(ValidationError):
        cat.group("NOPE")


def test_env_var_override(tmp_path, monkeypatch):
    (tmp_path / "T1.grp").write_text("name T1\nperm 2\ngen (1 2)\n"
                                     "expect order 2\n")
    monkeypatch.setenv("CHARDEG_CORPUS", str(tmp_path))
    cat = Catalogue()
    assert cat.names() == ["T1"]
    assert cat.group("T1").order == 2


def test_validation_failure_aborts(tmp_path):
    (tmp_path / "BAD.grp").write_text("name BAD\nperm 2\ngen (1 2)\n"
                                      "expect order 3\n")
    cat = Catalogue(tmp_path)
    with pytest.raises(ValidationError) as err:
        cat.group("BAD")
    assert "BAD" in str(err.value)


def test_name_must_match_stem(tmp_path):
    (tmp_path / "X.grp").write_text("name Y\nperm 1\n")
    with pytest.raises(ValidationError):
        Catalogue(tmp_path)


def test_expected_blocks_present_for_nonsolvable(cat):
    for entry in cat.load_all():
        if not is_solvable(entry.group):
            assert "order" in entry.spec.expect, entry.name
            assert entry.spec.expect.get("solvable") is False


def test_expected_degrees_validate(cat):
    # degree multisets recorded in the corpus match computed tables
    from chardeg.chars import character_table
    for entry in cat.load_all():
        expected = entry.spec.expect.get("degrees")
        if expected is None:
            continue
        assert tuple(character_table(entry.group).degrees()) == expected, \
            entry.name
