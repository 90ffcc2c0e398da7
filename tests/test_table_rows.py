"""A table character is one row of the lift's multiplicity array: the table
build and its JSON export read the rows and make no CycValue, nor do the
paper's check suite and corpus scan, ``values`` is sliced off the row on
first read, and ``_stack`` takes rows on one list of root orders as they
are and rejects rows on different ones.
"""

from fractions import Fraction

import numpy as np
import pytest

from cyclic_reference import as_character

from chardeg import chars, cli
from chardeg.chars import character_table, tensor
from chardeg.cyclotomic import CycValue
from chardeg.errors import TableError
from chardeg.groups import Group
from chardeg.invariants import acd
from chardeg.perms import parse_cycles

GROUPS = {
    "C2^6": (12, [f"({2 * i + 1} {2 * i + 2})" for i in range(6)]),
    "S8": (8, ["(1 2 3 4 5 6 7 8)", "(1 2)"]),
}


def assert_values_match_rows(table):
    """Each row's values against its JSON entry, and back onto its row."""
    exported = table.to_data().characters
    for chi, (degree, coefficients) in zip(table.chars, exported):
        assert degree == chi.degree
        assert [(v.n, list(v.coeffs)) for v in chi.values] == coefficients
        back = as_character(degree, chi.values)
        assert back.orders == list(chi.orders) == table.classes.orders
        assert back.row.tolist() == chi.row.tolist()


def count_cycvalues(monkeypatch) -> list:
    """A list that grows by one per CycValue constructed from now on."""
    made = []
    init = CycValue.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(CycValue, "__init__", counted)
    return made


@pytest.mark.parametrize("name", list(GROUPS))
def test_table_build_and_export_make_no_cycvalue(monkeypatch, name):
    made = count_cycvalues(monkeypatch)
    degree, cycles = GROUPS[name]
    group = Group([parse_cycles(c, degree) for c in cycles], degree)
    table = character_table(group)
    acd(table)
    table.to_data().to_json()
    assert len(made) == 0
    # every row a view of the one array the lift wrote
    assert len({id(chi.row.base) for chi in table.chars}) == 1
    assert_values_match_rows(table)
    assert len(made) == len(table.chars) * table.classes.num_classes


def test_paper_commands_make_no_cycvalue(monkeypatch, capsys):
    # each command loads a fresh catalogue, so no cached values hide a
    # construction: the Gallagher products and the restrictions are rows
    made = count_cycvalues(monkeypatch)
    assert cli.main(["verify", "paper"]) == 0
    assert cli.main(["scan", "--check", "question:7"]) == 0
    assert len(made) == 0


def test_values_match_rows_on_the_corpus(cat):
    for name in cat.names():
        assert_values_match_rows(character_table(cat.group(name)))


# -- _stack on mixed inputs -------------------------------------------------

@pytest.mark.parametrize("scale", [1, Fraction(1, 3), 2**64])
def test_stack_of_mixed_inputs_equals_stack_of_their_values(scale):
    # rows on the table's orders stack as they are, whatever their dtype;
    # a row with one value written over twice its root order is on other
    # orders, and everything that stacks rejects it, embedding nothing
    table = character_table(Group([parse_cycles("(1 2 3 4 5)", 5),
                                   parse_cycles("(1 2 3)", 5)], 5))
    rows = table.chars
    k = table.classes.orders.index(3)  # 3-elements: 6 divides exponent 30
    scaled = as_character(rows[2].degree, [
        CycValue(v.n, [scale * c for c in v.coeffs]) for v in rows[2].values])
    orders, coeffs = chars._stack([rows[0], scaled, rows[3]])
    assert orders == table.classes.orders
    assert coeffs.dtype == (np.int64 if scale == 1 else object)
    assert coeffs.tolist() == [rows[0].row.tolist(),
                               [scale * c for c in rows[2].row.tolist()],
                               rows[3].row.tolist()]
    if coeffs.dtype == object:  # Python numbers, not numpy scalars
        assert not any(isinstance(c, np.generic) for c in coeffs.ravel())
    doubled = as_character(rows[1].degree, [
        v.embed(2 * v.n) if j == k else v
        for j, v in enumerate(rows[1].values)])
    mixed = [rows[0], doubled, scaled]
    for stacks in (chars._stack, lambda fs: chars.equal(fs, fs),
                   lambda fs: chars._gram(table, fs, fs),
                   lambda fs: tensor(*fs[:2])):
        with pytest.raises(TableError, match="different classes"):
            stacks(mixed)
