"""Every row of a large abelian table is a homomorphism, checked from the
group itself rather than from the engine that built the table.

An abelian group's irreducible characters are its homomorphisms to C^*.
For each table row chi, each generator x and each element y, chi(xy) must
equal chi(x) * chi(y): xy comes from group multiplication, the product from
exact CycValue arithmetic, and all differences are reduced to the power
basis of Q(zeta_e) in one call.  The Gram check cannot see a table whose
columns are permuted; this check does.
"""

import random

import numpy as np
import pytest

from chardeg.chars import character_table
from chardeg.cyclotomic import reduce_to_power_basis
from chardeg.groups import Group
from chardeg.perms import parse_cycles

GROUPS = {
    "C2^7": (14, [f"({2 * i + 1} {2 * i + 2})" for i in range(7)]),
    "C3^4": (12, [f"({3 * i + 1} {3 * i + 2} {3 * i + 3})" for i in range(4)]),
}


def non_homomorphic_rows(table, rows) -> int:
    """How many of the rows (value lists over the table's classes) fail
    chi(xy) = chi(x) * chi(y) somewhere."""
    group, cd, e = table.group, table.classes, table.exponent
    elements = group.elements()
    classes = [cd.class_of(y) for y in elements]
    diffs = []
    for x in group.generators:
        cx = cd.class_of(x)
        for y, cy in zip(elements, classes):
            cxy = cd.class_of(x * y)
            diffs.append([(row[cxy] - row[cx] * row[cy]).embed(e).coeffs
                          for row in rows])
    reduced = reduce_to_power_basis(np.array(diffs, dtype=np.int64), e)
    return int(reduced.any(axis=(0, 2)).sum())


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_every_row_is_a_homomorphism(name):
    degree, cycles = GROUPS[name]
    group = Group([parse_cycles(c, degree) for c in cycles], degree, name=name)
    table = character_table(group)
    assert table.degrees() == [1] * group.order
    assert non_homomorphic_rows(table, [c.values for c in table.chars]) == 0


def test_a_table_with_permuted_columns_fails(cat):
    # C2^4's rows with the 15 non-identity class columns shuffled still
    # pass the Gram check, but are not the characters of C2^4
    table = character_table(cat.group("C2x2x2x2"))
    order = list(range(1, 16))
    random.Random(1).shuffle(order)
    fake = [[c.values[0]] + [c.values[k] for k in order] for c in table.chars]
    assert non_homomorphic_rows(table, fake) > 0
