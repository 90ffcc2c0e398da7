"""Every row of a large abelian table is a homomorphism, checked from the
group itself rather than from the engine that built the table.

An abelian group's irreducible characters are its homomorphisms to C^*.
For each table row chi, each generator x and each element y, chi(xy) must
equal chi(x) * chi(y): xy comes from group multiplication.  Each value of
a linear character is one root of unity zeta_n^i, so its multiplicities
are one-hot at i, and the product is the sum of the exponents i e/n of
zeta_e, mod e.  The Gram check cannot see a table whose columns are
permuted; this check does.
"""

import random

import numpy as np
import pytest

from chardeg.chars import character_table
from chardeg.groups import Group
from chardeg.perms import parse_cycles

GROUPS = {
    "C2^7": (14, [f"({2 * i + 1} {2 * i + 2})" for i in range(7)]),
    "C3^4": (12, [f"({3 * i + 1} {3 * i + 2} {3 * i + 3})" for i in range(4)]),
}


def exponent(n, coeffs, e) -> int:
    """k with zeta_e^k the value whose multiplicities over zeta_n are the
    one-hot coeffs."""
    (i,) = np.flatnonzero(coeffs)
    assert coeffs[i] == 1
    return int(i) * e // n


def non_homomorphic_rows(table, rows) -> int:
    """How many of the rows ((n, coefficients) per class of the table) fail
    chi(xy) = chi(x) * chi(y) somewhere."""
    group, cd, e = table.group, table.classes, table.exponent
    exps = np.array([[exponent(n, c, e) for n, c in row] for row in rows])
    elements = group.elements()
    classes = [cd.class_of(y) for y in elements]
    bad = np.zeros(len(rows), dtype=bool)
    for x in group.generators:
        products = [cd.class_of(x * y) for y in elements]
        cx = cd.class_of(x)
        bad |= ((exps[:, products] - exps[:, [cx]] - exps[:, classes]) % e
                ).any(axis=1)
    return int(bad.sum())


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_every_row_is_a_homomorphism(name):
    degree, cycles = GROUPS[name]
    group = Group([parse_cycles(c, degree) for c in cycles], degree, name=name)
    table = character_table(group)
    assert table.degrees() == [1] * group.order
    rows = [c._coefficients() for c in table.chars]
    assert non_homomorphic_rows(table, rows) == 0


def test_a_table_with_permuted_columns_fails(cat):
    # C2^4's rows with the 15 non-identity class columns shuffled still
    # pass the Gram check, but are not the characters of C2^4
    table = character_table(cat.group("C2x2x2x2"))
    order = list(range(1, 16))
    random.Random(1).shuffle(order)
    rows = [c._coefficients() for c in table.chars]
    fake = [[row[0]] + [row[k] for k in order] for row in rows]
    assert non_homomorphic_rows(table, fake) > 0
