"""The modular core's pieces against slower references kept here.

The references are the straightforward algorithms the array passes in
``chardeg.dixon`` replace: a batched singularity test at every t in F_p for
the eigenvalues, a nullspace brought to canonical RREF by a second
elimination, and a per-character degree search and Fourier loop for the
lift.
"""

from math import lcm

import numpy as np
import pytest

from chardeg import dixon
from chardeg.dixon import (central_character_vectors, class_matrix,
                           dixon_prime, eigenvalues_mod, lift_character,
                           nullspace_mod, primitive_root, rref_mod)
from chardeg.groups import Group, conjugacy_classes
from chardeg.perms import parse_cycles

GROUPS = {
    "A5": (5, ["(1 2 3 4 5)", "(1 2 3)"]),
    "S5": (5, ["(1 2 3 4 5)", "(1 2)"]),
    "M11": (11, ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]),
}


def make(name):
    degree, gens = GROUPS[name]
    return Group([parse_cycles(s, degree) for s in gens], degree, name=name)


def cyclic(*cycle_lengths):
    """The cyclic group generated by disjoint cycles of the given lengths."""
    cycles, start = [], 1
    for n in cycle_lengths:
        cycles.append("(" + " ".join(map(str, range(start, start + n))) + ")")
        start += n
    return Group([parse_cycles("".join(cycles), start - 1)], start - 1)


def modular_data(group):
    cd = conjugacy_classes(group)
    p = dixon_prime(group.order, lcm(*cd.orders))
    return cd, p, primitive_root(p)


# -- references ---------------------------------------------------------------

def singular_values_reference(m, p, inv):
    """All t in F_p with det(m - t*I) = 0, via one batched elimination."""
    size = m.shape[0]
    ts = np.arange(p, dtype=np.int64)
    a = np.broadcast_to(m % p, (p, size, size)).copy()
    diag = np.arange(size)
    a[:, diag, diag] = (a[:, diag, diag] - ts[:, None]) % p
    singular = np.zeros(p, dtype=bool)
    for col in range(size):
        sub = a[:, col:, col]
        nonzero = sub != 0
        has_pivot = nonzero.any(axis=1)
        singular |= ~has_pivot
        idx = np.where(has_pivot & ~singular)[0]
        if idx.size == 0:
            continue
        pivot_rows = col + np.argmax(nonzero[idx], axis=1)
        swap_needed = pivot_rows != col
        sw = idx[swap_needed]
        if sw.size:
            pr = pivot_rows[swap_needed]
            tmp = a[sw, pr, :].copy()
            a[sw, pr, :] = a[sw, col, :]
            a[sw, col, :] = tmp
        if col + 1 < size:
            piv_inv = inv[a[idx, col, col]]
            below = a[idx, col + 1:, col]
            factors = below * piv_inv[:, None] % p
            a[idx, col + 1:, :] = (
                a[idx, col + 1:, :] - factors[:, :, None] * a[idx, None, col, :]
            ) % p
    return [int(t) for t in np.where(singular)[0]]


def nullspace_reference(a, p, inv):
    """Canonical basis (RREF rows) of the right nullspace of a mod p."""
    reduced, pivots = rref_mod(a, p, inv)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for bi, f in enumerate(free):
        basis[bi, f] = 1
        for ri, c in enumerate(pivots):
            basis[bi, c] = (-int(reduced[ri, f])) % p
    reduced_basis, _ = rref_mod(basis, p, inv)
    return reduced_basis


def degree_reference(w, cd, p):
    """chi(1) from one row of central character values, by trial roots."""
    total = 0
    for k in range(cd.num_classes):
        h_inv = pow(cd.sizes[k], p - 2, p)
        total = (total + int(w[k]) * int(w[cd.inverse_class[k]]) * h_inv) % p
    assert total
    d_squared = cd.group.order % p * pow(total, p - 2, p) % p
    for d in range(1, p // 2 + 1):
        if d * d % p == d_squared:
            return d
    raise AssertionError("no square root")


def lift_reference(w, degree, cd, p, z):
    """Multiplicity vectors of one character, class by class."""
    r = cd.num_classes
    chi_p = [degree * int(w[k]) % p * pow(cd.sizes[k], p - 2, p) % p
             for k in range(r)]
    values = []
    for k in range(r):
        n = cd.orders[k]
        theta = pow(z, (p - 1) // n, p)
        theta_inv = pow(theta, p - 2, p)
        n_inv = pow(n, p - 2, p)
        powers = [pow(theta_inv, e, p) for e in range(n)]
        mult = []
        for j in range(n):
            s = 0
            for l in range(n):
                s += chi_p[cd.power_class[k][l]] * powers[j * l % n]
            mult.append(s % p * n_inv % p)
        values.append((n, tuple(mult)))
    return values


# -- eigenvalues ----------------------------------------------------------------

def random_matrices(rng, p):
    """Dense, sparse (zero pivots in the Hessenberg reduction), triangular,
    scalar and conjugated block-diagonal matrices with repeated
    eigenvalues."""
    out = [np.zeros((3, 3), dtype=np.int64), 5 * np.eye(4, dtype=np.int64),
           np.array([[7]])]
    for m in range(1, 9):
        out.append(rng.integers(0, p, (m, m)))
        out.append(rng.integers(0, p, (m, m)) * (rng.random((m, m)) < 0.3))
        out.append(np.triu(rng.integers(0, p, (m, m))))
        diag = rng.integers(0, 3, m)
        lower = np.tril(rng.integers(0, p, (m, m)), -1) + np.eye(m, dtype=int)
        lower_inv = rref_mod(np.hstack([lower, np.eye(m, dtype=int)]), p,
                             dixon._inverse_table(p))[0][:, m:]
        block = np.diag(diag) + np.diag(rng.integers(0, 2, m - 1), 1)
        out.append(lower @ block % p @ lower_inv % p)
    return [np.asarray(a, dtype=np.int64) % p for a in out]


@pytest.mark.parametrize("p", [5, 31, 61, 211])
def test_eigenvalues_match_singularity_scan_random(p):
    rng = np.random.default_rng(p)
    inv = dixon._inverse_table(p)
    for a in random_matrices(rng, p):
        assert eigenvalues_mod(a, p, inv) == singular_values_reference(a, p, inv)


def recorded_actions(monkeypatch, group):
    """Every matrix the split hands to eigenvalues_mod for this group."""
    seen = []
    original = dixon.eigenvalues_mod

    def spy(a, p, inv):
        seen.append(a.copy())
        return original(a, p, inv)
    monkeypatch.setattr(dixon, "eigenvalues_mod", spy)
    cd, p, _ = modular_data(group)
    central_character_vectors(cd, p)
    monkeypatch.undo()
    return cd, p, seen


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_eigenvalues_match_singularity_scan_on_class_matrices(monkeypatch,
                                                              name):
    cd, p, actions = recorded_actions(monkeypatch, make(name))
    assert actions
    actions += [class_matrix(cd, i) % p for i in range(cd.num_classes)]
    inv = dixon._inverse_table(p)
    for a in actions:
        assert eigenvalues_mod(a, p, inv) == singular_values_reference(a, p, inv)


@pytest.mark.parametrize("gens,degree", [
    (["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8),
    (["(1 2 3)", "(4 5 6)", "(7 8 9)"], 9),
    (["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8),
])
def test_no_eigenvalue_search_where_a_matrix_acts_as_a_scalar(monkeypatch,
                                                              gens, degree):
    # in groups with central elements, some class matrices act on a
    # partly split space as scalars; those must be passed over
    group = Group([parse_cycles(s, degree) for s in gens], degree)
    _, _, actions = recorded_actions(monkeypatch, group)
    for a in actions:
        assert not np.array_equal(a, a[0, 0] * np.eye(len(a), dtype=np.int64))


def formed_and_splitting(monkeypatch, group):
    """The classes whose matrices the split forms, in order, and the set of
    those whose matrix it hands to eigenvalues_mod."""
    formed, splitting = [], set()
    original_matrix, original_eigenvalues = (dixon.class_matrix,
                                             dixon.eigenvalues_mod)

    def matrix_spy(cd, i):
        formed.append(i)
        return original_matrix(cd, i)

    def eigenvalues_spy(a, p, inv):
        splitting.add(formed[-1])
        return original_eigenvalues(a, p, inv)
    monkeypatch.setattr(dixon, "class_matrix", matrix_spy)
    monkeypatch.setattr(dixon, "eigenvalues_mod", eigenvalues_spy)
    cd, p, _ = modular_data(group)
    central_character_vectors(cd, p)
    monkeypatch.undo()
    return formed, splitting


@pytest.mark.parametrize("gens,degree,count", [
    (["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8, 4),
    (["(1 2 3)", "(4 5 6)", "(7 8 9)"], 9, 3),
    (["(1 2 3 4)", "(5 6 7 8)", "(9 10)"], 10, 5),
    (["(1 2 3 4)(5 6 7)(8 9 10 11 12)"], 12, 4),
])
def test_abelian_split_forms_only_matrices_that_split(monkeypatch, gens,
                                                      degree, count):
    # C2^4, C3^3, C4 x C4 x C2 and C60: every class is central, so a class
    # that is a product of classes used is never formed (C4 x C4 x C2
    # formed 12 matrices and C60 6 before the skip)
    group = Group([parse_cycles(s, degree) for s in gens], degree)
    formed, splitting = formed_and_splitting(monkeypatch, group)
    assert len(formed) == len(set(formed)) == count
    assert set(formed) == splitting


@pytest.mark.parametrize("name,count", [("2A6", 7), ("6A6", 7), ("Q16", 4)])
def test_split_skips_products_of_central_and_used_classes(monkeypatch, cat,
                                                          name, count):
    # groups with a nontrivial center (11, 27 and 5 matrices before)
    formed, _ = formed_and_splitting(monkeypatch, cat.group(name))
    assert len(formed) == count


# -- nullspaces -------------------------------------------------------------------

@pytest.mark.parametrize("p", [7, 61])
def test_nullspace_single_rref_spans_the_reference(p):
    rng = np.random.default_rng(p)
    inv = dixon._inverse_table(p)
    for rows, cols, rank in [(4, 4, 2), (5, 7, 3), (6, 6, 6), (3, 5, 0),
                             (8, 8, 1), (7, 5, 4)]:
        a = rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))
        basis, free = nullspace_mod(a % p, p, inv)
        expected = nullspace_reference(a % p, p, inv)
        assert basis.shape == expected.shape
        assert not (a @ basis.T % p).any()
        assert np.array_equal(basis[:, free], np.eye(len(free), dtype=int))
        if len(basis):
            assert np.array_equal(rref_mod(basis, p, inv)[0], expected)


# -- the lift ---------------------------------------------------------------------

def assert_lift_matches_reference(group, rows=None):
    cd, p, z = modular_data(group)
    w = central_character_vectors(cd, p)
    degrees, mult = lift_character(w, cd, p, z)
    at = np.cumsum([0, *cd.orders]).tolist()
    for j in range(len(w)) if rows is None else rows:
        assert degrees[j] == degree_reference(w[j], cd, p)
        assert [(n, tuple(mult[j, a:a + n].tolist()))
                for n, a in zip(cd.orders, at)] == lift_reference(
            w[j], degrees[j], cd, p, z)


@pytest.mark.parametrize("name", sorted(GROUPS) + [
    "S4", "SL2_5", "SL2_7", "A7"])
def test_lift_matches_per_character_loop(cat, name):
    # between them, degrees 1 to 8, 10, 11, 14 to 16, 21, 35, 44, 45 and 55
    assert_lift_matches_reference(make(name) if name in GROUPS
                                  else cat.group(name))


def test_lift_matches_per_character_loop_in_chunks(monkeypatch):
    # C60: 16 classes of order 60, lifted a few classes per matmul
    monkeypatch.setattr(dixon, "_LIFT_ELEMENTS", 60 * 60 * 3)
    assert_lift_matches_reference(cyclic(4, 3, 5))


def test_lift_matches_per_character_loop_at_exponent_210():
    # C210: the 48 classes of order 210 take a 210 x 210 inverse DFT, over
    # more than one chunk at the default gather size; the reference loop is
    # slow, so it checks two rows
    group = cyclic(2, 3, 5, 7)
    assert 210 * 48 * 210 > dixon._LIFT_ELEMENTS
    assert_lift_matches_reference(group, rows=[1, 209])
