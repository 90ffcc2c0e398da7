"""The modular core's pieces against slower references kept here.

The references are the straightforward algorithms the array passes in
``chardeg.dixon`` replace: a batched singularity test at every t in F_p for
the eigenvalues the split finds, and a per-character degree search and
Fourier loop for the lift.
"""

from math import gcd, lcm

import numpy as np
import pytest

from chardeg import dixon
from chardeg.dixon import (central_character_vectors, class_matrix,
                           dixon_prime, lift_character, primitive_root,
                           split_branches)
from chardeg.errors import TableError
from chardeg.groups import Group, conjugacy_classes
from chardeg.perms import parse_cycles

GROUPS = {
    "A5": (5, ["(1 2 3 4 5)", "(1 2 3)"]),
    "S5": (5, ["(1 2 3 4 5)", "(1 2)"]),
    "M11": (11, ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]),
}
ABELIAN = {
    "C2^4": (8, ["(1 2)", "(3 4)", "(5 6)", "(7 8)"]),
    "C3^3": (9, ["(1 2 3)", "(4 5 6)", "(7 8 9)"]),
}


def make(name):
    degree, gens = {**GROUPS, **ABELIAN}[name]
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

def inverses(p):
    """v^-1 mod p at index v, and 0 at 0."""
    return np.array([0] + [pow(v, -1, p) for v in range(1, p)],
                    dtype=np.int64)


def singular_values_reference(m, p):
    """All t in F_p with det(m - t*I) = 0, via one batched elimination."""
    inv = inverses(p)
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


# -- the split ----------------------------------------------------------------

def eigenvalues(act, parts, p):
    """The t with A part = t part, read at the first nonzero entry of each
    part, for the matrix A that act applies."""
    at = np.arange(len(parts)), (parts != 0).argmax(axis=1)
    return act(parts)[at] * inverses(p)[parts[at]] % p


def split_one(a, x, p):
    """The components of the vector x on the eigenspaces of a mod p, and
    their eigenvalues."""
    act = dixon._action(a % p, p)
    parts = split_branches(x[None], act(x[None]), act, p)
    return eigenvalues(act, parts, p), parts


def assert_eigencomponents(a, x, roots, parts, p):
    """parts are nonzero eigenvectors of a at the roots, summing to x."""
    assert parts.any(axis=1).all()
    assert np.array_equal(parts @ a.T % p, roots[:, None] * parts % p)
    assert np.array_equal(parts.sum(axis=0) % p, x % p)


def random_matrices(rng, p):
    """Matrices L D L^-1, L unit lower triangular and D diagonal, from
    scalars and repeated eigenvalues to m distinct ones."""
    out = [np.zeros((3, 3), dtype=np.int64), 5 * np.eye(4, dtype=np.int64),
           np.array([[7]])]
    for m in range(1, 9):
        strict = np.tril(rng.integers(0, p, (m, m)), -1)
        lower = lower_inv = np.eye(m, dtype=np.int64)
        power = lower
        for _ in range(m - 1):  # (I + N)^-1 = sum_k (-N)^k, N nilpotent
            power = -power @ strict % p
            lower_inv = lower_inv + power
        lower = lower + strict
        for diag in (rng.integers(0, p, m), rng.integers(0, 3, m)):
            out.append(lower @ np.diag(diag) % p @ lower_inv % p)
    return [np.asarray(a, dtype=np.int64) % p for a in out]


@pytest.mark.parametrize("p", [5, 31, 61, 211])
def test_eigenvalues_match_singularity_scan_random(p):
    # a random x has nonzero coefficients on every eigenvector with
    # probability about (1 - 1/p)^m; it is drawn again until the Krylov
    # sequence of x reaches every eigenvalue, as e_0 does on class matrices
    rng = np.random.default_rng(p)
    for a in random_matrices(rng, p):
        expected = singular_values_reference(a, p)
        while True:
            x = rng.integers(0, p, len(a))
            if not x.any():
                continue
            roots, parts = split_one(a, x, p)
            assert set(roots.tolist()) <= set(expected)
            assert_eigencomponents(a, x, roots, parts, p)
            if roots.tolist() == expected:
                break


@pytest.mark.parametrize("p", [3, 5, 31, 9241])
def test_inverse_dft_inverts_the_forward_transform(p):
    # every n-point transform over F_p with n dividing p - 1, from the
    # primitive root the split and the lift use: zeta_n^(a b) forward
    z = primitive_root(p)
    divisors = [n for n in range(1, 64) if (p - 1) % n == 0]
    for n in divisors:
        zeta = pow(z, (p - 1) // n, p)
        forward = np.array([[pow(zeta, a * b, p) for b in range(n)]
                            for a in range(n)], dtype=np.int64)
        assert np.array_equal(dixon._inverse_dft(n, p, z) @ forward % p,
                              np.eye(n, dtype=np.int64))


def test_scalar_test_reads_the_first_nonzero_entry():
    # a branch whose entry 0 vanishes mod p: read at entry 0, every image
    # would pass as a multiple of it
    p = 7
    xs = np.array([[0, 1, 2], [0, 3, 0], [4, 0, 1]])
    ys = np.array([[0, 2, 5], [0, 6, 0], [1, 0, 2]])
    assert dixon._scalar(xs, ys, p).tolist() == [False, True, True]


@pytest.mark.parametrize("a,p", [
    ([[2, 1], [0, 2]], 5), ([[2, 1], [0, 2]], 31),  # (X - 2)^2: one root
    ([[0, 30], [1, 0]], 31),  # X^2 + 1: no root, since 31 = 3 (mod 4)
])
def test_split_rejects_an_action_that_is_not_diagonalizable(a, p):
    with pytest.raises(TableError, match="distinct roots"):
        split_one(np.array(a, dtype=np.int64), np.array([0, 1]), p)


WIDE = {
    "C2^6": (12, [f"({2 * i + 1} {2 * i + 2})" for i in range(6)]),
    "C3^4": (12, [f"({3 * i + 1} {3 * i + 2} {3 * i + 3})" for i in range(4)]),
    "S3 x S3": (6, ["(1 2 3)", "(1 2)", "(4 5 6)", "(4 5)"]),
    "A4 x C3": (7, ["(1 2 3)", "(2 3 4)", "(5 6 7)"]),
}


def second_step(monkeypatch, name):
    """p and the (branches, images, action) of the second class that cuts a
    branch in the named group's split, as split_branches takes them: the
    branches that the classes before it cut from e_0 and that its matrix
    is not a scalar on.  A central class is split by its permutation, so
    its matrix, 1 at (move[k], k), is formed here."""
    degree, gens = WIDE[name]
    cd, p, z = modular_data(
        Group([parse_cycles(s, degree) for s in gens], degree))
    steps = []
    split, central = dixon.split_branches, dixon.split_central

    def spy(xs, ys, act, p):
        steps.append((xs.copy(), ys.copy(), act))
        return split(xs, ys, act, p)

    def central_spy(xs, move, q, n, p, z):
        act = dixon._action(
            np.eye(cd.num_classes, dtype=np.int64)[move].T, p)
        ys = act(xs)
        cut = ~dixon._scalar(xs, ys, p)
        if cut.any():
            steps.append((xs[cut], ys[cut], act))
        return central(xs, move, q, n, p, z)
    monkeypatch.setattr(dixon, "split_branches", spy)
    monkeypatch.setattr(dixon, "split_central", central_spy)
    central_character_vectors(cd, p, z)
    monkeypatch.undo()
    return (p, *steps[1])


@pytest.mark.parametrize("name", sorted(WIDE))
def test_split_of_a_stack_equals_the_split_of_each_row(monkeypatch, name):
    # C2^6 and S3 x S3, C3^4 and A4 x C3: 2 and 3 branches that the second
    # class cuts, into 2 and 3 components each, read off the one Krylov
    # sequence of their sum (the abelian groups' classes are central, and
    # give their matrices here)
    p, branches, images, act = second_step(monkeypatch, name)
    alone = [split_branches(x[None], act(x[None]), act, p)
             for x in branches]
    assert len(branches) > 1 and all(len(parts) > 1 for parts in alone)
    assert np.array_equal(split_branches(branches, images, act, p),
                          np.concatenate(alone))


@pytest.mark.parametrize("bad", [
    [[2, 1], [0, 2]],  # (X - 2)^2: one root
    [[0, 30], [1, 0]],  # X^2 + 1: no root mod 31
])
def test_one_bad_row_in_a_batch_raises(bad):
    # a diagonal block, on which (0, 0, 1, 1) has minimal polynomial
    # (X - 3)(X - 4), beside the bad block, on which (0, 1, 0, 0) or
    # (1, 0, 0, 0) has (X - 2)^2 or X^2 + 1: their sum has the product,
    # with a double root or two roots outside F_31
    p = 31
    a = np.zeros((4, 4), dtype=np.int64)
    a[:2, :2], a[2:, 2:] = bad, np.diag([3, 4])
    act = dixon._action(a, p)
    xs = np.array([[0, 0, 1, 1], [0, 1, 0, 0] if bad[0][0] else [1, 0, 0, 0]])
    parts = split_branches(xs[:1], act(xs[:1]), act, p)
    assert eigenvalues(act, parts, p).tolist() == [3, 4]
    with pytest.raises(TableError, match="distinct roots"):
        split_branches(xs, act(xs), act, p)


@pytest.mark.parametrize("xs", [
    [[1, 1], [0, 30]],  # sum (1, 0): minimal polynomial X - 3
    [[1, 1], [30, 30]],  # sum 0: minimal polynomial 1
])
def test_rows_whose_sum_cancels_a_component_raise(xs):
    # the components at 4, or all of them, cancel in the sum of the rows,
    # whose minimal polynomial then does not annihilate the first row
    p = 31
    act = dixon._action(np.diag([3, 4]), p)
    xs = np.array(xs)
    with pytest.raises(TableError, match="not eigenvectors summing"):
        split_branches(xs, act(xs), act, p)


def test_one_act_per_eigenvalue_on_the_cut_branches(monkeypatch):
    # S3 x S3, whose classes are all formed as matrices: each class that
    # cuts a branch acts once on every branch in central_character_vectors,
    # then once per further Krylov step of the sum of the branches it cuts,
    # not once per branch (its last three cuts take 2, 2 and 3 branches,
    # each with 2 eigenvalues)
    degree, gens = WIDE["S3 x S3"]
    group = Group([parse_cycles(s, degree) for s in gens], degree)
    calls, cuts = [], []
    action, split = dixon._action, dixon.split_branches

    def action_spy(a, p):
        act = action(a, p)
        calls.append(0)

        def counted(v):
            calls[-1] += 1
            return act(v)
        return counted

    def split_spy(xs, ys, act, p):
        parts = split(xs, ys, act, p)
        cuts.append((calls[-1], len(xs), parts, act, p))
        return parts
    monkeypatch.setattr(dixon, "_action", action_spy)
    monkeypatch.setattr(dixon, "split_branches", split_spy)
    central_character_vectors(*modular_data(group))
    monkeypatch.undo()
    assert [n for _, n, *_ in cuts] == [1, 2, 2, 3]
    for acts, _, parts, act, p in cuts:
        assert acts == len(set(eigenvalues(act, parts, p).tolist()))


def recorded_branches(monkeypatch, group):
    """p and the (branches, images) of every split_branches call of the
    split."""
    seen = []
    original = dixon.split_branches

    def spy(xs, ys, act, p):
        seen.append((xs.copy(), ys.copy()))
        return original(xs, ys, act, p)
    monkeypatch.setattr(dixon, "split_branches", spy)
    cd, p, z = modular_data(group)
    central_character_vectors(cd, p, z)
    monkeypatch.undo()
    return p, seen


@pytest.mark.parametrize("name", sorted(GROUPS) + sorted(ABELIAN))
def test_eigenvalues_match_singularity_scan_on_class_matrices(name):
    # from e_0 = sum_chi (chi(1)^2/|G|) omega_chi, every coefficient nonzero
    # mod p, the split reaches every eigenvalue of every class matrix
    cd, p, z = modular_data(make(name))
    e0 = np.eye(1, cd.num_classes, dtype=np.int64)[0]
    for i in range(cd.num_classes):
        a = class_matrix(cd, i) % p
        roots, parts = split_one(a, e0, p)
        assert roots.tolist() == singular_values_reference(a, p)
        assert_eigencomponents(a, e0, roots, parts, p)


@pytest.mark.parametrize("gens,degree", [
    (["(1 2 3 4)", "(1 3)", "(5 6 7 8)"], 8),
    (["(1 2 3)", "(1 2)", "(4 5 6 7 8 9)"], 9),
    (["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8),
])
def test_no_eigenvalue_search_where_a_matrix_acts_as_a_scalar(monkeypatch,
                                                              gens, degree):
    # D8 x C4, S3 x C6 and Q8: in groups with central elements, some class
    # matrices act on a partly split space as scalars; those branches must
    # be passed over (an abelian group forms no class matrix at all)
    group = Group([parse_cycles(s, degree) for s in gens], degree)
    p, calls = recorded_branches(monkeypatch, group)
    assert calls
    for xs, ys in calls:
        for x, y in zip(xs, ys):
            f = np.flatnonzero(x)[0]
            assert not np.array_equal(y * x[f] % p, x * y[f] % p)


@pytest.mark.parametrize("name", ["A4", "S4", "Q8", "F21", "SL2_5"])
def test_class_map_matches_permutation_products(cat, name):
    # row k of class i's map holds the classes of the x^-1 rep_k, x in
    # class i, as a multiset; A4 and F21 have classes that are not their
    # own inverses, so reading class i for its inverse class fails here
    group = cat.group(name)
    cd = conjugacy_classes(group)
    for i in range(cd.num_classes):
        members = [x for x, c in zip(group.elements(), cd.element_index)
                   if c == i]
        m = dixon.class_map(cd, i)
        assert m.shape == (cd.num_classes, len(members))
        for k, rep in enumerate(cd.reps):
            assert sorted(m[k].tolist()) == sorted(
                cd.class_of(x.inverse() * rep) for x in members)


def used_and_splitting(monkeypatch, group):
    """The classes whose matrices the split forms and the classes it uses,
    each in order, and the set of the classes used that cut some branch.
    Every class used is read through class_map, which class_matrix calls."""
    matrices, used, splitting = [], [], set()
    original = {name: getattr(dixon, name) for name in (
        "class_map", "class_matrix", "split_branches", "split_central")}

    def use(name, seen):
        def spy(cd, i):
            seen.append(i)
            return original[name](cd, i)
        return spy

    def split_spy(*args):
        splitting.add(used[-1])
        return original["split_branches"](*args)

    def central_spy(xs, *args):
        parts = original["split_central"](xs, *args)
        if len(parts) > len(xs):
            splitting.add(used[-1])
        return parts
    monkeypatch.setattr(dixon, "class_map", use("class_map", used))
    monkeypatch.setattr(dixon, "class_matrix", use("class_matrix", matrices))
    monkeypatch.setattr(dixon, "split_branches", split_spy)
    monkeypatch.setattr(dixon, "split_central", central_spy)
    central_character_vectors(*modular_data(group))
    monkeypatch.undo()
    return matrices, used, splitting


@pytest.mark.parametrize("gens,degree,count", [
    (["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8, 4),
    (["(1 2 3)", "(4 5 6)", "(7 8 9)"], 9, 3),
    (["(1 2 3 4)", "(5 6 7 8)", "(9 10)"], 10, 5),
    (["(1 2 3 4)(5 6 7)(8 9 10 11 12)"], 12, 4),
])
def test_abelian_split_forms_only_matrices_that_split(monkeypatch, gens,
                                                      degree, count):
    # C2^4, C3^3, C4 x C4 x C2 and C60: every class is central, so no class
    # matrix is formed and a class that is a product of classes used is
    # never used (C4 x C4 x C2 used 12 classes and C60 6 before the skip)
    group = Group([parse_cycles(s, degree) for s in gens], degree)
    matrices, used, splitting = used_and_splitting(monkeypatch, group)
    assert not matrices
    assert len(used) == len(set(used)) == count
    assert set(used) == splitting


@pytest.mark.parametrize("name,count", [("2A6", 5), ("6A6", 7), ("Q16", 4)])
def test_split_skips_products_of_central_and_used_classes(monkeypatch, cat,
                                                          name, count):
    # groups with a nontrivial center (11, 27 and 5 matrices before this
    # skip); 2A6 used 7 before the rational skip, which 6A6 and Q16 never
    # reach: they use a class that is not rational (a central one of order
    # 3, and one of order 8) before their branches number their orbits
    matrices, used, _ = used_and_splitting(monkeypatch, cat.group(name))
    # some central class is used, which forms no matrix
    assert matrices and len(used) > len(matrices)
    assert len(used) == count


LARGE = {
    "S8": (8, ["(1 2 3 4 5 6 7 8)", "(1 2)"]),
    "A8": (8, ["(2 3 4 5 6 7 8)", "(1 2 3)"]),
    "M12": (12, ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)",
                 "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"]),
    "M22": (22, ["(1 2 3 4 5 6 7 8 9 10 11)"
                 "(12 13 14 15 16 17 18 19 20 21 22)",
                 "(1 4 5 9 3)(2 8 10 7 6)(12 15 16 20 14)(13 19 21 18 17)",
                 "(1 21)(2 10 8 6)(3 13 4 17)(5 19 9 18)(11 22)(12 14 16 20)"]),
}


@pytest.mark.parametrize("name,formed", [
    ("S8", 2), ("A8", 5), ("M12", 6), ("M22", 5)])
def test_split_skips_rational_classes_once_each_branch_is_one_orbit(
        monkeypatch, name, formed):
    # A8, M12 and M22 formed 11, 8 and 9 matrices before the skip; every
    # class of S8 is rational, so its branches reach the orbit count only
    # when they are r, and it forms 2 as before
    degree, gens = LARGE[name]
    group = Group([parse_cycles(s, degree) for s in gens], degree)
    cd = conjugacy_classes(group)
    matrices, used, _ = used_and_splitting(monkeypatch, group)
    assert used == matrices and len(matrices) == formed
    # class i is rational when every unit v mod n_i fixes it: i^v ~ i
    rational = [all(c[v] == i for v in range(len(c)) if gcd(v, len(c)) == 1)
                for i, c in enumerate(cd.power_class)]
    assert all(rational) == (name == "S8")
    # the classes formed, in order, are rational ones and then ones that
    # are not: the skip leaves no rational class to form
    flags = [rational[i] for i in matrices]
    assert flags == sorted(flags, reverse=True)


def central_splits(monkeypatch, group):
    """cd, p and the (i, branches, q, n, components) of every split_central
    call of the split, i the central class."""
    cd, p, z = modular_data(group)
    seen, classes = [], []
    original_map, original_split = dixon.class_map, dixon.split_central

    def map_spy(cd, i):
        classes.append(i)
        return original_map(cd, i)

    def split_spy(xs, move, q, n, *args):
        parts = original_split(xs, move, q, n, *args)
        seen.append((classes[-1], xs.copy(), q, n, parts))
        return parts
    monkeypatch.setattr(dixon, "class_map", map_spy)
    monkeypatch.setattr(dixon, "split_central", split_spy)
    central_character_vectors(cd, p, z)
    monkeypatch.undo()
    return cd, p, seen


def sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


@pytest.mark.parametrize("name", ["C16", "C3^4"])
def test_central_split_equals_split_branches(monkeypatch, name):
    # C16 splits by classes of order 4, 8 and 16 at q = 2 < n, C3^4 by
    # four classes of order 3 at q = n = 3; the components of each step
    # are those split_branches finds with the class matrix, whose one
    # nonzero entry per column is at the class map's one column
    group = (cyclic(16) if name == "C16" else Group(
        [parse_cycles(f"({3 * i + 1} {3 * i + 2} {3 * i + 3})", 12)
         for i in range(4)], 12))
    cd, p, seen = central_splits(monkeypatch, group)
    qs = [(q, n) for _, _, q, n, _ in seen]
    if name == "C16":
        assert qs == [(2, 2), (2, 4), (2, 8), (2, 16)]
    else:
        assert qs == [(3, 3)] * 4
    for i, xs, _, _, parts in seen:
        a = class_matrix(cd, i)
        move = dixon.class_map(cd, i)[:, 0]
        assert np.array_equal(
            a, np.eye(cd.num_classes, dtype=np.int64)[move].T)
        act = dixon._action(a % p, p)
        ys = act(xs)
        scalar = dixon._scalar(xs, ys, p)
        expected = [xs[scalar], split_branches(xs[~scalar], ys[~scalar],
                                               act, p)]
        assert len(parts) > len(xs)
        assert np.array_equal(sorted_rows(parts),
                              sorted_rows(np.concatenate(expected)))


def test_central_transform_is_as_long_as_the_order_mod_the_classes_used(
        monkeypatch):
    # C256 = <y>: the class of order 2^k is taken when the group generated
    # so far is that of order 2^(k-1), which holds its square, so every
    # transform is 2 points long while n runs up to 256
    _, _, seen = central_splits(monkeypatch, cyclic(256))
    assert [(q, n) for _, _, q, n, _ in seen] == [(2, 2 ** k)
                                                  for k in range(1, 9)]


def test_corrupted_class_permutation_raises(monkeypatch):
    # two entries of each central class map's one column swapped: the
    # gathers no longer come from a central element, and A_y^q is no
    # scalar on the first branch
    group = cyclic(16)
    cd, p, z = modular_data(group)
    original = dixon.class_map

    def corrupted(cd, i):
        move = original(cd, i)
        move[[1, 2]] = move[[2, 1]]
        return move
    monkeypatch.setattr(dixon, "class_map", corrupted)
    with pytest.raises(TableError, match="not a root of unity times the "
                                         "identity"):
        central_character_vectors(cd, p, z)


def test_central_split_rejects_a_power_that_is_not_a_scalar():
    # C16's class of order 4 on e_0 with q = 2: A_y^2 is the matrix of the
    # class of order 2, which e_0 is no eigenvector of
    cd, p, z = modular_data(cyclic(16))
    i = cd.orders.index(4)
    e0 = np.eye(1, cd.num_classes, dtype=np.int64)
    move = dixon.class_map(cd, i)[:, 0]
    assert len(dixon.split_central(e0, move, 4, 4, p, z)) == 4
    with pytest.raises(TableError, match="not a root of unity times the "
                                         "identity"):
        dixon.split_central(e0, move, 2, 4, p, z)


# -- the lift ---------------------------------------------------------------------

def assert_lift_matches_reference(group, rows=None):
    cd, p, z = modular_data(group)
    terms = central_character_vectors(cd, p, z)
    degrees, mult = lift_character(terms, cd, p, z)
    # the references read central character values, 1 at the identity
    w = terms * np.array([pow(int(t), p - 2, p) for t in terms[:, 0]])[
        :, None] % p
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


def test_lift_matches_per_character_loop_on_c60():
    # C60: 16 classes of order 60, one Galois orbit: one class is lifted
    # and the other 15 are gathered from it
    assert_lift_matches_reference(cyclic(4, 3, 5))


def test_lift_matches_per_character_loop_at_exponent_210():
    # C210: the 48 classes of order 210, one Galois orbit, take one
    # 210 x 210 inverse DFT; the reference loop is slow, so it checks two
    # rows
    assert_lift_matches_reference(cyclic(2, 3, 5, 7), rows=[1, 209])


class _ReadLog(list):
    """A list that logs the indices read from it."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


@pytest.mark.parametrize("name", ["A5", "M11", "C60", "C210"])
def test_lift_reads_power_maps_at_orbit_representatives_only(name):
    # every other class's block is a gather of its representative's, so
    # only the representatives' power maps are read
    group = {"C60": lambda: cyclic(4, 3, 5),
             "C210": lambda: cyclic(2, 3, 5, 7)}.get(name, lambda: make(name))()
    cd, p, z = modular_data(group)
    w = central_character_vectors(cd, p, z)
    expected = lift_character(w, cd, p, z)
    reps = np.unique(cd.galois_orbits, return_index=True)[1].tolist()
    assert len(reps) < cd.num_classes
    read = []
    cd.power_class = _ReadLog(cd.power_class, read)
    degrees, mult = lift_character(w, cd, p, z)
    assert sorted(set(read)) == reps
    assert degrees == expected[0] and np.array_equal(mult, expected[1])


def test_lift_checks_each_representative_block_is_stable():
    # C5: the classes of order 5 are one orbit, and a faithful character
    # has one eigenvalue at a 5-cycle, so its block is moved by a -> 2a;
    # heads that ask the representative's block to be fixed by it fail
    cd, p, z = modular_data(cyclic(5))
    w = central_character_vectors(cd, p, z)
    assert cd.orders == [1, 5, 5, 5, 5]
    heads = cd.galois_columns.copy()
    heads[1:6] = 1 + 2 * np.arange(5) % 5
    cd.galois_columns = heads
    with pytest.raises(TableError, match="not Galois-stable"):
        lift_character(w, cd, p, z)
