"""Modular core of the character table computation.

The central characters of a finite group are the simultaneous eigenvectors
of its class matrices.  Working modulo a prime p with p = 1 (mod exponent)
and p > 2*sqrt(|G|) makes every eigenvalue land in F_p and keeps all the
lifted integer quantities (degrees, root-of-unity multiplicities) below p,
so the finite-field computation determines the exact table.

Steps (Dixon 1967): take class matrices smallest class first (Schneider
1990), skipping a class that is a central product of classes taken, and
split e_0 = sum_chi (chi(1)^2/|G|) omega_chi (column orthogonality) into
its r terms: a branch, a sum of some of them, on which a matrix is not a
scalar is cut into its eigencomponents, read off its Krylov sequence; scale
each term to central character values; then lift all characters at once:
degrees from one sum mod p, values by one inverse discrete Fourier
transform per element order.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .cyclotomic import _is_prime, _prime_factors
from .errors import TableError
from .groups import ClassData

DEFAULT_PRIME_CEILING = 1_000_000


def dixon_prime(order: int, exponent: int,
                ceiling: int = DEFAULT_PRIME_CEILING) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*sqrt(order)."""
    p = exponent + 1
    while p <= ceiling:
        if p * p > 4 * order and _is_prime(p):
            return p
        p += exponent
    raise TableError(f"no Dixon prime below {ceiling} for exponent {exponent}")


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime p."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for z in range(2, p):
        if all(pow(z, (p - 1) // q, p) != 1 for q in factors):
            return z
    raise TableError(f"no primitive root found mod {p}")


# Most rows one class_matrix gather may hold; reps are gathered in chunks
# below it, several at once where classes are small.
_GATHER_ROWS = 1 << 16


def class_matrix(cd: ClassData, i: int) -> np.ndarray:
    """Matrix A_i with A_i[j, k] = #{x in class i : x^-1 * rep_k in class j}.

    These are the structure constants of the class-sum algebra; the exact
    integer matrix is returned (reduce mod p at the call site).  The x^-1
    run over the inverse class, so column k is a gather of rep_k at their
    images of the base points, a rank lookup and a bincount.
    """
    r = cd.num_classes
    x_inv = cd.rows[cd.element_index == cd.inverse_class[i]][:, cd.base]
    step = max(1, _GATHER_ROWS // len(x_inv))
    a = np.empty((r, r), dtype=np.int64)
    for k in range(0, r, step):
        reps = cd.rep_rows[k:k + step]
        classes = cd.element_index[cd.group.chain.rank(reps[:, x_inv])]
        classes += np.arange(len(reps))[:, None] * r
        a[:, k:k + len(reps)] = np.bincount(
            classes.ravel(), minlength=len(reps) * r).reshape(-1, r).T
    return a


# -- the splitting ----------------------------------------------------------

def _inverse_table(p: int) -> np.ndarray:
    """v^-1 mod the odd prime p at index v, and 0 at 0.  For a primitive
    root z, z^k has inverse z^(p-1-k), and z^(b*i + j) = z^(b*i) * z^j."""
    z, b = primitive_root(p), isqrt(p) + 1
    small = np.array([pow(z, j, p) for j in range(b)], dtype=np.int64)
    large = np.array([pow(z, b * i, p) for i in range(b)], dtype=np.int64)
    powers = (large[:, None] * small % p).ravel()[:p - 1]
    inv = np.zeros(p, dtype=np.int64)
    inv[powers] = powers[-np.arange(p - 1) % (p - 1)]
    return inv


# Most array elements one image gather in the split may hold.  The gather
# replaces the dense product where a row's nonzeros are at most r / 16: at
# r = 128 a dense product costs as much as a gather over 12 per row.
_IMAGE_ELEMENTS = 1 << 21
_SPARSE_RATIO = 16


def _action(a: np.ndarray, p: int):
    """v -> v @ a.T mod p on a stack of rows v, for a reduced class matrix
    a: a gather and sum over each row's at most |C_i| nonzeros, padded with
    zero entries, where they are few against r, else a dense product."""
    r = len(a)
    width = max(1, (a != 0).sum(axis=1).max())
    if width * _SPARSE_RATIO > r:
        return lambda v: v @ a.T % p
    gather = np.argpartition(a == 0, width - 1, axis=1)[:, :width]
    weights = np.take_along_axis(a, gather, axis=1)
    step = max(1, _IMAGE_ELEMENTS // gather.size)
    return lambda v: np.concatenate([
        (v[lo:lo + step, gather] * weights).sum(axis=2) % p
        for lo in range(0, len(v), step)])


def _scalar(xs: np.ndarray, ys: np.ndarray, p: int) -> np.ndarray:
    """Whether each row y of ys is c x for its row x of xs, compared at the
    first nonzero entry of x (entry 0 of a branch can vanish mod p)."""
    at = np.arange(len(xs)), (xs != 0).argmax(axis=1)
    return (ys * xs[at][:, None] % p == xs * ys[at][:, None] % p).all(axis=1)


def split_branches(xs: np.ndarray, ys: np.ndarray, act, p: int,
                   inv: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(roots, components) of each row x of xs on the eigenspaces of A,
    which act applies to a stack of rows; ys = act(xs).

    The Krylov sequences x, Ax, A^2 x, ... of all rows grow together, one
    act per step, each row (A^j x, e_j) reduced in echelon form on its
    first r entries: at the first j where those vanish, the last j + 1
    hold the minimal polynomial m of A on x.  If x is a sum of eigenvectors
    of A, m has j distinct roots t in F_p, and the component of x at t is
    q_t(A) x / q_t(t), with q_t = m / (X - t).
    """
    n, r = xs.shape
    krylov = [[x] for x in xs]
    found = [None] * n
    live = np.arange(n)
    # echelon rows, 1 at their own pivot and 0 at the others' pivots
    rows = np.zeros((n, 0, 2 * r + 1), dtype=np.int64)
    pivots = np.zeros((n, 0), dtype=np.int64)
    v = xs
    for j in range(r + 1):
        c = np.take_along_axis(v, pivots, axis=1)
        e_j = np.eye(1, r + 1, j, dtype=np.int64).repeat(len(v), axis=0)
        residue = (np.append(v, e_j, axis=1) - (c[:, None] @ rows)[:, 0]) % p
        done = ~residue[:, :r].any(axis=1)
        for b in np.flatnonzero(done):
            found[live[b]] = _components(np.array(krylov[live[b]]),
                                         residue[b, r:r + j + 1], p, inv)
        if done.all():
            return found
        live, v, residue, rows, pivots = (
            t[~done] for t in (live, v, residue, rows, pivots))
        pivot = (residue[:, :r] != 0).argmax(axis=1)
        row = residue * inv[residue[np.arange(len(live)), pivot]][:, None] % p
        f = np.take_along_axis(rows, pivot[:, None, None], axis=2)
        rows = np.append((rows - f * row[:, None]) % p, row[:, None], axis=1)
        pivots = np.append(pivots, pivot[:, None], axis=1)
        v = ys[live] if j == 0 else act(v)
        for b, y in zip(live, v):
            krylov[b].append(y)
    raise TableError("Krylov sequence without dependency (implementation bug)")


def _components(krylov: np.ndarray, poly: np.ndarray, p: int,
                inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The s roots of the monic poly m, constant term first, and the
    Lagrange combinations of the rows x, Ax, ..., A^(s-1) x of krylov at
    them.  Checked exactly: m has s distinct roots, each combination x_t has
    A x_t = t x_t (the same product with the rows shifted by one), and they
    sum to x."""
    s = len(poly) - 1
    ts = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for coeff in poly[::-1]:
        acc = (acc * ts + coeff) % p
    roots = np.flatnonzero(acc == 0)
    if len(roots) != s:
        raise TableError("minimal polynomial without distinct roots in F_p "
                         "(implementation bug)")
    # row k of quotient: m / (X - roots[k]), constant term first
    quotient = np.zeros((s, s), dtype=np.int64)
    quotient[:, -1] = 1
    for e in range(s - 1, 0, -1):
        quotient[:, e - 1] = (poly[e] + roots * quotient[:, e]) % p
    # q_t(t) = prod over the other roots u of (t - u)
    denominator = np.ones(s, dtype=np.int64)
    for u in roots:
        denominator = denominator * np.where(roots == u, 1, roots - u) % p
    lagrange = quotient * inv[denominator][:, None] % p
    parts = lagrange @ krylov[:s] % p
    if not (np.array_equal(lagrange @ krylov[1:] % p,
                           roots[:, None] * parts % p)
            and np.array_equal(parts.sum(axis=0) % p, krylov[0])):
        raise TableError("components are not eigenvectors summing to the "
                         "vector (implementation bug)")
    return roots, parts


def central_character_vectors(cd: ClassData, p: int) -> np.ndarray:
    """All r common eigenvectors of the class matrices, one per row,
    normalized so the identity-class coordinate is 1: the central
    character values (omega_k mod p) of each irreducible character.

    By column orthogonality e_0 = sum_chi (chi(1)^2 / |G|) omega_chi, no
    coefficient 0 mod p as p does not divide |G|.  split_branches cuts each
    branch, a sum of some of these terms, into its components on the
    eigenspaces of each class matrix not a scalar on it.  Class i is
    skipped when its class sum is K_z K_C, z in the group generated by the
    central classes used and C a used class or the identity: K_z K_C =
    K_{zC}, so A_i = A_z A_C is a scalar on every branch left.  All
    products stay in int64: each sums at most r terms below p^2, and
    r p^2 < 2^63 for p < 10^6 and r < 9 * 10^6.
    """
    r = cd.num_classes
    inv = _inverse_table(p)
    branches = np.eye(1, r, dtype=np.int64)
    # the classes z*C; a used central z moves class k to that of z^-1 rep_k
    covered = np.zeros(r, dtype=bool)
    covered[0] = True
    moves = []
    for i in sorted(range(1, r), key=lambda i: (cd.sizes[i], i)):
        if covered[i]:
            continue
        if len(branches) == r:
            break
        a = class_matrix(cd, i) % p
        if cd.sizes[i] == 1:
            moves.append(a.argmax(axis=0))
        covered[i] = True
        while True:
            before = np.count_nonzero(covered)
            for move in moves:
                covered[move[covered]] = True
            if np.count_nonzero(covered) == before:
                break
        act = _action(a, p)
        images = act(branches)
        scalar = _scalar(branches, images, p)
        if not scalar.all():
            split = split_branches(branches[~scalar], images[~scalar], act,
                                   p, inv)
            branches = np.concatenate(
                [branches[scalar]] + [parts for _, parts in split])
    if len(branches) != r:
        raise TableError("class matrices exhausted before the branches "
                         "fully split (implementation bug)")
    if not branches[:, 0].all():
        raise TableError("central character vanishes at the identity "
                         "(implementation bug)")
    return branches * inv[branches[:, 0]][:, None] % p


# Most array elements one lift_character gather may hold.
_LIFT_ELEMENTS = 1 << 21


def lift_character(w: np.ndarray, cd: ClassData, p: int,
                   z: int) -> tuple[list[int], np.ndarray]:
    """Exact (degrees, mult) of every character, from the rows of w: row j
    of mult holds character j's multiplicity vectors, class by class.

    d^2 = |G| / sum_k omega_k * conj(omega_k) / h_k mod p, and the degree is
    the square root in (0, p/2).  chi(g) mod p is d * omega / classsize; the
    multiplicity of zeta_n^j among the eigenvalues of a representing matrix
    at g (n the order of g) is the inverse discrete Fourier transform of chi
    along the power map of g, and lifts exactly because it is below p.  The
    matmuls stay in int64: their sums are below n * p^2 < p^3 <= 10^18.
    """
    h_inv = np.array([pow(h, p - 2, p) for h in cd.sizes], dtype=np.int64)
    total = (w * w[:, cd.inverse_class] % p * h_inv % p).sum(axis=1) % p
    if not total.all():
        raise TableError("degree denominator vanished (implementation bug)")
    d_squared = [cd.group.order * pow(int(t), p - 2, p) % p for t in total]
    roots = np.zeros(p, dtype=np.int64)
    d = np.arange(1, p // 2 + 1, dtype=np.int64)
    roots[d * d % p] = d
    degrees = roots[d_squared]
    if not degrees.all():
        raise TableError("no square root for degree found "
                         "(implementation bug)")
    chi = degrees[:, None] * w % p * h_inv % p
    starts = np.cumsum(cd.orders) - cd.orders
    mult = np.empty((len(degrees), sum(cd.orders)), dtype=np.int64)
    for n in set(cd.orders):
        ks = [k for k, order in enumerate(cd.orders) if order == n]
        powers = np.array([pow(z, (p - 1) // n * e, p) for e in range(n)])
        e = np.arange(n)
        dft = powers[-np.outer(e, e) % n] * pow(n, p - 2, p) % p
        step = max(1, _LIFT_ELEMENTS // (len(degrees) * n))
        for lo in range(0, len(ks), step):
            chunk = ks[lo:lo + step]
            block = chi[:, [cd.power_class[k] for k in chunk]] @ dft % p
            if (block.sum(axis=2) != degrees[:, None]).any():
                raise TableError("multiplicities do not sum to the degree "
                                 "(implementation bug)")
            mult[:, (starts[chunk][:, None] + e).ravel()] = block.reshape(
                len(degrees), -1)
    return degrees.tolist(), mult
