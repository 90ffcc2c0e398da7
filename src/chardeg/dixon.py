"""Modular core of the character table computation.

The central characters of a finite group are the simultaneous eigenvectors
of its class matrices.  Working modulo a prime p with p = 1 (mod exponent)
and p > 2*sqrt(|G|) makes every eigenvalue land in F_p and keeps all the
lifted integer quantities (degrees, root-of-unity multiplicities) below p,
so the finite-field computation determines the exact table.

Steps: build class matrices one at a time, split F_p^r into common
eigenspaces (eigenvalues found by scanning all of F_p with a batched
singularity test), normalize each 1-dimensional common eigenvector into a
vector of central character values, recover degrees, then lift each
character value to eigenvalue multiplicities via the inverse discrete
Fourier transform over F_p.
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import CycValue, _is_prime, _prime_factors
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
    run over the inverse class, so column k is a gather of rep_k over those
    rows, a lookup and a bincount.
    """
    r, n = cd.num_classes, cd.rows.shape[1]
    x_inv = cd.rows[cd.element_index == cd.inverse_class[i]]
    step = max(1, _GATHER_ROWS // len(x_inv))
    a = np.empty((r, r), dtype=np.int64)
    for k in range(0, r, step):
        reps = cd.rep_rows[k:k + step]
        classes = cd.element_index[cd.index(reps[:, x_inv].reshape(-1, n))]
        classes += np.repeat(np.arange(len(reps)) * r, len(x_inv))
        a[:, k:k + len(reps)] = np.bincount(
            classes, minlength=len(reps) * r).reshape(-1, r).T
    return a


# -- linear algebra mod p ---------------------------------------------------

def _inverse_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int64)
    for v in range(1, p):
        inv[v] = pow(v, p - 2, p)
    return inv


def rref_mod(a: np.ndarray, p: int, inv: np.ndarray):
    """Row-reduced echelon form mod p; returns (reduced rows, pivot columns)."""
    a = a.copy() % p
    nrows, ncols = a.shape
    row = 0
    pivots = []
    for col in range(ncols):
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        rr = row + int(nz[0])
        if rr != row:
            a[[row, rr]] = a[[rr, row]]
        a[row] = a[row] * inv[a[row, col]] % p
        factors = a[:, col].copy()
        factors[row] = 0
        a = (a - factors[:, None] * a[row][None, :]) % p
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return a[:row], pivots


def nullspace_mod(a: np.ndarray, p: int, inv: np.ndarray) -> np.ndarray:
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


def batched_singular_values(m: np.ndarray, p: int, inv: np.ndarray) -> list[int]:
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


# -- the splitting ----------------------------------------------------------

def central_character_vectors(cd: ClassData, p: int) -> list[np.ndarray]:
    """All r common eigenvectors of the class matrices, normalized so the
    identity-class coordinate is 1.  Each vector lists the central character
    values (omega_k mod p) of one irreducible character."""
    r = cd.num_classes
    inv = _inverse_table(p)
    identity = np.eye(r, dtype=np.int64)
    subspaces: list[tuple[np.ndarray, list[int]]] = [(identity, list(range(r)))]
    matrix_index = 1
    while any(b.shape[0] > 1 for b, _ in subspaces):
        if matrix_index >= r:
            raise TableError("class matrices exhausted before eigenspaces "
                             "fully split (implementation bug)")
        a = class_matrix(cd, matrix_index) % p
        new_subspaces = []
        for basis, pivots in subspaces:
            m = basis.shape[0]
            if m == 1:
                new_subspaces.append((basis, pivots))
                continue
            image = basis @ a.T % p
            action = image[:, pivots]
            if not np.array_equal(action @ basis % p, image):
                raise TableError("subspace not invariant (implementation bug)")
            eigenvalues = batched_singular_values(action, p, inv)
            split_dim = 0
            for t in eigenvalues:
                shifted = (action.T - t * np.eye(m, dtype=np.int64)) % p
                coords = nullspace_mod(shifted, p, inv)
                if coords.shape[0] == 0:
                    raise TableError("singular value without nullspace "
                                     "(implementation bug)")
                vectors = coords @ basis % p
                reduced, piv = rref_mod(vectors, p, inv)
                new_subspaces.append((reduced, piv))
                split_dim += reduced.shape[0]
            if split_dim != m:
                raise TableError("eigenspace dimensions do not sum "
                                 "(implementation bug)")
        subspaces = new_subspaces
        matrix_index += 1
    vectors = []
    for basis, _ in subspaces:
        w = basis[0]
        if w[0] == 0:
            raise TableError("central character vanishes at the identity "
                             "(implementation bug)")
        vectors.append(w * inv[w[0]] % p)
    return vectors


def character_degree(w: np.ndarray, cd: ClassData, p: int) -> int:
    """Recover chi(1) from the central character values mod p.

    d^2 = |G| / sum_k omega_k * conj(omega_k) / h_k, computed mod p; the true
    degree is the representative of the square root in (0, p/2).
    """
    order = cd.group.order
    r = cd.num_classes
    total = 0
    for k in range(r):
        h_inv = pow(cd.sizes[k], p - 2, p)
        total = (total + int(w[k]) * int(w[cd.inverse_class[k]]) * h_inv) % p
    if total == 0:
        raise TableError("degree denominator vanished (implementation bug)")
    d_squared = order % p * pow(total, p - 2, p) % p
    for d in range(1, p // 2 + 1):
        if d * d % p == d_squared:
            return d
    raise TableError("no square root for degree found (implementation bug)")


def lift_character(w: np.ndarray, degree: int, cd: ClassData, p: int,
                   z: int) -> list[CycValue]:
    """Exact character values from the mod-p data.

    chi(g) mod p is degree * omega / classsize; the multiplicity of zeta_n^j
    among the eigenvalues of a representing matrix at g (n the order of g)
    is recovered by Fourier inversion over F_p using the power map, and each
    multiplicity lifts exactly because it is below p.
    """
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
        if sum(mult) != degree:
            raise TableError("multiplicities do not sum to the degree "
                             "(implementation bug)")
        values.append(CycValue(n, mult))
    return values
