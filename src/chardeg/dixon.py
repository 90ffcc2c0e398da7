"""Modular core of the character table computation.

The central characters of a finite group are the simultaneous eigenvectors
of its class matrices.  Working modulo a prime p with p = 1 (mod exponent)
and p > 2*sqrt(|G|) makes every eigenvalue land in F_p and keeps all the
lifted integer quantities (degrees, root-of-unity multiplicities) below p,
so the finite-field computation determines the exact table.

Steps (Dixon 1967): take class matrices smallest class first (Schneider
1990), skipping a class that is a central product of classes taken, and
split F_p^r into common eigenspaces, leaving a subspace whole where a
matrix acts on it as a scalar and otherwise taking the roots of the
characteristic polynomial of its action (Hessenberg form, one Horner pass
over F_p); normalize each 1-dimensional common eigenvector into central
character values; then lift all characters at once: degrees from one sum
mod p, values by one inverse discrete Fourier transform per element order.
"""

from __future__ import annotations

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


# -- linear algebra mod p ---------------------------------------------------

def _inverse_table(p: int) -> np.ndarray:
    """v^-1 mod the odd prime p at index v, and 0 at 0."""
    return np.array([pow(v, p - 2, p) for v in range(p)], dtype=np.int64)


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


def nullspace_mod(a: np.ndarray, p: int,
                  inv: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Basis of the right nullspace of a mod p, from one RREF: one row per
    free column, the identity on the free columns.  Returns (basis, free)."""
    reduced, pivots = rref_mod(a, p, inv)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -reduced[:, free].T % p
    return basis, free


def charpoly_mod(a: np.ndarray, p: int, inv: np.ndarray) -> np.ndarray:
    """Coefficients of det(x*I - a) mod p, constant term first: a similar
    Hessenberg form, then the recurrence for the characteristic polynomials
    of its leading blocks, O(m^3) (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, Algorithm 2.2.9)."""
    h = a % p
    m = h.shape[0]
    for k in range(1, m - 1):
        nz = np.flatnonzero(h[k:, k - 1])
        if nz.size == 0:
            continue
        i = k + int(nz[0])
        h[[k, i]] = h[[i, k]]
        h[:, [k, i]] = h[:, [i, k]]
        u = h[k + 1:, k - 1] * inv[h[k, k - 1]] % p
        h[k + 1:] = (h[k + 1:] - u[:, None] * h[k]) % p
        h[:, k] = (h[:, k] + h[:, k + 1:] @ u) % p
    # polys[k]: characteristic polynomial of the leading k x k block;
    # t[i - 1] = h[k-1, k-2] * h[k-2, k-3] * ... (i subdiagonal entries)
    polys = np.zeros((m + 1, m + 1), dtype=np.int64)
    polys[0, 0] = 1
    t = np.zeros(0, dtype=np.int64)
    for k in range(1, m + 1):
        poly = (np.concatenate(([0], polys[k - 1, :-1]))
                - h[k - 1, k - 1] * polys[k - 1])
        if k > 1:
            t = np.concatenate(([1], t)) * h[k - 1, k - 2] % p
            poly -= t * h[k - 2::-1, k - 1] % p @ polys[k - 2::-1]
        polys[k] = poly % p
    return polys[m]


def eigenvalues_mod(a: np.ndarray, p: int, inv: np.ndarray) -> list[int]:
    """All t in F_p with det(a - t*I) = 0: the characteristic polynomial
    evaluated at every point of F_p by one vectorised Horner pass."""
    ts = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in charpoly_mod(a, p, inv)[::-1]:
        acc = (acc * ts + c) % p
    return np.flatnonzero(acc == 0).tolist()


# -- the splitting ----------------------------------------------------------

# Most array elements one image gather in the split may hold.  The gather
# replaces the dense product where a row's nonzeros are at most r / 16: at
# r = 128 a dense product costs as much as a gather over 12 per row.
_IMAGE_ELEMENTS = 1 << 21
_SPARSE_RATIO = 16


def central_character_vectors(cd: ClassData, p: int) -> np.ndarray:
    """All r common eigenvectors of the class matrices, one per row,
    normalized so the identity-class coordinate is 1.  Each row lists the
    central character values (omega_k mod p) of one irreducible character.

    Class i is skipped when its class sum is K_z K_C, z in the group
    generated by the central classes used and C a used class or the
    identity: K_z K_C = K_{zC}, so A_i = A_z A_C acts as a scalar on every
    subspace left, each lying in one eigenspace of every matrix used."""
    r = cd.num_classes
    inv = _inverse_table(p)
    # each subspace: a basis and the columns on which that basis is I
    subspaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    # the classes z*C; a used central z moves class k to that of z^-1 rep_k
    covered = np.zeros(r, dtype=bool)
    covered[0] = True
    moves = []
    for i in sorted(range(1, r), key=lambda i: (cd.sizes[i], i)):
        if covered[i]:
            continue
        if all(b.shape[0] == 1 for b, _ in subspaces):
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
        # a row of a has at most |C_i| nonzeros; where they are few against
        # r, image = basis @ a.T is a gather and sum over each row's
        # nonzeros, padded with zero entries of a, else a dense product
        width = max(1, (a != 0).sum(axis=1).max())
        sparse = width * _SPARSE_RATIO <= r
        if sparse:
            gather = np.argpartition(a == 0, width - 1, axis=1)[:, :width]
            weights = np.take_along_axis(a, gather, axis=1)
            step = max(1, _IMAGE_ELEMENTS // gather.size)
        new_subspaces = []
        for basis, pivots in subspaces:
            m = basis.shape[0]
            if m == 1:
                new_subspaces.append((basis, pivots))
                continue
            image = basis @ a.T % p if not sparse else np.concatenate([
                (basis[lo:lo + step, gather] * weights).sum(axis=2) % p
                for lo in range(0, m, step)])
            # a scalar action c*I on an invariant subspace is image = c*basis
            if np.array_equal(image, image[0, pivots[0]] * basis % p):
                new_subspaces.append((basis, pivots))
                continue
            # image = action @ basis holds on the pivots, where basis is I
            action = image[:, pivots]
            rest = np.ones(r, dtype=bool)
            rest[pivots] = False
            if not np.array_equal(action @ basis[:, rest] % p, image[:, rest]):
                raise TableError("subspace not invariant (implementation bug)")
            eye = np.eye(m, dtype=np.int64)
            split_dim = 0
            for t in eigenvalues_mod(action, p, inv):
                coords, free = nullspace_mod((action.T - t * eye) % p, p, inv)
                if coords.shape[0] == 0:
                    raise TableError("singular value without nullspace "
                                     "(implementation bug)")
                new_subspaces.append((coords @ basis % p,
                                      [pivots[f] for f in free]))
                split_dim += coords.shape[0]
            if split_dim != m:
                raise TableError("eigenspace dimensions do not sum "
                                 "(implementation bug)")
        subspaces = new_subspaces
    if any(b.shape[0] > 1 for b, _ in subspaces):
        raise TableError("class matrices exhausted before eigenspaces "
                         "fully split (implementation bug)")
    w = np.concatenate([b for b, _ in subspaces])
    if not w[:, 0].all():
        raise TableError("central character vanishes at the identity "
                         "(implementation bug)")
    return w * inv[w[:, 0]][:, None] % p


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
