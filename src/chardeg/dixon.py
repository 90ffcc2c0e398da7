"""Modular core of the character table computation.

The central characters of a finite group are the simultaneous eigenvectors
of its class matrices.  Working modulo a prime p with p = 1 (mod exponent)
and p > 2*sqrt(|G|) makes every eigenvalue land in F_p and keeps all the
lifted integer quantities (degrees, root-of-unity multiplicities) below p,
so the finite-field computation determines the exact table.

Steps (Dixon 1967): take classes smallest first (Schneider 1990), skipping
a class that is a central product of classes taken, or a rational class
once the branches are the Galois orbits of Irr(G), and split e_0 =
sum_chi (chi(1)^2/|G|) omega_chi (column orthogonality) into its r terms.
A central class, which comes first, permutes the classes, and its
eigenvalues are roots of unity known in advance: every branch, a sum of
some of the terms, is cut by one short Fourier transform of its gathers
along that permutation.  Any other class is formed as a matrix, and the
branches on which it is not a scalar are cut into their eigencomponents,
all read off one Krylov sequence, that of their sum.  Then lift all
characters at once from the terms: each degree from its term's identity
entry chi(1)^2/|G|, values by one inverse discrete Fourier transform per
element order on one class per Galois orbit, gathered to the others.

Products of residues mod p (a class matrix's action, the Lagrange
combinations of a Krylov sequence, the central classes' transforms, the
lift's inverse transform) sum k terms below p^2 each, and run in the dtype
cyclotomic.product_dtype picks for k (p - 1)^2: float64, through BLAS,
below 2^50 (k < 1024 at p near 10^6); int64 below 2^62; Python objects
above, which needs k >= 2^22 at the prime ceiling, more classes than the
default element bound allows.  The echelon products of the split stay in
int64: they reduce one vector per step, where BLAS gains nothing on the
casts.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .cyclotomic import _is_prime, _prime_factors, product_dtype
from .errors import TableError
from .groups import ClassData, _orbits

DEFAULT_PRIME_CEILING = 1_000_000


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*sqrt(order)."""
    for p in range(exponent + 1, DEFAULT_PRIME_CEILING + 1, exponent):
        if p * p > 4 * order and _is_prime(p):
            return p
    raise TableError(f"no Dixon prime below {DEFAULT_PRIME_CEILING} "
                     f"for exponent {exponent}")


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
    x_inv = cd.rows[cd.element_index == cd.inverse_class[i]].take(
        cd.base, axis=1).astype(np.intp)
    step = max(1, _GATHER_ROWS // len(x_inv))
    a = np.empty((r, r), dtype=np.int64)
    for k in range(0, r, step):
        reps = cd.rep_rows[k:k + step]
        classes = cd.element_index.take(
            cd.group.chain.rank(reps.take(x_inv, axis=1)))
        classes += np.arange(len(reps))[:, None] * r
        a[:, k:k + len(reps)] = np.bincount(
            classes.ravel(), minlength=len(reps) * r).reshape(-1, r).T
    return a


# -- the splitting ----------------------------------------------------------

def _inverse_dft(n: int, p: int, z: int) -> np.ndarray:
    """The n-point inverse discrete Fourier transform over F_p, n dividing
    p - 1: zeta_n^(-a b) / n at (a, b), zeta_n = z^((p - 1)/n) for the
    primitive root z, so zeta_n^(n/q) = zeta_q for q dividing n."""
    powers = np.array([pow(z, (p - 1) // n * e, p) for e in range(n)])
    e = np.arange(n)
    return powers[-np.outer(e, e) % n] * pow(n, -1, p) % p


def _action(a: np.ndarray, p: int):
    """v -> v @ a.T mod p on a stack of rows v, for a reduced class matrix
    a."""
    dtype = product_dtype(len(a) * (p - 1) ** 2)
    at = a.T.astype(dtype)
    return lambda v: _residues(v.astype(dtype) @ at, p)


def _residues(x: np.ndarray, p: int) -> np.ndarray:
    """An exact integer product, in the dtype product_dtype picked, mod p in
    int64 (remainders run faster in int64 than in float64)."""
    return (x % p if x.dtype == object else x).astype(np.int64) % p


def _scalar(xs: np.ndarray, ys: np.ndarray, p: int) -> np.ndarray:
    """Whether each row y of ys is c x for its row x of xs: y x_a + x (p -
    y_a) = 0 mod p, a the first nonzero entry of x (entry 0 of a branch can
    vanish mod p); nonnegative, as int64 remainders of negatives run slower."""
    at = np.arange(len(xs)), (xs != 0).argmax(axis=1)
    return ((ys * xs[at][:, None] + xs * (p - ys[at])[:, None]) % p
            == 0).all(axis=1)


def split_branches(xs: np.ndarray, ys: np.ndarray, act, p: int) -> np.ndarray:
    """The nonzero components of the rows x of xs on the eigenspaces of A,
    one row each, which act applies to a stack of rows; ys = act(xs).

    The rows are branches, sums over disjoint sets of eigenvectors of A with
    nonzero coefficients, so their sum y has the minimal polynomial m of A
    on all of them.  The Krylov sequences x, Ax, A^2 x, ... of all rows grow
    together, one act per step, and only the row (A^j y, e_j) is reduced in
    echelon form on its first r entries: at the first j where those vanish,
    the last j + 1 hold m.  Its s = j roots t in F_p come from one Horner
    scan, and the component of x at t is q_t(A) x / q_t(t), with q_t = m /
    (X - t) and q_t(t) = m'(t): one s x s Lagrange matrix applied to x, Ax,
    ..., A^(s-1) x of every row.  Checked exactly: m has s distinct roots,
    each component x_t has A x_t = t x_t (the same product on the sequence
    shifted by one), and each row's components sum to it; rows whose
    components cancel in y fail these checks.
    """
    n, r = xs.shape
    krylov = [xs, ys]
    # rows[:s]: echelon rows, 1 at their own pivot and 0 at the others'
    rows = np.zeros((r, 2 * r + 1), dtype=np.int64)
    pivots = np.zeros(r, dtype=np.intp)
    for s in range(r + 1):
        residue = np.zeros(2 * r + 1, dtype=np.int64)
        residue[:r], residue[r + s] = krylov[s].sum(axis=0) % p, 1
        residue -= residue[pivots[:s]] @ rows[:s]
        residue %= p
        pivot = residue[:r].argmax()
        if not residue[pivot]:
            break
        pivots[s] = pivot
        rows[s] = residue * pow(int(residue[pivot]), -1, p) % p
        rows[:s] -= rows[:s, pivot, None] * rows[s]
        rows[:s] %= p
        if len(krylov) == s + 1:
            krylov.append(act(krylov[s]))
    m = residue[r:r + s + 1]  # constant term first
    ts = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for coeff in m[::-1]:
        acc = (acc * ts + coeff) % p
    roots = np.flatnonzero(acc == 0)
    # a monic m of degree s has at most s roots
    if len(roots) != s:
        raise TableError("minimal polynomial without distinct roots in F_p "
                         "(implementation bug)")
    # quotient[k]: m / (X - roots[k]), constant term first
    quotient = np.zeros((s, s), dtype=np.int64)
    quotient[:, -1:] = 1  # q_t is monic
    for e in range(s - 1, 0, -1):
        quotient[:, e - 1] = (m[e] + roots * quotient[:, e]) % p
    # q_t(t) = m'(t), by Horner
    derivative = np.zeros(s, dtype=np.int64)
    for e in range(s, 0, -1):
        derivative = (derivative * roots + e * m[e]) % p
    dtype = product_dtype(s * (p - 1) ** 2)
    # the Lagrange matrix on x, ..., A^(s-1) x above, on Ax, ..., A^s x
    # below: the components and A times them, in one product
    lagrange = np.zeros((2 * s, s + 1), dtype=dtype)
    lagrange[:s, :s] = lagrange[s:, 1:] = (
        quotient * np.array([[pow(int(d), -1, p)] for d in derivative]) % p)
    basis = np.array(krylov[:s + 1], dtype=dtype).reshape(s + 1, -1)
    parts, shifted = np.split(_residues(lagrange @ basis, p), 2)
    if not (np.array_equal(shifted, roots[:, None] * parts % p)
            and np.array_equal(parts.reshape(s, n, r).sum(axis=0) % p, xs)):
        raise TableError("components are not eigenvectors summing to the "
                         "vector (implementation bug)")
    parts = parts.reshape(s, n, r).swapaxes(0, 1)
    return parts[parts.any(axis=2)]


def class_permutation(cd: ClassData, i: int) -> np.ndarray:
    """The class of y^-1 rep_k at index k, for the element y of the central
    class i: A_i[j, k] is 1 at j = class_permutation(cd, i)[k] and 0
    elsewhere.  One rank of the representatives at y^-1's base images, read
    off its class's representative: central too, y^-1 is its one member."""
    y_inv = cd.rep_rows[cd.inverse_class[i]].take(cd.base)
    return cd.element_index.take(cd.group.chain.rank(
        cd.rep_rows.take(y_inv, axis=1)))


def split_central(xs: np.ndarray, move: np.ndarray, q: int, n: int, p: int,
                  z: int) -> np.ndarray:
    """The nonzero components of the rows x of xs on the eigenspaces of A_y,
    one row each, for a central y of order n whose class permutation is
    move, where A_y^q is a scalar c on every x (q divides n).

    A_y x is the gather x[move^-1].  With c = zeta_n^(q j), zeta_n =
    z^((p - 1)/n), the eigenvalues on x are the q-th roots of c, lambda_l =
    zeta_n^(j + l n/q), and the component at lambda_l is (1/q) sum_{m<q}
    lambda_l^-m A_y^m x: the gathers A_y^m x twisted by zeta_n^(-j m), then
    _inverse_dft(q, p, z), in the dtype product_dtype picks for q (p - 1)^2.
    j solves zeta_n^(q j) x_a = (A_y^q x)_a, a the first nonzero entry of x.
    Checked exactly for each x: A_y^q x = zeta_n^(q j) x, which makes
    every component an eigenvector, and the components sum to x.
    """
    b, r = xs.shape
    back = np.argsort(move)
    gathers = np.empty((b, q + 1, r), dtype=np.int64)
    gathers[:, 0] = xs
    for m in range(q):
        gathers[:, m + 1] = gathers[:, m, back]
    zeta = np.array([pow(z, (p - 1) // n * e, p) for e in range(n)])
    at = np.arange(b), (xs != 0).argmax(axis=1)
    # zeta[::q]: the zeta_n^(q j) at j < n/q; no match leaves j = 0
    j = (zeta[::q] * xs[at][:, None] % p
         == gathers[:, q][at][:, None]).argmax(axis=1)
    gathers *= zeta[-np.outer(j, np.arange(q + 1)) % n][:, :, None]
    gathers %= p
    # the q-th gather, twisted, is x iff A_y^q x = zeta_n^(q j) x
    if not np.array_equal(gathers[:, q], xs):
        raise TableError("power of a central class is not a root of unity "
                         "times the identity on a branch (implementation "
                         "bug)")
    dtype = product_dtype(q * (p - 1) ** 2)
    parts = _residues(_inverse_dft(q, p, z).astype(dtype)
                      @ gathers[:, :q].astype(dtype), p)
    if not np.array_equal(parts.sum(axis=1) % p, xs):
        raise TableError("components do not sum to the branch "
                         "(implementation bug)")
    return parts[parts.any(axis=2)]


def central_character_vectors(cd: ClassData, p: int, z: int) -> np.ndarray:
    """The r terms (chi(1)^2 / |G|) omega_chi mod p of e_0, one per row, as
    the split finds them: omega_chi holds the central character values
    (omega_k) of chi and is 1 at the identity, so a term's identity entry
    is chi(1)^2 / |G|; z is a primitive root mod p.

    By column orthogonality e_0 = sum_chi (chi(1)^2 / |G|) omega_chi, no
    coefficient 0 mod p as p does not divide |G|.  Each class used cuts
    every branch, a sum of some of these terms, into its components on the
    eigenspaces of the class's matrix.  The classes come in size order, so
    the central ones come first: the central y of class i acts on omega_chi
    as lambda(y), lambda the central character under chi, and
    split_central cuts the branches by a q-point transform of gathers along
    class_permutation, q the order of y modulo the group Y generated by the
    central classes used, as A_y^q = A_{y^q} is a scalar on every branch.
    So the central classes sort Irr(G) into the sets Irr(G|lambda).  Every
    other class forms its matrix, and split_branches cuts the branches that
    matrix is not a scalar on.  Class i is skipped when its class sum is
    K_y K_C, y in Y and C a used class or the identity: K_y K_C = K_{yC},
    so A_i = A_y A_C is a scalar on every branch left.  Rational classes,
    alone in their cd.galois_orbits, have rational central characters:
    while only they are used, each branch is a union of Galois orbits of
    Irr(G), as many as those of classes (Brauer's permutation lemma, Isaacs,
    1976, ch. 6), so with that many branches each is one orbit and all the
    rational classes are skipped.  Each product sums at most r terms below
    p^2, in float64, int64 or objects as the module docstring says.
    """
    r = cd.num_classes
    branches = np.eye(1, r, dtype=np.int64)
    # the classes y*C, a union of the moves' orbits (y_orbit): a used
    # central y moves class k to that of y^-1 rep_k
    covered = np.zeros(r, dtype=bool)
    covered[0] = True
    moves, y_orbit = [], np.arange(r)
    rational = np.bincount(cd.galois_orbits)[cd.galois_orbits] == 1
    orbits, only_rational = cd.galois_orbits.max() + 1, True
    for i in sorted(range(1, r), key=lambda i: (cd.sizes[i], i)):
        if covered[i]:
            continue
        if len(branches) == r:
            break
        if cd.sizes[i] == 1:
            # only central classes come before, so the central classes
            # covered are the group Y they generate: y^q, q the order of y
            # mod Y, is the first power of y in it
            n = cd.orders[i]
            q = next((m for m in range(1, n)
                      if covered[cd.power_class[i][m]]), n)
            moves.append(class_permutation(cd, i))
            y_orbit = _orbits(moves, r)
            branches = split_central(branches, moves[-1], q, n, p, z)
        else:
            act = _action(class_matrix(cd, i) % p, p)
            images = act(branches)
            scalar = _scalar(branches, images, p)
            if not scalar.all():
                branches = np.concatenate([branches[scalar], split_branches(
                    branches[~scalar], images[~scalar], act, p)])
        covered[i] = True
        only_rational &= bool(rational[i])
        if only_rational and len(branches) == orbits:
            covered |= rational
        closed = np.zeros(r, dtype=bool)
        closed[y_orbit[covered]] = True
        covered = closed[y_orbit]
    if len(branches) != r:
        raise TableError("class matrices exhausted before the branches "
                         "fully split (implementation bug)")
    return branches


def lift_character(w: np.ndarray, cd: ClassData, p: int,
                   z: int) -> tuple[list[int], np.ndarray]:
    """Exact (degrees, mult) of every character, from the rows of w, the
    terms (chi(1)^2 / |G|) omega_chi that central_character_vectors returns:
    row j of mult holds character j's multiplicity vectors, class by class.

    The degree d is the divisor of |G| with d^2 = |G| w_0 mod p and d <=
    sqrt(|G|), unique as p > 2 sqrt(|G|).  chi(g) mod p is d omega / h =
    (|G| / d) w / h, h the class size, inverted by pow; the multiplicity of
    zeta_n^j among the eigenvalues of a representing matrix at g (n the
    order of g) is chi along the power map of g times _inverse_dft(n, p, z),
    one transform per element order, and lifts exactly because it is below
    p.  The matmuls sum n terms below p^2, in the dtype product_dtype picks
    for the largest n (float64 for n (p - 1)^2 < 2^50, else int64 or
    objects).  Only each Galois orbit's least class is transformed:
    zeta_n^(a t) at g^t counts as zeta_n^a at g, so mult gathers their
    blocks, each checked to sum to the degree and to equal its own gather,
    by cd.galois_columns.
    """
    order = cd.group.order
    by_square = {d * d % p: d for d in range(1, isqrt(order) + 1)
                 if order % d == 0}
    degrees = np.array([by_square.get(order * int(t) % p, 0) for t in w[:, 0]],
                       dtype=np.int64)
    if not degrees.all():
        raise TableError("no divisor of |G| squares to |G| times a term's "
                         "identity entry (implementation bug)")
    h_inv = np.array([pow(h, -1, p) for h in cd.sizes], dtype=np.int64)
    # allocated first, so the rows it keeps lie below the temporaries' heap;
    # filled by a take in clip mode, which, unlike raise, does not buffer it
    mult = np.empty((len(degrees), len(cd.galois_columns)), dtype=np.int64)
    dtype = product_dtype(max(cd.orders) * (p - 1) ** 2)
    chi = ((order // degrees % p)[:, None] * w % p * h_inv % p).astype(dtype)
    at = np.cumsum([0, *cd.orders])
    rep = cd.galois_columns[at[:-1]] == at[:-1]  # (k, 0) heads its orbit
    reps, cols = (np.flatnonzero(rep).tolist(),
                  np.flatnonzero(np.repeat(rep, cd.orders)))
    stack = np.empty((len(degrees), len(cols)), dtype=np.int64)
    for n in set(cd.orders[k] for k in reps):
        ks = [k for k in reps if cd.orders[k] == n]
        block = _residues(chi[:, [cd.power_class[k] for k in ks]]
                          @ _inverse_dft(n, p, z).astype(dtype), p)
        if (block.sum(axis=2) != degrees[:, None]).any():
            raise TableError("multiplicities do not sum to the degree "
                             "(implementation bug)")
        columns = np.searchsorted(cols, at[ks][:, None] + np.arange(n))
        stack[:, columns.ravel()] = block.reshape(len(degrees), -1)
    expand = np.searchsorted(cols, cd.galois_columns)
    moved = np.flatnonzero(expand[cols] != np.arange(len(cols)))
    if not np.array_equal(stack[:, expand[cols[moved]]], stack[:, moved]):
        raise TableError("multiplicities are not Galois-stable "
                         "(implementation bug)")
    return degrees.tolist(), stack.take(expand, axis=1, out=mult, mode="clip")
