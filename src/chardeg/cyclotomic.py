"""Exact arithmetic with sums of roots of unity.

A value is a coefficient vector over the n-th roots of unity: ``coeffs[k]``
multiplies zeta_n^k.  Character values carry their canonical form (the
eigenvalue multiplicities of a representing matrix), but the arithmetic here
is valid for arbitrary integer vectors.

Exact questions (is this value zero / rational / equal to another) are
answered by rewriting in the power basis of Q(zeta_n): the reduction of x^k
modulo the n-th cyclotomic polynomial is precomputed once per n, making the
rewrite of one value, or of a whole batch, one integer matrix product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, exact integers.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n: the
    factors with mu = +1 are multiplied out, then those with mu = -1 are
    divided out exactly.
    """
    primes = _prime_factors(n)
    numer, denom = [], []
    for mask in range(1 << len(primes)):  # squarefree m | n, d = n / m
        d, mu = n, 1
        for bit, q in enumerate(primes):
            if mask >> bit & 1:
                d, mu = d // q, -mu
        (numer if mu > 0 else denom).append(d)
    poly = np.ones(1, dtype=object)  # Python ints: exact at any size
    for d in numer:  # times (x^d - 1)
        pad = np.zeros(d, dtype=object)
        poly = np.concatenate([pad, poly]) - np.concatenate([poly, pad])
    for d in denom:
        # quot * (x^d - 1) = poly, so quot[m] = poly[m + d] + quot[m + d]:
        # solved d coefficients at a time from the top, above which quot is 0
        quot = np.zeros(len(poly), dtype=object)
        for hi in range(len(poly) - d, 0, -d):
            lo = max(hi - d, 0)
            quot[lo:hi] = poly[lo + d:hi + d] + quot[lo + d:hi + d]
        assert not (poly[:d] + quot[:d]).any(), "non-exact polynomial division"
        poly = quot[:len(poly) - d]
    return tuple(poly.tolist())


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(p: int) -> bool:
    return _prime_factors(p) == [p]


@lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> tuple[np.ndarray, int]:
    """The n x phi(n) int64 matrix whose row k holds x^k reduced mod Phi_n,
    and its largest |entry|.

    Row k is x times row k-1, with x^phi(n) rewritten through Phi_n.  Raises
    OverflowError if an entry could leave int64.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    low = np.array([-c for c in phi[:-1]], dtype=np.int64)
    # x^deg = sum(low[j] * x^j) mod Phi_n; bound covers every |entry| so far
    step, bound = int(np.abs(low).max()), 1
    arr = np.zeros((n, deg), dtype=np.int64)
    arr[:deg] = np.eye(deg, dtype=np.int64)
    for k in range(deg, n):
        prev = arr[k - 1]
        arr[k, 1:] = prev[:-1]
        lead = int(prev[-1])
        if lead:
            arr[k] += lead * low
            bound += abs(lead) * step
    if bound >= 2**63:
        raise OverflowError(f"reduction matrix for n = {n} exceeds int64")
    return arr, int(max(arr.max(), -arr.min()))  # no |arr| temporary


def reduce_to_power_basis(coeffs, n: int):
    """Coordinates of sum(coeffs[..., k] * zeta_n^k) in the power basis of
    Q(zeta_n), exact.

    ``coeffs`` is one vector of length n, giving a tuple of phi(n) numbers,
    or a batch of shape (..., n), giving an array of shape (..., phi(n)).
    Columns that are zero in every entry are dropped; the rest meet the
    reduction matrix in one matmul, in int64 when the largest L1 norm of an
    entry times the largest matrix entry is provably below 2^63, and over
    Python objects otherwise, so big ints and Fractions stay exact.
    """
    arr, max_entry = _reduction_matrix(n)
    batch = np.asarray(coeffs)
    if batch.dtype.kind not in "iub":  # Fractions, or ints beyond 64 bits
        batch = np.asarray(coeffs, dtype=object)
    flat = batch.reshape(-1, n)
    cols = flat.any(axis=0).nonzero()[0]
    flat, rows = flat[:, cols], arr[cols]
    # the float L1 norm is within a factor 1 + n * 2^-53 of the exact one, so
    # a float bound below 2^62 proves the exact one below 2^63
    if batch.dtype != object and max_entry * float(
            np.abs(flat, dtype=np.float64).sum(axis=1).max(initial=0)) < 2**62:
        out = flat.astype(np.int64, copy=False) @ rows
    else:
        out = flat.astype(object) @ rows.astype(object)
    out = out.reshape(batch.shape[:-1] + (arr.shape[1],))
    return tuple(out.tolist()) if batch.ndim == 1 else out


class CycValue:
    """An exact element of Z[zeta_n] (or Q[zeta_n] with Fraction coeffs)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != n:
            raise ValueError("coefficient vector must have length n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycValue is immutable")

    @staticmethod
    def from_rational(r, n: int = 1) -> "CycValue":
        return CycValue(n, (r,) + (0,) * (n - 1))

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "CycValue":
        coeffs = [0] * n
        coeffs[k % n] = 1
        return CycValue(n, coeffs)

    def embed(self, m: int) -> "CycValue":
        """Rewrite over the m-th roots (n must divide m)."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        step = m // self.n
        coeffs = [0] * m
        for k, c in enumerate(self.coeffs):
            coeffs[k * step] = c
        return CycValue(m, coeffs)

    def _common(self, other: "CycValue"):
        m = self.n * other.n // gcd(self.n, other.n)
        return self.embed(m), other.embed(m)

    def __add__(self, other: "CycValue") -> "CycValue":
        a, b = self._common(other)
        return CycValue(a.n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other: "CycValue") -> "CycValue":
        a, b = self._common(other)
        return CycValue(a.n, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other: "CycValue") -> "CycValue":
        a, b = self._common(other)
        out = [0] * a.n
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[(i + j) % a.n] += x * y
        return CycValue(a.n, out)

    def scale(self, r) -> "CycValue":
        return CycValue(self.n, tuple(r * c for c in self.coeffs))

    def conjugate(self) -> "CycValue":
        out = [0] * self.n
        for k, c in enumerate(self.coeffs):
            out[(-k) % self.n] = c
        return CycValue(self.n, out)

    def is_zero(self) -> bool:
        return not any(reduce_to_power_basis(self.coeffs, self.n))

    def rational(self):
        """The value as a Fraction if it is rational, else None."""
        coords = reduce_to_power_basis(self.coeffs, self.n)
        if any(coords[1:]):
            return None
        return Fraction(coords[0])

    def value_eq(self, other: "CycValue") -> bool:
        """Equality as complex numbers (not as formal vectors)."""
        return (self - other).is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycValue) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"CycValue({self.n}, {list(self.coeffs)})"

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                root = f"z{self.n}" if k == 1 else f"z{self.n}^{k}"
                terms.append(root if c == 1 else f"{c}*{root}")
        return "+".join(terms).replace("+-", "-") if terms else "0"

    def complex(self) -> complex:
        """Float approximation (display / heuristics only)."""
        out = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                out += complex(c) * np.exp(2j * np.pi * k / self.n)
        return out
