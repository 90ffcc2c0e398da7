"""Exact sums of roots of unity.

A value is a coefficient vector over the n-th roots of unity: ``coeffs[k]``
multiplies zeta_n^k.  Character values carry their canonical form (the
eigenvalue multiplicities of a representing matrix); other vectors may hold
the same value.  Arithmetic is done on stacks of vectors in ``chars``.

Whether a value is rational is answered by rewriting it in a basis of
Q(zeta_n) made of powers of zeta_n, 1 first, by one fold per prime-power
factor q of n.  For coprime factors Q(zeta_n) is the tensor product of the
Q(zeta_q), zeta_n^a being the product of the roots zeta_q^(a mod q); and
for q = p^k, Phi_q(y) = sum of y^(t q/p) over t < p, so rewriting modulo
Phi_q subtracts the last of p blocks from the others.  For prime-power n
the result is the power basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np


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


def _is_input_prime(p: int) -> bool:
    """Whether p, given from outside, is a prime below 2^31.  Larger values
    are refused before trial division, which runs to sqrt(p); a prime
    divides the order of a permutation group only if it is at most the
    degree, so no group chardeg can hold needs one."""
    return p < 2**31 and _is_prime(p)


def totient(n: int) -> int:
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def mobius(n: int) -> int:
    primes = _prime_factors(n)
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def product_dtype(bound: float):
    """The dtype in which sums of products of integer arrays are exact,
    given a bound (computed in floats) on sum_k |x_ik| |y_kj| over every
    entry of x @ y, or on the terms of any other such sum: float64 below
    2^50, where BLAS runs it; int64 below 2^62; Python objects above.

    Why float64 is exact: a term x_ik y_kj with both factors nonzero has
    |x_ik|, |y_kj| <= |x_ik y_kj| <= bound, and a factor whose partners are
    all 0 only ever meets 0, so every nonzero operand, product and partial
    sum is an integer of size below 2^53 and is held exactly, whatever the
    summation order and with or without fused multiply-adds (BLAS does no
    Strassen-type recombination).  A bound summed in floats over m
    nonnegative terms is within a factor 1 + m 2^-52 of the exact one while
    m < 2^51, so a computed bound below 2^50 puts the true one below 2^53.
    The int64 threshold leaves a factor 2 against 2^63 in the same way.
    """
    if bound < 2**50:
        return np.float64
    return np.int64 if bound < 2**62 else object


def reduce_to_power_basis(coeffs, n: int) -> tuple:
    """Coordinates of sum(coeffs[k] * zeta_n^k) in the basis of Q(zeta_n)
    above, as a tuple of phi(n) numbers, exact over Python ints and
    Fractions: the value is zero iff every coordinate is, and rational iff
    all but the first are, the first then being the value."""
    factors = [(p, gcd(n, p ** n.bit_length())) for p in _prime_factors(n)]
    # order[r_1, ..., r_m] = the a < n with a = r_i mod q_i for each i
    order = np.zeros((), dtype=np.int64)
    for _, q in factors:
        unit = n // q * pow(n // q, -1, q)  # 1 mod q, 0 mod n/q
        order = (order[..., None] + unit * np.arange(q)) % n
    out, rest = np.array(coeffs, dtype=object)[order.ravel()], n
    for p, q in factors:
        rest //= q
        blocks = out.reshape(-1, p, q // p * rest)
        out = blocks[:, :-1] - blocks[:, -1:]
    return tuple(out.ravel().tolist())


@dataclass(frozen=True, slots=True)
class CycValue:
    """An exact element of Z[zeta_n] (or Q[zeta_n] with Fraction coeffs);
    equality is of the coefficient vectors, not of the values."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.n:
            raise ValueError("coefficient vector must have length n")

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

    def rational(self):
        """The value as a Fraction if it is rational, else None."""
        coords = reduce_to_power_basis(self.coeffs, self.n)
        if any(coords[1:]):
            return None
        return Fraction(coords[0])

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
