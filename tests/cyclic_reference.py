"""A product of two values over roots of unity, one pair of nonzero
coefficients at a time, independent of the stack routines in ``chars``:
the exact reference for inner products, column relations and tensor
products in the tests."""

from math import lcm


def cyclic_product(a, b, conjugate=False):
    """a * b, or a * conj(b) with conj(x^k) = x^-k, of two values given as
    (n, coefficient list) over the n-th roots of unity; (m, coefficients)
    in Z[x]/(x^m - 1), m the lcm of the two orders."""
    (n, x), (k, y) = a, b
    m, sign = lcm(n, k), -1 if conjugate else 1
    out = [0] * m
    for i, c in enumerate(x):
        for j, d in enumerate(y):
            if c and d:
                out[(i * (m // n) + sign * j * (m // k)) % m] += c * d
    return m, out
