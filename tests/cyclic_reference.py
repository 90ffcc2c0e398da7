"""A product of two values over roots of unity, one pair of nonzero
coefficients at a time, independent of the stack routines in ``chars``:
the exact reference for inner products, column relations and tensor
products in the tests; and the class function a test writes by hand, as a
``Character`` on its values' root orders."""

from math import lcm

import numpy as np

from chardeg.chars import Character


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


def as_character(degree, values) -> Character:
    """The Character of a CycValue list: class k of the row holds values[k]'s
    coefficients over its own roots of unity, in int64 if every coefficient
    is an int of size < 2^62, else as Python objects."""
    flat = [c for v in values for c in v.coeffs]
    row = np.array(flat)
    if row.dtype != np.int64 or not (-2**62 < row.min() and row.max() < 2**62):
        row = np.array(flat, dtype=object)
    return Character(degree, [v.n for v in values], row)
