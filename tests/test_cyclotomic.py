import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from chardeg.cyclotomic import CycValue, product_dtype, reduce_to_power_basis


@pytest.mark.parametrize("n,expected", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 0, 1)),
    (6, (1, -1, 1)),
    (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_polynomials(n, expected):
    # Phi_n by long division, and Phi_n(zeta_n) = 0 (x^n wraps to x^0)
    assert reference_phi(n) == expected
    coeffs = [0] * n
    for k, c in enumerate(expected):
        coeffs[k % n] += c
    assert not any(reduce_to_power_basis(coeffs, n))


def test_phi_degree_is_euler_totient():
    for n in range(1, 40):
        assert len(reference_phi(n)) - 1 == totient(n)
        assert len(reduce_to_power_basis((0,) * n, n)) == totient(n)


def test_root_of_unity_relations():
    # 1 + z3 + z3^2 = 0
    assert not any(reduce_to_power_basis((1, 1, 1), 3))
    assert CycValue(3, (1, 1, 1)).rational() == 0
    # z6 + z6^5 = 1
    v = CycValue(6, (0, 1, 0, 0, 0, 1))
    assert v.rational() == 1
    # z4^2 = -1
    assert CycValue(4, (0, 0, 1, 0)).rational() == -1


def test_embedding_respects_value():
    v = CycValue(3, (2, 1, 0))
    w = v.embed(12)
    assert w.coeffs == (2, 0, 0, 0, 1) + (0,) * 7
    assert v.embed(3) is v
    with pytest.raises(ValueError):
        v.embed(8)
    # 2 + z3 = 1 - z3^2, so over zeta_12, 2 + z12^4 - (1 - z12^8) = 0
    other = (1,) + (0,) * 7 + (-1, 0, 0, 0)
    assert not any(reduce_to_power_basis(
        [a - b for a, b in zip(w.coeffs, other)], 12))
    # a rational value stays itself
    assert CycValue(2, (3, 1)).embed(6).rational() == 2


def test_distinct_formal_vectors_same_value():
    # {z6, z6^3, z6^5} and {1, z3, z3^2} both sum to zero
    a = CycValue(6, (0, 1, 0, 1, 0, 1))
    b = CycValue(3, (1, 1, 1))
    assert a.coeffs != b.embed(6).coeffs and a != b.embed(6)
    assert a.rational() == b.rational() == 0
    assert not any(reduce_to_power_basis(
        [x - y for x, y in zip(a.coeffs, b.embed(6).coeffs)], 6))


def test_rational_detection():
    assert CycValue(8, (3, 0, 0, 0, 0, 0, 0, 0)).rational() == 3
    assert CycValue(8, (0, 1, 0, 0, 0, 0, 0, 0)).rational() is None
    golden = CycValue(5, (0, 1, 0, 0, 1))  # z5 + z5^4, irrational
    assert golden.rational() is None


def test_reduce_to_power_basis_matches_slow_path():
    # large coefficients force the arbitrary-precision fallback
    big = 2 ** 70
    coeffs = [big, -big, 0, big, 0, 0]
    fast_sized = [1, -1, 0, 1, 0, 0]
    scaled = reduce_to_power_basis(coeffs, 6)
    small = reduce_to_power_basis(fast_sized, 6)
    assert scaled == tuple(big * x for x in small)


def test_str():
    v = CycValue(3, (1, 2, 0))
    assert str(v) == "1+2*z3"
    assert str(CycValue(5, (0, 1, 0, -1, 0))) == "z5-1*z5^3"
    assert str(CycValue(4, (0,) * 4)) == "0"


# -- plain references -------------------------------------------------------

@lru_cache(maxsize=None)
def reference_phi(n):
    """Phi_n by long division of x^n - 1 by Phi_d for every proper d | n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = reference_phi(d)
            out = [0] * (len(poly) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                out[i] = c = poly[i + len(den) - 1]
                for j, e in enumerate(den):
                    poly[i + j] -= c * e
            assert not any(poly[:len(den) - 1])
            poly = out
    return tuple(poly)


def reference_reduction(n):
    """Rows x^k mod Phi_n for k < n, by repeated multiplication by x."""
    phi = reference_phi(n)
    deg = len(phi) - 1
    rows, current = [], [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(current)
        lead = current[-1]
        current = [0] + current[:-1]
        if lead:
            current = [c - lead * p for c, p in zip(current, phi)]
    return rows


def totient(n):
    return sum(1 for k in range(n) if gcd(k, n) == 1)


def mobius(n):
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def primes_of(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, p))]


def known_values(n, rng):
    """(coefficients, value) pairs whose value is known by construction: the
    rational value, or None for an irrational one.

    A sum over a coset of mu_p (p a prime dividing n) is 0; the Galois trace
    of zeta_n^a is the Ramanujan sum mu(n/g) phi(n)/phi(n/g), g = gcd(a, n);
    zeta_n^a is irrational unless it is 1 or -1.
    """
    primes = primes_of(n)
    units = [u for u in range(n) if gcd(u, n) == 1]

    def zero_part():
        coeffs = [0] * n
        for _ in range(3):
            if primes:
                p, a = rng.choice(primes), rng.randrange(n)
                w = rng.randint(-3, 3)
                for t in range(p):
                    coeffs[(a + t * n // p) % n] += w
        return coeffs

    for _ in range(3):
        yield zero_part(), 0
        coeffs, a = zero_part(), rng.randrange(n)
        w, c = rng.randint(1, 3), rng.randint(-5, 5)
        coeffs[0] += c
        for u in units:
            coeffs[a * u % n] += w
        g = gcd(a, n)
        yield coeffs, c + w * mobius(n // g) * totient(n) // totient(n // g)
        if n > 2:
            coeffs = zero_part()
            coeffs[rng.choice([a for a in range(1, n) if 2 * a != n])] += 1
            yield coeffs, None


def meaning(coords):
    """The rational value the coordinates give, or None if irrational."""
    return None if any(coords[1:]) else coords[0]


@pytest.mark.parametrize("ns", [range(1, 101), range(101, 201),
                                [840, 1320, 2520, 9240]])
def test_fold_matches_long_division(ns):
    rng = random.Random(ns[0])
    for n in ns:
        cases = list(known_values(n, rng))
        for coeffs, value in cases:
            assert meaning(reduce_to_power_basis(coeffs, n)) == value, n
        if n > 200:
            continue
        # long division by Phi_n decides the same inputs, and random ones
        rows = np.array(reference_reduction(n), dtype=object)
        cases += [([rng.choice((0, 0, 0, 1, -2, 5)) for _ in range(n)], None)
                  for _ in range(3)]
        for coeffs, _ in cases:
            coords = reduce_to_power_basis(coeffs, n)
            reference = tuple((np.array(coeffs) @ rows).tolist())
            assert meaning(coords) == meaning(reference), (n, coeffs)
            if len(primes_of(n)) <= 1:  # the power basis itself
                assert coords == reference, (n, coeffs)


# -- one vector at a time ---------------------------------------------------

def test_batch_equals_row_by_row():
    rng = random.Random(3)
    for n in (1, 2, 12, 30, 840):
        for _ in range(6):
            coeffs = [rng.choice((0, 0, 0, 1, -2, 5)) for _ in range(n)]
            single = reduce_to_power_basis(tuple(coeffs), n)
            assert isinstance(single, tuple) and len(single) == totient(n)
            assert all(type(c) is int for c in single)


def test_batch_beyond_int64_takes_exact_path():
    # 1 + z3 = -z3^2 = 1 + z3 in the power basis, and so is -z3^2 alone,
    # also past 2^62
    big = 2 ** 62 + 1
    assert reduce_to_power_basis((big, big, 0), 3) == (big, big)
    assert reduce_to_power_basis((0, 0, -big), 3) == (big, big)
    assert reduce_to_power_basis((2 ** 80, 0, 2 ** 80), 3) == (0, -2 ** 80)


def test_batch_fractions_stay_exact():
    half = Fraction(1, 2)
    assert reduce_to_power_basis((half, 0, Fraction(1, 3), 0), 4) == \
        (Fraction(1, 6), 0)
    assert reduce_to_power_basis((0, Fraction(1, 7), 0, 0), 4) == \
        (0, Fraction(1, 7))
    assert reduce_to_power_basis((half, half), 2) == (0,)


# -- the product dtype ---------------------------------------------------------

def test_product_dtype_thresholds():
    assert product_dtype(0) is np.float64
    assert product_dtype(2.0**50 - 1) is np.float64
    assert product_dtype(2**50) is np.int64
    assert product_dtype(2.0**62 - 2**10) is np.int64
    assert product_dtype(2**62) is object
    assert product_dtype(2.0**70) is object


@pytest.mark.parametrize("seed", range(4))
def test_float64_products_at_the_edge_of_the_bound_are_exact(seed):
    # k entries near 2^22 per row and column, odd and of mixed signs: the
    # true sums reach about 2^50 and their low bits are all live, so a
    # rounded partial sum would show against the int64 and object products
    rng = np.random.default_rng(seed)
    k, top = 64, 2**22 - 1
    x = rng.choice([-1, 1], (20, k)) * (top - 2 * rng.integers(0, 50, (20, k)))
    y = rng.choice([-1, 1], (k, 30)) * (top - 2 * rng.integers(0, 50, (k, 30)))
    bound = (np.abs(x, dtype=np.float64) @ np.abs(y, dtype=np.float64)).max()
    assert 2**49 < bound < 2**50
    assert product_dtype(bound) is np.float64
    exact = x.astype(object) @ y.astype(object)
    assert np.array_equal(x @ y, exact)
    floats = x.astype(np.float64) @ y.astype(np.float64)
    assert np.array_equal(floats.astype(np.int64), exact)


def test_tensor_above_2_53_takes_the_int64_path():
    # one class over zeta_2 with coefficients (u, v) = (2^27 + 1, 2^27 - 1):
    # the square's coefficient of 1 is u^2 + v^2 = 2^55 + 2, which float64
    # (spacing 8 there) cannot hold; n max|a| max|b| is about 2^55
    from chardeg.chars import Character, tensor
    u, v = 2**27 + 1, 2**27 - 1
    bound = 2 * float(u) * float(u)
    assert 2**53 < bound < 2**60
    assert product_dtype(bound) is np.int64
    a = Character(1, [1, 2], np.array([1, u, v], dtype=np.int64))
    square = tensor(a, a)
    assert square.row.dtype == np.int64
    assert square.row.tolist() == [1, u * u + v * v, 2 * u * v]
    assert float(u) * u + float(v) * v != u * u + v * v
