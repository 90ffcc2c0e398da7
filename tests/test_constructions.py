import hashlib
import tracemalloc

import numpy as np
import pytest

from chardeg.chars import character_table
from chardeg.constructions import (DEFAULT_POLYS, FiniteField,
                                   MatrixGroupSpec, central_product,
                                   direct_product, fiber_product,
                                   matrix_domain, matrix_to_perm,
                                   perm_from_matrix_group)
from chardeg.corpusio import default_corpus_path, parse_group_file
from chardeg.errors import ChardegError
from chardeg.groups import (Group, center, conjugacy_classes, is_perfect,
                            quotient_group)
from chardeg.perms import parse_cycles


def make(gens, degree, name=None):
    return Group([parse_cycles(s, degree) for s in gens], degree, name=name)


# -- finite fields -----------------------------------------------------------

def test_prime_field():
    f = FiniteField(5)
    assert f.q == 5
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(1) == 4


def test_f9_arithmetic():
    f = FiniteField(3, 2)  # x^2 + 2x + 2
    x = 3  # the class of x
    # x^2 = -2x - 2 = x + 1 -> encoding 4
    assert f.mul(x, x) == 4
    # x has multiplicative order 8
    e, power = 0, 1
    while True:
        power = f.mul(power, x)
        e += 1
        if power == 1:
            break
    assert e == 8
    for a in range(1, 9):
        assert f.mul(a, f.inv(a)) == 1


def schoolbook_mul(p, k, poly, a, b):
    """a*b in F_{p^k} from the base-p digits: the polynomial product, then
    reduction by the monic modulus poly (ascending coefficients)."""
    da = [a // p ** i % p for i in range(k)]
    db = [b // p ** i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c, prod[i] = prod[i], 0
        for j in range(k):
            prod[i - k + j] = (prod[i - k + j] - c * poly[j]) % p
    return sum(d * p ** i for i, d in enumerate(prod[:k]))


FIELDS = sorted(DEFAULT_POLYS) + [(p, 1) for p in (2, 3, 5, 7, 11, 13)]


@pytest.mark.parametrize("p,k", FIELDS, ids=[f"F{p}^{k}" for p, k in FIELDS])
def test_field_tables_match_the_schoolbook_reference(p, k):
    f = FiniteField(p, k)
    poly = DEFAULT_POLYS.get((p, k), (0, 1))
    q = p ** k
    for a in range(q):
        digits_a = [a // p ** i % p for i in range(k)]
        for b in range(q):
            digits_b = [b // p ** i % p for i in range(k)]
            total = sum((x + y) % p * p ** i
                        for i, (x, y) in enumerate(zip(digits_a, digits_b)))
            assert f.add(a, b) == total
            assert f.mul(a, b) == schoolbook_mul(p, k, poly, a, b)
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    assert all(type(x) is int for x in (f.add(1, 1), f.neg(1), f.mul(1, 1),
                                        f.inv(1)))
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_reducible_modulus_rejected():
    with pytest.raises(ChardegError):
        FiniteField(3, 2, poly=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2)


def test_field_without_default_poly():
    with pytest.raises(ChardegError):
        FiniteField(11, 2)


# -- matrix groups -----------------------------------------------------------

def test_sl25_on_vectors():
    spec = MatrixGroupSpec(p=5, k=1, n=2,
                           generators=[(1, 1, 0, 1), (2, 0, 0, 3),
                                       (0, 1, 4, 0)],
                           action="vectors", name="SL2_5")
    g = perm_from_matrix_group(spec)
    assert g.degree == 24
    assert g.order == 120
    assert center(g).order == 2


def test_sl27_projective_is_psl():
    spec = MatrixGroupSpec(p=7, k=1, n=2,
                           generators=[(1, 1, 0, 1), (3, 0, 0, 5),
                                       (0, 1, 6, 0)],
                           action="projective", name="PSL2_7")
    g = perm_from_matrix_group(spec)
    assert g.degree == 8
    assert g.order == 168


def test_sl29_is_double_cover_of_a6():
    spec = MatrixGroupSpec(p=3, k=2, n=2,
                           generators=[(1, 1, 0, 1), (3, 0, 0, 5),
                                       (0, 1, 2, 0)],
                           action="vectors", name="SL2_9")
    g = perm_from_matrix_group(spec)
    assert g.degree == 80
    assert g.order == 720
    z = center(g)
    assert z.order == 2
    q = quotient_group(g, z)
    assert sorted(conjugacy_classes(q.group).sizes) == \
        sorted([1, 45, 40, 40, 90, 72, 72])


def test_sl2q_center_order():
    for p_char, gens in ((5, [(1, 1, 0, 1), (2, 0, 0, 3), (0, 1, 4, 0)]),
                         (7, [(1, 1, 0, 1), (3, 0, 0, 5), (0, 1, 6, 0)])):
        g = perm_from_matrix_group(MatrixGroupSpec(
            p=p_char, k=1, n=2, generators=gens, action="vectors"))
        assert center(g).order == 2  # gcd(2, q - 1)


def test_singular_generator_rejected():
    with pytest.raises(ChardegError):
        perm_from_matrix_group(MatrixGroupSpec(
            p=5, k=1, n=2, generators=[(1, 1, 2, 2)], action="vectors"))


def test_matrix_to_perm_element():
    spec = MatrixGroupSpec(p=5, k=1, n=2,
                           generators=[(1, 1, 0, 1)], action="vectors")
    minus_identity = matrix_to_perm(spec, (4, 0, 0, 4))
    assert minus_identity.order() == 2


@pytest.mark.parametrize("entry", [-1, 5, 7])
def test_matrix_entries_outside_the_field_are_refused(entry):
    # -1 would be read as element q - 1 through negative indexing
    spec = MatrixGroupSpec(p=5, k=1, n=2, generators=[(1, 1, 0, 1)])
    with pytest.raises(ChardegError, match="0..4"):
        matrix_to_perm(spec, (entry, 0, 0, 1))


def test_corpus_matrix_generators_are_pinned():
    # the images of every matrix generator in the corpus and of the two
    # "zm mat" payloads, as computed by the digit-list field and the
    # per-vector action that the lookup tables replaced
    specs = {f.stem: parse_group_file(f.read_text())
             for f in default_corpus_path().glob("*.grp")}
    digest = hashlib.sha256()
    count = 0
    for name, spec in sorted(specs.items()):
        if spec.kind == "mat":
            pairs = [(spec, m) for m in spec.matrix.generators]
        elif spec.kind == "central":
            pairs = [(specs[ref], tuple(int(x) for x in payload.split()))
                     for ref, payloads in zip(spec.refs, (spec.zm, spec.zc))
                     for kind, payload in payloads if kind == "mat"]
        else:
            continue
        for owner, mat in pairs:
            perm = matrix_to_perm(owner.matrix, mat)
            digest.update(f"{name} {perm.images}\n".encode())
            count += 1
    assert count == 28  # 26 generators of 9 mat entries, 2 payloads
    assert digest.hexdigest() == (
        "8e284945e2aafad5a66dbb5728d92712120aad39c0783248f36ce45cc6e4f5b3")


def test_projective_domain_is_built_without_the_vector_list():
    # PG(2, 251) has 63 253 points; the 251^3 vectors would take gigabytes
    # as tuples.  Codes and coordinate rows are size x n at most.
    spec = MatrixGroupSpec(p=251, k=1, n=3, generators=[],
                           action="projective")
    tracemalloc.start()
    try:
        codes, coords = matrix_domain(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coords.shape == (63253, 3)
    assert peak < 8 << 20
    assert (codes[1:] > codes[:-1]).all()
    weights = 251 ** np.arange(3)
    assert (coords @ weights == codes).all()
    lead = np.take_along_axis(coords, (coords != 0).argmax(axis=1)[:, None],
                              axis=1)
    assert (lead == 1).all()


def test_domain_order_is_the_sorted_codes():
    # the q^n - 1 vectors in code order, and the projective points among
    # them: the old per-vector filter, on a small space
    for action in ("vectors", "projective"):
        spec = MatrixGroupSpec(p=3, k=1, n=3, generators=[], action=action)
        codes, coords = matrix_domain(spec)
        rows = [tuple(i // 3 ** j % 3 for j in range(3)) for i in range(1, 27)]
        if action == "projective":
            rows = [v for v in rows if next(x for x in v if x) == 1]
        assert [tuple(r) for r in coords.tolist()] == rows
        assert codes.tolist() == [sum(x * 3 ** j for j, x in enumerate(v))
                                  for v in rows]


# -- direct products ---------------------------------------------------------

def test_direct_with_trivial():
    a5 = make(["(1 2 3 4 5)", "(1 2 3)"], 5, "A5")
    trivial = Group([], 1)
    g = direct_product(a5, trivial)
    assert g.order == 60


def test_c2_times_c2():
    c2 = make(["(1 2)"], 2, "C2")
    g = direct_product(c2, c2)
    assert g.order == 4
    assert conjugacy_classes(g).num_classes == 4


def test_a5_squared_degrees(cat):
    t = character_table(cat.group("A5xA5"))
    base = [1, 3, 3, 4, 5]
    expected = sorted(d * e for d in base for e in base)
    assert t.degrees() == expected
    assert len(t.chars) == 25


# -- central products --------------------------------------------------------

def test_central_product_with_trivial_amalgamation():
    d8 = make(["(1 2 3 4)", "(2 4)"], 4, "D8")
    c3 = make(["(1 2 3)"], 3, "C3")
    cp = central_product(d8, c3, [], [])
    assert cp.group.order == 24  # degenerate case: direct product


def test_central_product_orders(cat):
    assert cat.group("SL25oC4").order == 240
    assert cat.group("SL25oQ8").order == 480
    assert cat.group("D8oQ8").order == 32


def test_central_product_extraspecial(cat):
    g = cat.group("D8oQ8")
    assert center(g).order == 2
    q = quotient_group(g, center(g))
    assert q.group.is_abelian()
    assert q.group.order == 16


def test_central_product_rejects_non_central():
    d8 = make(["(1 2 3 4)", "(2 4)"], 4, "D8")
    c2 = make(["(1 2)"], 2, "C2")
    rotation = parse_cycles("(1 2 3 4)", 4)  # not central in D8
    with pytest.raises(ChardegError):
        central_product(d8, c2, [rotation], [parse_cycles("(1 2)", 2)])


def test_central_product_rejects_bad_matching():
    c4 = make(["(1 2 3 4)"], 4, "C4")
    c2 = make(["(1 2)"], 2, "C2")
    # matching a generator of order 4 with one of order 2 is not an iso
    with pytest.raises(ChardegError):
        central_product(c4, c2, [parse_cycles("(1 2 3 4)", 4)],
                        [parse_cycles("(1 2)", 2)])


def test_central_product_builds_factor_images_on_first_use():
    c4 = make(["(1 2 3 4)"], 4, "C4")
    z = parse_cycles("(1 3)(2 4)", 4)
    cp = central_product(c4, c4, [z], [z])
    assert "m_image" not in vars(cp) and "c_image" not in vars(cp)
    assert cp.m_image.order == cp.c_image.order == 4
    assert cp.m_image is cp.m_image
    assert cp.z_image.order == 2


def test_central_product_images(cat):
    cp = cat.entry("SL25oC4").construction
    assert cp.m_image.order == 120
    assert cp.c_image.order == 4
    assert cp.z_image.order == 2


# -- fiber products ----------------------------------------------------------

def test_fiber_with_identity_projection():
    s4 = make(["(1 2 3 4)", "(1 2)"], 4, "S4")
    v4 = s4.subgroup([parse_cycles("(1 2)(3 4)", 4),
                      parse_cycles("(1 3)(2 4)", 4)])
    q = quotient_group(s4, v4)
    f = fiber_product(s4, q.group, q.gen_images,
                      list(q.group.generators), q.group)
    assert f.order == s4.order


def test_fiber_sl25_squared(cat):
    sl25 = cat.group("SL2_5")
    z = center(sl25)
    q = quotient_group(sl25, z)
    f = fiber_product(sl25, sl25, q.gen_images, q.gen_images, q.group)
    assert f.order == 120 * 120 // 60


def test_fiber_6a6(cat):
    g = cat.group("6A6")
    assert g.order == 2160
    assert is_perfect(g)
    z = center(g)
    assert z.order == 6
    assert max(e.order() for e in z.elements()) == 6  # cyclic


def test_fiber_bad_epimorphism_data(cat):
    a6 = cat.group("A6")
    s4 = make(["(1 2 3 4)", "(1 2)"], 4, "S4")
    v4 = s4.subgroup([parse_cycles("(1 2)(3 4)", 4),
                      parse_cycles("(1 3)(2 4)", 4)])
    q = quotient_group(s4, v4)
    with pytest.raises(ChardegError):
        # images do not generate the claimed quotient
        fiber_product(s4, s4, [q.group.identity()] * 2,
                      [q.group.identity()] * 2, q.group)
