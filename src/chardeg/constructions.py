"""Group constructions: matrix groups over small finite fields, direct
products, central products, and fiber products.

A field is its q x q add and mul tables, so each operation is one read.  A
matrix group acts on nonzero row vectors or projective points, coded base q
and sorted; one table gather per coordinate maps the whole domain, so the
result is an ordinary permutation group and nothing downstream needs to know
about fields.  Central products are realized as quotients of a direct
product by an anti-diagonal central subgroup; fiber products are assembled
from the two kernels plus matched generator lifts found by word search
through the common quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .bsgs import MAX_DEGREE
from .errors import (ChardegError, GroupTooLargeError, NotMemberError,
                     ParseError)
from .groups import Group, Quotient, Subgroup, quotient_group, word_table
from .perms import Permutation

MAX_FIELD_TABLE = 1 << 16  # q^2 bound on a field's tables; the corpus: q <= 13

# monic irreducible polynomials (ascending coefficients, leading 1) used
# when a group file does not specify one
DEFAULT_POLYS = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def field_order(p: int, k: int) -> int:
    """q = p^k once q^2 <= MAX_FIELD_TABLE is known; k is bounded first
    (q^2 >= 4^k), so a huge k forms no huge power."""
    if k < 1 or p < 2:
        raise ValueError("need p >= 2, k >= 1")
    if 2 * k >= MAX_FIELD_TABLE.bit_length() or p ** (2 * k) > MAX_FIELD_TABLE:
        raise GroupTooLargeError(f"field of order {p}^{k}: its tables would "
                                 f"exceed {MAX_FIELD_TABLE} entries")
    return p ** k


class FiniteField:
    """F_{p^k} with elements coded 0..q-1, q = p^k: the base-p digits of a
    code, constant first, are a polynomial in x modulo ``poly``.

    ``add_table`` and ``mul_table`` are q x q arrays (q^2 is checked against
    MAX_FIELD_TABLE first) in the least unsigned dtype holding q - 1;
    ``neg_table`` and ``inv_table`` are read off them, with inv_table[0] = 0.
    """

    def __init__(self, p: int, k: int = 1, poly=None):
        q = field_order(p, k)
        if k == 1:
            poly = (0, 1)
        elif poly is None:
            if (p, k) not in DEFAULT_POLYS:
                raise ChardegError(
                    f"no default irreducible polynomial for F_{p}^{k}; "
                    "specify one")
            poly = DEFAULT_POLYS[(p, k)]
        poly = tuple(c % p for c in poly)
        if len(poly) != k + 1 or poly[-1] != 1:
            raise ChardegError("modulus must be monic of degree k")
        self.p, self.k, self.q, self.poly = p, k, q, poly
        weights = p ** np.arange(k)
        digits = np.arange(q)[:, None] // weights % p  # q x k
        # a*b = sum_i a_i (b x^i), shifted holding b x^i reduced by poly
        product, shifted = 0, digits
        for i in range(k):
            product = product + digits[:, i, None, None] * shifted
            shifted = (np.pad(shifted[:, :-1], ((0, 0), (1, 0)))
                       - shifted[:, -1:] * poly[:k]) % p
        dtype = np.min_scalar_type(q - 1)
        self.add_table = ((digits[:, None] + digits) % p @ weights).astype(dtype)
        self.mul_table = (product % p @ weights).astype(dtype)
        self.neg_table = (self.add_table == 0).argmax(axis=1).astype(dtype)
        ones = self.mul_table == 1
        # a factor of a reducible modulus is a zero divisor: no 1 in its row
        if not ones[1:].any(axis=1).all():
            raise ChardegError(
                f"modulus {poly} is reducible over F_{p} (no inverse)")
        self.inv_table = ones.argmax(axis=1).astype(dtype)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("finite field inverse of zero")
        return int(self.inv_table[a])


@dataclass
class MatrixGroupSpec:
    """Generators of a matrix group over F_{p^k} plus its permutation action."""

    p: int
    k: int
    n: int
    generators: list  # each generator: tuple of n*n field elements, row-major
    action: str = "vectors"  # or "projective"
    poly: tuple | None = None
    name: str | None = None

    def field(self) -> FiniteField:
        return FiniteField(self.p, self.k, self.poly)


def matrix_domain(spec: MatrixGroupSpec):
    """The points the matrix group permutes: their sorted base-q codes
    (coordinate 0 least significant) and size x n coordinate rows, row i
    being point i.  "projective" keeps the vectors whose first nonzero
    coordinate is 1.  The size is checked against MAX_DEGREE before any
    array or the field is built, and no array is larger than size x n."""
    q, n = field_order(spec.p, spec.k), spec.n
    if spec.action not in ("vectors", "projective"):
        raise ChardegError(f"unknown action {spec.action!r}")
    size = (q ** n - 1) // (q - 1 if spec.action == "projective" else 1)
    if size > MAX_DEGREE:
        raise GroupTooLargeError(f"degree {size} exceeds {MAX_DEGREE}")
    if spec.action == "vectors":
        codes = np.arange(1, q ** n)
    else:  # a 1 at coordinate j, zeros below it, anything above
        codes = np.sort(np.concatenate(
            [q ** j + q ** (j + 1) * np.arange(q ** (n - 1 - j))
             for j in range(n)]))
    coords = codes[:, None] // q ** np.arange(n) % q
    return codes, coords.astype(np.min_scalar_type(q - 1))


def check_matrix(mat, q: int, n: int) -> None:
    """Refuse a matrix that is not n*n row-major entries in 0..q-1."""
    if len(mat) != n * n:
        raise ParseError("generator matrix has wrong shape")
    if any(not 0 <= x < q for x in mat):
        raise ParseError(f"matrix entries must lie in 0..{q - 1}")


def matrix_to_perm(spec: MatrixGroupSpec, mat, domain=None,
                   f=None) -> Permutation:
    """Permutation induced by a single invertible matrix on the domain
    (``matrix_domain(spec)`` and ``spec.field()`` unless handed in)."""
    q, n = field_order(spec.p, spec.k), spec.n
    check_matrix(mat, q, n)
    codes, coords = matrix_domain(spec) if domain is None else domain
    f = spec.field() if f is None else f
    image = np.stack([  # w_j = sum_i v_i M_ij
        reduce(lambda w, t: f.add_table[w, t], f.mul_table[coords, column].T)
        for column in np.reshape(mat, (n, n)).T], axis=1)
    if spec.action == "projective":  # scale by the leading coordinate's inverse
        lead = image[np.arange(len(image)), (image != 0).argmax(axis=1)]
        image = f.mul_table[image, f.inv_table[lead][:, None]]
    image_codes = image @ q ** np.arange(n)
    points = np.searchsorted(codes, image_codes).clip(max=len(codes) - 1)
    if (codes[points] != image_codes).any() or np.bincount(points).max() > 1:
        raise ChardegError("singular generator matrix")
    return Permutation(points.tolist())


def perm_from_matrix_group(spec: MatrixGroupSpec) -> Group:
    """Permutation realization of the matrix group.

    "vectors": action on the q^n - 1 nonzero row vectors (v -> v*M).
    "projective": action on the (q^n - 1)/(q - 1) projective points; the
    kernel of scalars is quotiented out by the action itself, which is how
    PSL arises from SL generators.
    """
    domain, f = matrix_domain(spec), spec.field()
    perms = [matrix_to_perm(spec, mat, domain, f) for mat in spec.generators]
    return Group(perms, len(domain[0]), name=spec.name)


# -- products ---------------------------------------------------------------

def embed_left(p: Permutation, total_degree: int) -> Permutation:
    images = list(p.images) + list(range(p.degree, total_degree))
    return Permutation(images)


def embed_right(p: Permutation, offset: int) -> Permutation:
    images = list(range(offset)) + [offset + i for i in p.images]
    return Permutation(images)


def direct_product(a: Group, b: Group, name=None) -> Group:
    """Action on the disjoint union of the two point sets."""
    degree = a.degree + b.degree
    gens = [embed_left(g, degree) for g in a.generators]
    gens += [embed_right(g, a.degree) for g in b.generators]
    return Group(gens, degree, name=name, _order_bound=a.order * b.order)


@dataclass
class CentralProduct:
    """A central product M o C with the data needed to verify character
    identities: images of the factors and of the amalgamated Z inside the
    product, the factors' images built on first use."""

    group: Group
    m: Group
    c: Group
    z_m: Subgroup
    z_c: Subgroup
    quotient: Quotient
    z_image: Subgroup = field(init=False)

    def __post_init__(self):
        self.z_image = self._image(self.embed_m, self.z_m)

    @cached_property
    def m_image(self) -> Subgroup:
        return self._image(self.embed_m, self.m)

    @cached_property
    def c_image(self) -> Subgroup:
        return self._image(self.embed_c, self.c)

    def _image(self, embed, source: Group) -> Subgroup:
        # the image under the projection, a homomorphism: bounded by the source
        return Subgroup(self.group, [embed(x) for x in source.generators],
                        _order_bound=source.order)

    def embed_m(self, x: Permutation) -> Permutation:
        return self.quotient.project(embed_left(x, self.m.degree + self.c.degree))

    def embed_c(self, y: Permutation) -> Permutation:
        return self.quotient.project(embed_right(y, self.m.degree))


def central_product(m: Group, c: Group, z_m_gens, z_c_gens,
                    name=None) -> CentralProduct:
    """(M x C) / {(z, iso(z)^-1)} with iso given generator by generator.

    The z generators must be central in their factors; a non-isomorphism in
    the matching shows up as an order mismatch of the anti-diagonal and is
    rejected.
    """
    z_m_gens, z_c_gens = list(z_m_gens), list(z_c_gens)
    if len(z_m_gens) != len(z_c_gens):
        raise ChardegError("central subgroup generator lists differ in length")
    for z in z_m_gens:
        if z not in m:
            raise NotMemberError("z generator not in M")
        if any(z * g != g * z for g in m.generators):
            raise ChardegError("amalgamated subgroup is not central in M")
    for w in z_c_gens:
        if w not in c:
            raise NotMemberError("z generator not in C")
        if any(w * g != g * w for g in c.generators):
            raise ChardegError("amalgamated subgroup is not central in C")
    z_m = Subgroup(m, z_m_gens)
    z_c = Subgroup(c, z_c_gens)
    if z_m.order != z_c.order:
        raise ChardegError("amalgamated subgroups have different orders")
    degree = m.degree + c.degree
    product = direct_product(m, c)
    anti_gens = [embed_left(z, degree) * embed_right(w.inverse(), m.degree)
                 for z, w in zip(z_m_gens, z_c_gens)]
    anti = Subgroup(product, anti_gens)
    if anti.order != z_m.order:
        raise ChardegError(
            "generator matching does not define an isomorphism of the "
            "amalgamated subgroups (anti-diagonal order mismatch)")
    quotient = quotient_group(product, anti)
    expected = m.order * c.order // z_m.order
    if quotient.group.order != expected:
        raise ChardegError("central product order check failed")
    group = quotient.group
    if name:
        group.name = name
    return CentralProduct(group, m, c, z_m, z_c, quotient)


FIBER_WORD_BOUND = 10_000


def fiber_product(a: Group, b: Group, pa_images, pb_images, q: Group,
                  name=None) -> Group:
    """{(x, y) in A x B : pa(x) = pb(y)} for epimorphisms given by generator
    images in the common quotient q.

    Generated by ker(pa) x 1, 1 x ker(pb), and one lift pair per generator
    of A, the B-side of each pair found by BFS word search through q.  Bad
    epimorphism data surfaces as a word-search failure or an order mismatch.
    """
    pa_images, pb_images = list(pa_images), list(pb_images)
    if len(pa_images) != len(a.generators) or len(pb_images) != len(b.generators):
        raise ChardegError("need one image per generator")
    for img in pa_images + pb_images:
        if img not in q:
            raise NotMemberError("epimorphism image not in the quotient group")
    if q.order > FIBER_WORD_BOUND:
        raise ChardegError("quotient exceeds the word-search bound")
    # the images lie in q, so |q| bounds what they generate
    if Group(pa_images, q.degree, _order_bound=q.order).order != q.order:
        raise ChardegError("first epimorphism images do not generate the quotient")
    if Group(pb_images, q.degree, _order_bound=q.order).order != q.order:
        raise ChardegError("second epimorphism images do not generate the quotient")

    table = word_table(q, pb_images, b)
    if len(table) != q.order:
        raise ChardegError("word search did not reach the whole quotient")

    degree = a.degree + b.degree
    gens = [embed_left(k, degree) for k in _hom_kernel(a, pa_images, q)]
    gens += [embed_right(k, a.degree) for k in _hom_kernel(b, pb_images, q)]
    for gen, img in zip(a.generators, pa_images):
        gens.append(embed_left(gen, degree) * embed_right(table[img], a.degree))
    result = Group(gens, degree, name=name)
    expected = a.order * b.order // q.order
    if result.order != expected:
        raise ChardegError(
            f"fiber product order {result.order} != expected {expected} "
            "(wrong epimorphism data)")
    return result


def _hom_kernel(source: Group, images, target: Group) -> list[Permutation]:
    """Kernel generators of the homomorphism source -> target given on
    generators, via the stabilizer of the target coordinates in the graph
    subgroup of source x target."""
    degree = source.degree + target.degree
    graph_gens = [embed_left(g, degree) * embed_right(img, source.degree)
                  for g, img in zip(source.generators, images)]
    prefix = tuple(range(source.degree, degree))
    graph = Group(graph_gens, degree, _base_prefix=prefix)
    kernel_gens = graph.chain.stabilizer_generators(len(prefix))
    return [Permutation(k.images[: source.degree]) for k in kernel_gens]
