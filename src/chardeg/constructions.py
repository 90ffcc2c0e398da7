"""Group constructions: matrix groups over small finite fields, direct
products, central products, and fiber products.

Matrix groups act on nonzero row vectors or on projective points; the
resulting object is an ordinary permutation group, so nothing downstream
needs to know about fields.  Central products are realized as quotients of
a direct product by an anti-diagonal central subgroup; fiber products are
assembled from the two kernels plus matched generator lifts found by word
search through the common quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bsgs import MAX_DEGREE
from .errors import ChardegError, GroupTooLargeError, NotMemberError
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


class FiniteField:
    """F_{p^k} with elements encoded as integers 0..p^k-1 (base-p digits =
    polynomial coefficients).  Small enough for full operation tables."""

    def __init__(self, p: int, k: int = 1, poly=None):
        if k < 1 or p < 2:
            raise ValueError("need p >= 2, k >= 1")
        self.p = p
        self.k = k
        self.q = p ** k
        if self.q ** 2 > MAX_FIELD_TABLE:  # checked before the tables exist
            raise GroupTooLargeError(f"field tables of {self.q}^2 entries")
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
        self.poly = poly
        self._mul = [[self._mul_slow(a, b) for b in range(self.q)]
                     for a in range(self.q)]
        # a proper factor of a reducible modulus is a zero divisor, so the
        # inverse search is the irreducibility test
        self._inv = [0] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break
            else:
                raise ChardegError(
                    f"modulus {poly} is reducible over F_{p} (no inverse)")

    def _digits(self, a: int):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        val = 0
        for d in reversed(digits):
            val = val * self.p + d
        return val

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._encode([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("finite field inverse of zero")
        return self._inv[a]

    def _mul_slow(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce modulo the defining polynomial
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j]
                                            - c * self.poly[j]) % self.p
        return self._encode(prod[: self.k])


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
    """The point set the matrix group permutes, with its index map; checked
    against MAX_DEGREE before the field or any vector is built."""
    q = spec.p ** spec.k
    size = (q ** spec.n - 1) // (q - 1 if spec.action == "projective" else 1)
    if size > MAX_DEGREE:
        raise GroupTooLargeError(f"degree {size} exceeds {MAX_DEGREE}")
    f = spec.field()
    vectors = [_int_to_vector(i, spec.n, f.q) for i in range(1, f.q ** spec.n)]
    if spec.action == "vectors":
        domain = vectors
    elif spec.action == "projective":
        domain = [v for v in vectors if _is_projective_rep(v)]
    else:
        raise ChardegError(f"unknown action {spec.action!r}")
    return domain, {v: i for i, v in enumerate(domain)}, f


def matrix_to_perm(spec: MatrixGroupSpec, mat, domain=None, index=None,
                   f=None) -> Permutation:
    """Permutation induced by a single invertible matrix on the domain."""
    if domain is None:
        domain, index, f = matrix_domain(spec)
    n = spec.n
    if len(mat) != n * n:
        raise ChardegError("generator matrix has wrong shape")
    images = []
    for v in domain:
        w = _vec_mat(v, mat, n, f)
        if spec.action == "projective":
            w = _normalize_projective(w, f)
        if w not in index:
            raise ChardegError("singular generator matrix")
        images.append(index[w])
    try:
        return Permutation(images)
    except ValueError:
        raise ChardegError("singular generator matrix")


def perm_from_matrix_group(spec: MatrixGroupSpec) -> Group:
    """Permutation realization of the matrix group.

    "vectors": action on the q^n - 1 nonzero row vectors (v -> v*M).
    "projective": action on the (q^n - 1)/(q - 1) projective points; the
    kernel of scalars is quotiented out by the action itself, which is how
    PSL arises from SL generators.
    """
    domain, index, f = matrix_domain(spec)
    perms = [matrix_to_perm(spec, mat, domain, index, f)
             for mat in spec.generators]
    return Group(perms, len(domain), name=spec.name)


def _int_to_vector(i: int, n: int, q: int) -> tuple:
    out = []
    for _ in range(n):
        out.append(i % q)
        i //= q
    return tuple(out)


def _is_projective_rep(v: tuple) -> bool:
    for x in v:
        if x:
            return x == 1
    return False


def _normalize_projective(v: tuple, f: FiniteField) -> tuple:
    for x in v:
        if x:
            scale = f.inv(x)
            return tuple(f.mul(scale, y) for y in v)
    return v


def _vec_mat(v: tuple, mat, n: int, f: FiniteField) -> tuple:
    out = []
    for j in range(n):
        acc = 0
        for i in range(n):
            acc = f.add(acc, f.mul(v[i], mat[i * n + j]))
        out.append(acc)
    return tuple(out)


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
    product."""

    group: Group
    m: Group
    c: Group
    z_m: Subgroup
    z_c: Subgroup
    quotient: Quotient
    m_image: Subgroup = field(init=False)
    c_image: Subgroup = field(init=False)
    z_image: Subgroup = field(init=False)

    def __post_init__(self):
        # images under the projection, a homomorphism: bounded by the source
        g = self.group
        self.m_image = Subgroup(
            g, [self.embed_m(x) for x in self.m.generators],
            _order_bound=self.m.order)
        self.c_image = Subgroup(
            g, [self.embed_c(y) for y in self.c.generators],
            _order_bound=self.c.order)
        self.z_image = Subgroup(
            g, [self.embed_m(z) for z in self.z_m.generators],
            _order_bound=self.z_m.order)

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
