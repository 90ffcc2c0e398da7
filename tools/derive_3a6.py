"""One-off derivation of the 3.A6 corpus data.

The stabilizer in SL3(4) of a hyperoval in PG(2,4) is the triple cover of
A6 acting faithfully on the 18 vectors lying over the hyperoval's 6 points.
This script finds that subgroup by seeded random sampling, restricts it to
the 18-point orbit, picks a generating pair, and then computes generator
images onto the standard A6 on 6 points for both 3.A6 (via its block
action) and SL2(9) (via its projective action), so the two covers can be
glued into 6.A6 by a fiber product.

Run from the repository root:  python3 tools/derive_3a6.py
"""

import random
import sys

sys.path.insert(0, "src")

from chardeg.constructions import (MatrixGroupSpec, fiber_product,
                                   matrix_domain, matrix_to_perm,
                                   perm_from_matrix_group)
from chardeg.groups import Group, center, conjugacy_classes, is_perfect
from chardeg.perms import Permutation, format_cycles


def random_element(group, rng):
    result = Permutation.identity(group.degree)
    for level in reversed(group.chain._levels):  # rows in point order
        result = result * Permutation(rng.choice(level).tolist())
    return result


def main():
    # SL3(4) on the 63 nonzero vectors of F4^3
    spec = MatrixGroupSpec(
        p=2, k=2, n=3,
        generators=[
            (1, 1, 0, 0, 1, 0, 0, 0, 1),   # E12(1)
            (1, 2, 0, 0, 1, 0, 0, 0, 1),   # E12(w)
            (1, 0, 0, 1, 1, 0, 0, 0, 1),   # E21(1)
            (1, 0, 0, 2, 1, 0, 0, 0, 1),   # E21(w)
            (0, 1, 0, 0, 0, 1, 1, 0, 0),   # 3-cycle of coordinates
        ],
        action="vectors", name="SL3_4")
    sl34 = perm_from_matrix_group(spec)
    print("SL3(4) order:", sl34.order, "(expect 60480)")
    assert sl34.order == 60480

    domain = [tuple(v) for v in matrix_domain(spec)[1].tolist()]
    index = {v: i for i, v in enumerate(domain)}
    f = spec.field()

    def proj(v):
        for x in v:
            if x:
                s = f.inv(x)
                return tuple(f.mul(s, y) for y in v)
        raise ValueError

    # hyperoval: conic {(1, t, t^2)} + (0,0,1), plus nucleus (0,1,0)
    sq = {t: f.mul(t, t) for t in range(4)}
    hyperoval = sorted({(1, t, sq[t]) for t in range(4)} | {(0, 0, 1), (0, 1, 0)})
    print("hyperoval:", hyperoval)

    # no 3 points collinear (3x3 determinant over F4 nonzero)
    def det3(a, b, c):
        ps = []
        for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            ps.append(f.mul(a[i], f.mul(b[j], c[k])))
            ps.append(f.mul(a[i], f.mul(b[k], c[j])))  # char 2: + = -
        total = 0
        for x in ps:
            total = f.add(total, x)
        return total
    import itertools
    for tri in itertools.combinations(hyperoval, 3):
        assert det3(*tri) != 0, f"collinear triple {tri}"
    print("no 3 collinear: ok")

    hset = set(hyperoval)

    def stabilizes(g):
        for v in hyperoval:
            w = domain[g[index[v]]]
            if proj(w) not in hset:
                return False
        return True

    rng = random.Random(20240)
    found = []
    stab = Group([], sl34.degree)
    tries = 0
    while stab.order != 1080 and tries < 5000:
        tries += 1
        g = random_element(sl34, rng)
        if stabilizes(g):
            found.append(g)
            stab = Group(found, sl34.degree)
    print(f"stabilizer order {stab.order} after {tries} samples, "
          f"{len(found)} stabilizing elements")
    assert stab.order == 1080

    # restrict to the 18 vectors over the hyperoval
    fiber_points = sorted(i for i, v in enumerate(domain) if proj(v) in hset)
    assert len(fiber_points) == 18
    relabel = {pt: i for i, pt in enumerate(fiber_points)}

    def restrict(g):
        return Permutation([relabel[g[pt]] for pt in fiber_points])

    restricted_gens = [restrict(g) for g in stab.generators]
    cover = Group(restricted_gens, 18, name="3A6")
    print("restricted order:", cover.order, "perfect:", is_perfect(cover),
          "center:", center(cover).order)
    assert cover.order == 1080 and is_perfect(cover)
    assert center(cover).order == 3

    # find a generating pair among the elements, deterministically
    elements = cover.elements()
    pair = None
    rng2 = random.Random(7)
    while pair is None:
        x, y = rng2.choice(elements), rng2.choice(elements)
        if Group([x, y], 18).order == 1080:
            pair = (x, y)
    cover2 = Group(list(pair), 18, name="3A6")
    assert cover2.order == 1080
    print("3A6 generators (18 points):")
    for g in cover2.generators:
        print("  gen", format_cycles(g))

    # block action on the 6 scalar-fibers -> A6 on 6 points
    blocks = {}
    for i, pt in enumerate(fiber_points):
        key = proj(domain[pt])
        blocks.setdefault(key, []).append(i)
    block_list = [blocks[v] for v in hyperoval]
    point_block = {}
    for bi, pts in enumerate(block_list):
        for ptx in pts:
            point_block[ptx] = bi

    def block_perm(g):
        images = [0] * 6
        for bi, pts in enumerate(block_list):
            images[bi] = point_block[g[pts[0]]]
        return Permutation(images)

    a6_std = Group([Permutation([1, 2, 3, 4, 0, 5]),
                    Permutation([0, 1, 2, 4, 5, 3])], 6, name="A6")
    assert a6_std.order == 360
    a6_elements = a6_std.elements()
    a6_cd = conjugacy_classes(a6_std)

    def find_pair_images(b1, b2, ambient):
        """Images (c1, c2) in A6 so that b1 -> c1, b2 -> c2 is an iso."""
        reps_for_b1 = [a6_cd.reps[i] for i in range(a6_cd.num_classes)
                       if a6_cd.orders[i] == b1.order()]
        for c1 in reps_for_b1:
            for c2 in a6_elements:
                if c2.order() != b2.order():
                    continue
                g1 = _pair_perm(b1, c1, ambient)
                g2 = _pair_perm(b2, c2, ambient)
                if Group([g1, g2], ambient + 6).order == 360:
                    return c1, c2
        raise RuntimeError("no isomorphism found")

    def _pair_perm(b, c, ambient):
        return Permutation(list(b.images) + [ambient + i for i in c.images])

    b1, b2 = (block_perm(g) for g in cover2.generators)
    assert Group([b1, b2], 6).order == 360
    c1, c2 = find_pair_images(b1, b2, 6)
    print("3A6 epi images onto A6:", format_cycles(c1), format_cycles(c2))

    # SL2(9) and its projective action
    sl29_spec = MatrixGroupSpec(
        p=3, k=2, n=2, generators=[(1, 1, 0, 1), (3, 0, 0, 5), (0, 1, 2, 0)],
        action="vectors", name="2A6")
    sl29 = perm_from_matrix_group(sl29_spec)
    assert sl29.order == 720
    psl_spec = MatrixGroupSpec(
        p=3, k=2, n=2, generators=[(1, 1, 0, 1), (3, 0, 0, 5), (0, 1, 2, 0)],
        action="projective")
    vec_perms = [matrix_to_perm(sl29_spec, m) for m in sl29_spec.generators]
    proj_perms = [matrix_to_perm(psl_spec, m) for m in psl_spec.generators]
    psl29 = Group(proj_perms, 10, name="PSL2_9")
    assert psl29.order == 360

    # projective image of each *sorted* generator of the built SL2(9)
    proj_of_gen = []
    for g in sl29.generators:
        i = vec_perms.index(g)
        proj_of_gen.append(proj_perms[i])

    # none of the generator pairs generates PSL2(9), so pick a generating
    # pair among the elements and route the generators through it
    psl_elements = psl29.elements()
    rng3 = random.Random(11)
    while True:
        x, y = rng3.choice(psl_elements), rng3.choice(psl_elements)
        if Group([x, y], 10).order == 360:
            break
    q1, q2 = find_pair_images(x, y, 10)

    # express each projective generator as a word in (x, y), evaluate in A6
    from collections import deque
    words = {psl29.identity(): []}
    queue = deque([psl29.identity()])
    while queue:
        w0 = queue.popleft()
        for gi, gen in enumerate((x, y)):
            w1 = w0 * gen
            if w1 not in words:
                words[w1] = words[w0] + [gi]
                queue.append(w1)
    images_a6 = []
    for pg in proj_of_gen:
        img = a6_std.identity()
        for gi in words[pg]:
            img = img * (q1, q2)[gi]
        images_a6.append(img)
    print("2A6 epi images onto A6:", [format_cycles(m) for m in images_a6])

    # glue: the fiber product must be the full cover 6.A6
    f6 = fiber_product(sl29, cover2, images_a6,
                       [c1, c2], a6_std, name="6A6")
    print("fiber product order:", f6.order, "(expect 2160)")
    z6 = center(f6)
    print("perfect:", is_perfect(f6), "center:", z6.order,
          "cyclic:", max(e.order() for e in z6.elements()) == z6.order)
    assert f6.order == 2160 and is_perfect(f6) and z6.order == 6

    print("\n--- corpus payload ---")
    print("3A6 gens:")
    for g in cover2.generators:
        print("gen " + format_cycles(g))
    print("6A6 epia (per 2A6 generator):")
    for m in images_a6:
        print("epia " + format_cycles(m))
    print("6A6 epib (per 3A6 generator):")
    for m in (c1, c2):
        print("epib " + format_cycles(m))


if __name__ == "__main__":
    main()
