import gc
import hashlib
import importlib.util
import random
import tracemalloc
from pathlib import Path

import pytest

from chardeg import Catalogue
from chardeg.bsgs import StabilizerChain
from chardeg.groups import derived_series
from chardeg.perms import Permutation, parse_cycles

ROOT = Path(__file__).resolve().parent.parent


def brute_closure(gens, degree):
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return elements


CASES = [
    ("trivial", [], 1, 1),
    ("C5", ["(1 2 3 4 5)"], 5, 5),
    ("S4", ["(1 2 3 4)", "(1 2)"], 4, 24),
    ("A5", ["(1 2 3 4 5)", "(1 2 3)"], 5, 60),
    ("S5", ["(1 2 3 4 5)", "(1 2)"], 5, 120),
    ("A6", ["(1 2 3 4 5)", "(4 5 6)"], 6, 360),
    ("D12", ["(1 2 3 4 5 6)", "(2 6)(3 5)"], 6, 12),
]


@pytest.mark.parametrize("name,gens,degree,order", CASES)
def test_order_matches_enumeration(name, gens, degree, order):
    perms = [parse_cycles(s, degree) for s in gens]
    chain = StabilizerChain(perms, degree)
    assert chain.order() == order
    assert len(brute_closure(perms, degree)) == order


@pytest.mark.parametrize("name,gens,degree,order", CASES)
def test_elements_enumeration(name, gens, degree, order):
    perms = [parse_cycles(s, degree) for s in gens]
    chain = StabilizerChain(perms, degree)
    elements = [Permutation(row) for row in chain.element_array().tolist()]
    assert len(elements) == order
    assert len(set(elements)) == order
    assert set(elements) == brute_closure(perms, degree)


def test_membership():
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)]
    chain = StabilizerChain(gens, 5)
    assert chain.contains(parse_cycles("(1 2)(3 4)", 5))
    assert not chain.contains(parse_cycles("(1 2)", 5))  # odd


def test_generators_sift_to_identity():
    gens = [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)]
    chain = StabilizerChain(gens, 4)
    for g in gens:
        assert chain.contains(g)


def test_base_prefix_levels():
    # prefix points head the base even when redundant
    gens = [parse_cycles("(1 2)", 4)]
    chain = StabilizerChain(gens, 4, base_prefix=(2, 3))
    assert chain.base[:2] == [2, 3]
    assert chain.order() == 2
    # the stabilizer of the prefix is the full group here (it fixes 3, 4)
    stab_gens = chain.stabilizer_generators(2)
    assert StabilizerChain(stab_gens, 4).order() == 2


def test_deterministic_construction():
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2)", 5)]
    a = StabilizerChain(gens, 5)
    b = StabilizerChain(gens, 5)
    assert a.base == b.base
    assert [sorted(t) for t in a.transversals] == \
        [sorted(t) for t in b.transversals]
    assert a.element_array().tolist() == b.element_array().tolist()


def test_group_orbit_product_identity(cat):
    # BSGS order equals brute-force enumeration for every group up to 5000
    for entry in cat.load_all():
        g = entry.group
        if g.order > 5000:
            continue
        assert len(brute_closure(list(g.generators), g.degree)) == g.order


def _golden_tool():
    path = ROOT / "tools" / "golden_tables.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chains_are_pinned(cat):
    # every chain below as the construction built it when this digest was
    # recorded: bases, level generators in order and transversals are what
    # element order, ranks, class numbering and tables all follow from
    a, b = REFERENCE_CASES["M11"][0]
    identity = Permutation.identity(11)
    repeats = StabilizerChain([identity, a, b, a, identity, a * b, b], 11)
    assert _chain_data(repeats) == _chain_data(
        StabilizerChain([a, b, a * b], 11))
    tool = _golden_tool()
    chains = [repeats] + [
        h.chain for entry in cat.load_all()
        for h in derived_series(entry.group)] + [
        tool.scale_group(name).chain for name in ("S8", "M12", "C2^6", "C3^4")]
    digest = hashlib.sha256()
    for chain in chains:
        digest.update(repr((
            chain.degree, chain.base,
            [[g.images for g in gens] for gens in chain.level_gens],
            [[(row[b], tuple(row)) for row in level.tolist()]
             for b, level in zip(chain.base, chain._levels)])).encode())
    assert digest.hexdigest() == (
        "dc66624f565c05cfb7aac8802e7c0deeddfd22a964999551437814fce5a3fe32")


# -- the two forms of a transversal -------------------------------------------

def _chain_state_cases(cat):
    """(generators, degree) of S8 on 9 points, so that some permutations
    are not members, of M12 and of SL25oQ8 (one level of 480 points)."""
    m12, sl = _golden_tool().scale_group("M12"), cat.group("SL25oQ8")
    return {"S8 on 9 points": _cycles(9, "(1 2 3 4 5 6 7 8)", "(1 2)"),
            "M12": (list(m12.generators), 12),
            "SL25oQ8": (list(sl.generators), sl.degree)}


@pytest.mark.parametrize("name", ["S8 on 9 points", "M12", "SL25oQ8"])
def test_contains_is_the_same_before_and_after_the_rows(cat, name):
    # sifting reads Permutations before the level rows exist and the rows
    # after; elements are words in the generators, the rest are random
    gens, degree = _chain_state_cases(cat)[name]
    rng = random.Random(3)
    samples = []
    for _ in range(20):
        word = Permutation.identity(degree)
        for _ in range(12):
            word = word * rng.choice(gens)
        samples.append(word)
        images = list(range(degree))
        rng.shuffle(images)
        samples.append(Permutation(images))
    chain = StabilizerChain(gens, degree)
    before = [chain.contains(p) for p in samples]
    rows = {tuple(row) for row in chain.element_array().tolist()}
    assert not hasattr(chain, "transversals")  # the rows replaced them
    assert [chain.contains(p) for p in samples] == before == [
        p.images in rows for p in samples]
    assert before[::2] == [True] * 20 and not all(before[1::2])


def test_enumerated_chain_holds_no_permutation_transversal():
    # SL25oQ8's chain is one level of 480 points: once its elements are
    # enumerated, the rows are its transversal, and what perms.py allocated
    # and is still held is generators, not 480 tuples of 480 images (1.79 MB)
    tracemalloc.start()
    try:
        cat = Catalogue()
        cat.group("SL25oQ8").element_array()
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/chardeg/perms.py")])
    finally:
        tracemalloc.stop()
    assert sum(s.size for s in held.statistics("filename")) < 200_000
    assert len(cat.group("SL25oQ8").chain.base) == 1


# -- reference Schreier-Sims --------------------------------------------------
#
# The construction as it stood before inverse transversals were cached and
# Schreier generators were tested by comparison: plain Permutation
# arithmetic, a fresh inverse at every sift level, every transversal rebuilt
# on request.  StabilizerChain must build exactly the same chain.

class ReferenceChain:
    def __init__(self, generators, degree, base_prefix=()):
        self.degree = degree
        gens = []
        for g in generators:
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.base, self.level_gens, self.transversals = [], [], []
        for b in base_prefix:
            self._append_level(b)
        self._build(gens)

    def _append_level(self, point):
        self.base.append(point)
        self.level_gens.append([])
        self.transversals.append({point: Permutation.identity(self.degree)})

    def _rebuild_transversal(self, i):
        b = self.base[i]
        trans = {b: Permutation.identity(self.degree)}
        queue = [b]
        while queue:
            x = queue.pop(0)
            for s in self.level_gens[i]:
                y = s[x]
                if y not in trans:
                    trans[y] = trans[x] * s
                    queue.append(y)
        self.transversals[i] = trans

    def _sift(self, g, start):
        for j in range(start, len(self.base)):
            x = g[self.base[j]]
            if x == self.base[j]:
                continue
            t = self.transversals[j].get(x)
            if t is None:
                return g, j
            g = g * t.inverse()
        return g, len(self.base)

    def _add_generator(self, g, level):
        if level == len(self.base):
            for pt in range(self.degree):
                if g[pt] != pt:
                    self._append_level(pt)
                    break
        for l in range(level + 1):
            if all(g[self.base[k]] == self.base[k] for k in range(l)):
                if g not in self.level_gens[l]:
                    self.level_gens[l].append(g)

    def _build(self, gens):
        for g in gens:
            residue, j = self._sift(g, 0)
            if not residue.is_identity():
                self._add_generator(residue, j)
        for i in range(len(self.base)):
            self._rebuild_transversal(i)
        i = len(self.base) - 1
        while i >= 0:
            self._rebuild_transversal(i)
            restart = False
            for x in list(self.transversals[i]):
                t_x = self.transversals[i][x]
                for s in self.level_gens[i]:
                    schreier = t_x * s * self.transversals[i][s[x]].inverse()
                    if schreier.is_identity():
                        continue
                    residue, j = self._sift(schreier, i + 1)
                    if residue.is_identity():
                        continue
                    self._add_generator(residue, j)
                    for l in range(i + 1, min(j + 1, len(self.base))):
                        self._rebuild_transversal(l)
                    if j < len(self.base):
                        self._rebuild_transversal(j)
                    i = min(j, len(self.base) - 1)
                    restart = True
                    break
                if restart:
                    break
            if not restart:
                i -= 1

    def contains(self, g):
        return self._sift(g, 0)[0].is_identity()


def _regular_s5():
    """S5 acting on its 120 elements by right multiplication."""
    s5 = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2)", 5)]
    elements = sorted(brute_closure(s5, 5))
    index = {x: i for i, x in enumerate(elements)}
    return [Permutation([index[x * g] for x in elements]) for g in s5], 120


def _graph_s4_sign():
    """The graph of sign: S4 -> S2 on 4 + 2 points, as kernels of
    homomorphisms are computed: the target points head the base."""
    gens = [Permutation([1, 2, 3, 0, 5, 4]), Permutation([1, 0, 2, 3, 5, 4])]
    return gens, 6, (4, 5)


def _cycles(degree, *gens):
    return [parse_cycles(s, degree) for s in gens], degree


REFERENCE_CASES = {
    "trivial": ([], 1),
    "A5": _cycles(5, "(1 2 3 4 5)", "(1 2 3)"),
    "S5": _cycles(5, "(1 2 3 4 5)", "(1 2)"),
    # transversal elements change on rebuild here, so stale inverses show
    "A7": _cycles(8, "(1 8 2 4 3 5 6)", "(1 2 5 6 3)"),
    "M11": _cycles(11, "(2 10)(4 11)(5 7)(8 9)", "(1 4 3 8)(2 5 6 9)"),
    # x -> x + 1 and x -> 3x on Z/17, 3 a primitive root
    "AGL(1,17)": ([Permutation([(x + 1) % 17 for x in range(17)]),
                   Permutation([3 * x % 17 for x in range(17)])], 17),
    "regular S5": _regular_s5(),
}


def _chain_data(chain):
    return (chain.base,
            [[g.images for g in gens] for gens in chain.level_gens],
            [[(x, t.images) for x, t in trans.items()]
             for trans in chain.transversals])


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES) + ["graph S4->S2"])
def test_chain_identical_to_reference(name):
    if name == "graph S4->S2":
        gens, degree, prefix = _graph_s4_sign()
    else:
        (gens, degree), prefix = REFERENCE_CASES[name], ()
    chain = StabilizerChain(gens, degree, base_prefix=prefix)
    ref = ReferenceChain(gens, degree, base_prefix=prefix)
    assert _chain_data(chain) == _chain_data(ref)
    orders = {"A7": 2520, "M11": 7920, "regular S5": 120, "graph S4->S2": 24}
    if name in orders:
        assert chain.order() == orders[name]
    if name == "graph S4->S2":  # the kernel of sign is A4
        kernel = StabilizerChain(chain.stabilizer_generators(2), degree)
        assert kernel.order() == 12


def test_contains_agrees_with_reference_on_non_members():
    rng = random.Random(5)
    for name, (gens, degree) in sorted(REFERENCE_CASES.items()):
        chain = StabilizerChain(gens, degree)
        ref = ReferenceChain(gens, degree)
        samples = []
        for _ in range(40):
            images = list(range(degree))
            rng.shuffle(images)
            samples.append(Permutation(images))
        if degree >= 2:
            samples.append(Permutation([1, 0] + list(range(2, degree))))
        for p in samples:
            assert chain.contains(p) == ref.contains(p)
        if degree >= 2 and name != "S5":  # no other case holds a transposition
            assert not chain.contains(samples[-1])
        assert all(chain.contains(g) for g in gens)


# -- bounded builds -----------------------------------------------------------

def _reference_case(name):
    if name == "graph S4->S2":
        return _graph_s4_sign()
    return (*REFERENCE_CASES[name], ())


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("name", sorted(REFERENCE_CASES) + ["graph S4->S2"])
def test_bounded_chain_identical_to_reference(name, factor):
    # at the true order the build stops early; at twice it, never
    gens, degree, prefix = _reference_case(name)
    ref = ReferenceChain(gens, degree, base_prefix=prefix)
    order = 1
    for trans in ref.transversals:
        order *= len(trans)
    chain = StabilizerChain(gens, degree, base_prefix=prefix,
                            order_bound=factor * order)
    assert _chain_data(chain) == _chain_data(ref)
    assert chain.order() == order
    assert not hasattr(chain, "_tree")  # the BFS trees go with the build


def test_bound_saves_products_on_the_regular_s5(monkeypatch):
    gens, degree = REFERENCE_CASES["regular S5"]
    calls = []
    mul = Permutation.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    StabilizerChain(gens, degree)
    unbounded = len(calls)
    calls.clear()
    StabilizerChain(gens, degree, order_bound=120)
    assert 0 < len(calls) < unbounded


def test_normal_closure_of_a_perfect_groups_generators(monkeypatch):
    # the generators already give |G|, so no conjugate is formed
    from chardeg.groups import Group, normal_closure

    a5 = Group(REFERENCE_CASES["A5"][0], 5)
    conjugates = []
    conjugate = Permutation.conjugate

    def counted(self, g):
        conjugates.append(None)
        return conjugate(self, g)

    monkeypatch.setattr(Permutation, "conjugate", counted)
    assert normal_closure(a5, a5.generators).order == 60
    assert conjugates == []
