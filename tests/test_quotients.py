"""Quotient groups on the element arrays, against reference copies.

The references are the earlier pure-Python quotient code: N-orbits labelled
by a depth-first search, and the right coset Nx named by the least image
tuple of the Permutation products m * x.  ``groups._orbits`` must give the
same orbit labels, ``groups._coset_names`` must name the same right cosets
by their least chain rank, and every corpus quotient must project random
elements as the reference does.  The coset action's size guard and the
solvability cache, which must leave no reference cycle, are checked too.
"""

import gc
import importlib.util
import json
import random
import weakref
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from chardeg import groups
from chardeg.errors import GroupTooLargeError
from chardeg.groups import (Group, Subgroup, _coset_names, _orbits,
                            derived_series, is_solvable, quotient_group)
from chardeg.perms import Permutation, parse_cycles

ROOT = Path(__file__).resolve().parent.parent
LABELS = sorted(json.loads(
    (ROOT / "tests" / "golden_quotients.json").read_text()))

_spec = importlib.util.spec_from_file_location(
    "golden_tables", ROOT / "tools" / "golden_tables.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def _group(degree, *cycles):
    return Group([parse_cycles(c, degree) for c in cycles], degree)


# -- references ------------------------------------------------------------

def dfs_orbit_labels(generators, degree: int) -> list[int]:
    """Label each point with the index of its orbit (orbits sorted by
    least point)."""
    label = [-1] * degree
    next_label = 0
    for pt in range(degree):
        if label[pt] != -1:
            continue
        stack = [pt]
        label[pt] = next_label
        while stack:
            x = stack.pop()
            for g in generators:
                y = g[x]
                if label[y] == -1:
                    label[y] = next_label
                    stack.append(y)
        next_label += 1
    return label


def reference_projection(group: Group, n: Group):
    """G -> G/N as the earlier code built it, for 1 < |N| < |G|: the action
    on N-orbits when faithful, else on right cosets in breadth-first order,
    each named by the least image tuple of m * x over m in N."""
    target = group.order // n.order
    orbit_of = dfs_orbit_labels(n.generators, group.degree)
    num_orbits = max(orbit_of) + 1

    def act_orbits(p: Permutation) -> Permutation:
        images = [0] * num_orbits
        seen = [False] * num_orbits
        for pt in range(group.degree):
            o = orbit_of[pt]
            if not seen[o]:
                seen[o] = True
                images[o] = orbit_of[p[pt]]
        return Permutation(images)

    if num_orbits > 1:
        images = [act_orbits(g) for g in group.generators]
        if Group(images, num_orbits).order == target:
            return act_orbits

    n_elements = n.elements()

    def signature(x: Permutation) -> tuple:
        return min((m * x).images for m in n_elements)

    sigs = {signature(group.identity()): 0}
    reps = [group.identity()]
    queue = deque([0])
    while queue:
        ci = queue.popleft()
        for g in group.generators:
            y = reps[ci] * g
            sig = signature(y)
            if sig not in sigs:
                sigs[sig] = len(reps)
                reps.append(y)
                queue.append(len(reps) - 1)
    assert len(reps) == target

    def act_cosets(p: Permutation) -> Permutation:
        return Permutation([sigs[signature(r * p)] for r in reps])

    return act_cosets


# -- orbits ----------------------------------------------------------------

def random_permutation(rng: random.Random, degree: int) -> Permutation:
    """A product of a few random cycles, so that orbits are often many."""
    p = Permutation.identity(degree)
    for _ in range(rng.randint(0, 3)):
        points = rng.sample(range(degree), rng.randint(1, min(degree, 6)))
        images = list(range(degree))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        p = p * Permutation(images)
    return p


@pytest.mark.parametrize("degree", [1, 2, 5, 9, 16, 40, 255, 300, 700])
def test_orbits_equal_dfs_labels(degree):
    rng = random.Random(degree)
    dtype = np.uint8 if degree <= 256 else np.uint16  # the element rows'
    for _ in range(25):
        gens = [random_permutation(rng, degree)
                for _ in range(rng.randint(0, 4))]
        maps = np.array([g.images for g in gens], dtype=dtype).reshape(
            len(gens), degree)
        assert _orbits(maps, degree).tolist() == \
            dfs_orbit_labels(gens, degree)


class CountedMaps(list):
    """Index maps that count the sweeps made over them."""
    sweeps = 0

    def __iter__(self):
        self.sweeps += 1
        return super().__iter__()


def test_orbits_jump_to_the_least_label():
    # one 1024-cycle with its points in random order: label steps alone
    # would take a sweep per point; jumping takes about 2 log2(1024)
    order = np.random.default_rng(0).permutation(1024)
    cycle = np.empty(1024, dtype=np.intp)
    cycle[order] = np.roll(order, -1)
    maps = CountedMaps([cycle])
    assert (_orbits(maps, 1024) == 0).all()
    assert maps.sweeps <= 40


def test_quotient_orbits_take_few_sweeps(monkeypatch):
    # C_4096 as (1 2 ... 4096) over its subgroup of index 2: each N-orbit
    # is a cycle whose points increase along the generator, where label
    # steps and jumps alone would take a sweep per point
    sweeps = []

    def counted(maps, size):
        maps = CountedMaps(maps)
        labels = _orbits(maps, size)
        sweeps.append(maps.sweeps)
        return labels

    monkeypatch.setattr(groups, "_orbits", counted)
    g = _group(4096, "(" + " ".join(map(str, range(1, 4097))) + ")")
    q = quotient_group(g, Subgroup(g, [g.generators[0] ** 2]))
    assert q.group.order == 2
    assert sweeps == [2]


# -- cosets ----------------------------------------------------------------

NON_NORMAL = {
    # (group, generators of a subgroup that is not normal in it)
    "S4 > <(1 2)>": (_group(4, "(1 2 3 4)", "(1 2)"), ["(1 2)"]),
    "S4 > S3": (_group(4, "(1 2 3 4)", "(1 2)"), ["(1 2 3)", "(1 2)"]),
    "A5 > C5": (_group(5, "(1 2 3)", "(3 4 5)"), ["(1 2 3 4 5)"]),
    "S3 x C5 on 300 points > <(1 2)>": (
        _group(300, "(1 2 3)", "(1 2)", "(290 291 292 293 294)"),
        ["(1 2)"]),
}


@pytest.mark.parametrize("label", sorted(NON_NORMAL))
def test_coset_names_are_least_ranks_of_right_cosets(label):
    group, h_cycles = NON_NORMAL[label]
    h = Subgroup(group, [parse_cycles(c, group.degree) for c in h_cycles])
    assert not h.is_normal()
    chain, rows = group.chain, group.element_array()
    n_base = h.element_array()[:, chain.base]
    names = _coset_names(chain, n_base, rows)
    ranks = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    for x, name in zip(group.elements(), names.tolist()):
        assert name == min(ranks[(m * x).images] for m in h.elements())


@pytest.fixture(scope="module")
def quotients(cat):
    return tool.corpus_quotients(cat)


@pytest.mark.parametrize("label", LABELS)
def test_project_equals_the_reference(quotients, label):
    q = quotients[label]
    reference = reference_projection(q.source, q.kernel)
    rng = np.random.default_rng(LABELS.index(label))
    rows = q.source.element_array()
    for row in rows[rng.integers(len(rows), size=8)].tolist():
        x = Permutation(row)
        assert q.project(x) == reference(x)
    assert q.gen_images == [reference(g) for g in q.source.generators]


def test_cosets_are_named_a_layer_at_a_time(monkeypatch):
    # C2^5 mod its diagonal on 10 points: every generator fixes every
    # N-orbit, so G/N acts on its 16 cosets.  The enumeration names the
    # identity, then at most 16 products of the queue's next reps by the
    # 5 generators a call, 7 calls where one per coset made 17; the action
    # then names the 16 cosets times each generator
    g = _group(10, "(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)")
    n = Subgroup(g, [parse_cycles("(1 2)(3 4)(5 6)(7 8)(9 10)", 10)])
    sizes = []
    original = groups._coset_names

    def spy(chain, n_base, rows):
        sizes.append(len(rows))
        return original(chain, n_base, rows)
    monkeypatch.setattr(groups, "_coset_names", spy)
    q = quotient_group(g, n)
    assert q.group.order == 16
    assert sizes == [1, 5, 15, 15, 15, 15, 15] + [16] * 5
    reference = reference_projection(g, n)
    assert q.gen_images == [reference(x) for x in g.generators]


def test_coset_action_checks_the_bound_before_enumerating(monkeypatch):
    s4 = _group(4, "(1 2 3 4)", "(1 2)")
    v4 = Subgroup(s4, [parse_cycles("(1 2)(3 4)", 4),
                       parse_cycles("(1 3)(2 4)", 4)])
    # V4 is transitive, so S4/V4 needs the coset action
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_BOUND", 23)
    with pytest.raises(GroupTooLargeError):
        quotient_group(s4, v4)
    assert "element_array" not in v4._cache
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_BOUND", 24)
    assert quotient_group(s4, v4).group.order == 6


def test_orbit_action_needs_no_bound(monkeypatch):
    # S3 x C2 on {1,2,3} and {4,5}: C2's orbits carry a faithful S3
    g = _group(5, "(1 2 3)", "(1 2)", "(4 5)")
    n = Subgroup(g, [parse_cycles("(4 5)", 5)])
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_BOUND", 1)
    assert quotient_group(g, n).group.order == 6


# -- solvability -----------------------------------------------------------

def test_is_solvable_leaves_no_reference_cycle():
    g = _group(4, "(1 2 3 4)", "(1 2)")
    assert is_solvable(g)
    assert [h.order for h in derived_series(g)] == [24, 12, 4, 1]
    assert derived_series(g)[0] is g
    ref = weakref.ref(g)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del g
        assert ref() is None  # freed by reference counting alone
    finally:
        if enabled:
            gc.enable()
