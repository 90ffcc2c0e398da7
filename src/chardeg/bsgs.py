"""Deterministic Schreier-Sims: base and strong generating set construction.

The chain supports exact order, membership tests, canonical element
enumeration and its inverse, the rank of an element from its base images.
Everything is deterministic: orbits are explored in BFS order with
generators in list order, so equal input yields identical chains.

Most of Schreier-Sims goes to proving a chain complete, and two shortcuts
cut that short without changing the chain (Seress, *Permutation Group
Algorithms*, 2003, 4.5; Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, 2005, 4.4.5):

* A tree edge of a transversal's BFS, x to y = s[x] with t_y set to
  t_x * s, gives a trivial Schreier generator by construction, so it is
  skipped without forming the product.
* Given a proven upper bound on the order, the build stops when the orbit
  lengths multiply to it.  Let H_i be the group that level i's generators
  generate.  Every generator of level i + 1 is one of level i and fixes
  base[i], so |H_i| >= |orbit_i| |H_{i+1}|, and the product of the orbit
  lengths is at most |H_0| <= |G|.  When it equals the bound, every one of
  these is an equality, the chain is complete, and no Schreier generator
  left would have added a generator: the stop, after the stale
  transversals are rebuilt, gives the chain the full build gives.

Each check has one home: the constructor checks generator degrees, sifting
drops the identity, and _add_generator refuses a generator its level holds
(a repeat sifts to its first copy's level) and says why none needs a check
that it fixes the base points above its level.

``rank`` inverts the element enumeration a block of levels at a time: the
block's base images, read as one number in base ``degree``, index a table
of its elements u = t_b * ... * t_a, and one take of u's inverse divides
u out of the later base images.  A block grows while its key table (uint16)
and inverse table stay within _RANK_KEYS and _RANK_INVERSES entries: M12
gets blocks of levels 0-3 and 4, with 184 kB of tables.  Images are read
base-major, _RANK_ROWS at a time: base-major input needs no strided copy.

A transversal has two forms (Seress 2003, 4.1).  While the chain is
built, each level maps its orbit points x to Permutations t_x, with t_x
sending the base point to x.  The first ``element_array`` or ``rank``
makes the level rows, one image row per point in point order, and from
then on the rows are the transversal: the Permutation dicts and the
inverses cached while building are dropped, and sifting forms each
inverse it needs from its row by an argsort, once.  Chains that are never
enumerated, such as the transient subgroups of a normal closure, keep
their dicts until they are dropped.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

import numpy as np

from .errors import GroupTooLargeError
from .perms import Permutation

# Most rows one rank pass gathers at a time; longer inputs go in chunks.
_RANK_ROWS = 1 << 14
_RANK_KEYS = 1 << 16  # the bounds of a rank block's tables (see above)
_RANK_INVERSES = 1 << 18
MAX_DEGREE = 1 << 16  # element rows are uint8 up to degree 256, else uint16


class StabilizerChain:
    """BSGS data for a permutation group.

    ``base_prefix`` forces the given points to head the base (useful for
    computing kernels of coordinate projections); trivial levels this creates
    are kept so the prefix is honored literally.

    While building, each level keeps its transversal as Permutations,
    ``transversals[i]``, and the inverses of those, filled lazily by
    sifting and dropped when the transversal is rebuilt.  A transversal is
    rebuilt only when its level has gained generators since the last
    build; generator lists only grow, so the BFS would give the same dict.
    Once the level rows (``_levels``) are made, they replace both: see the
    module docstring.  The rows are read-only, since a one-level chain's
    element array is its one row array.  ``orbit_sizes`` holds each level's
    orbit length from the end of the build on.

    ``order_bound``, when given, must be a proven upper bound on the order
    of the group generated, such as the order of a group known to contain
    it or of a group it is a homomorphic image of; the build then stops
    once the orbit lengths multiply to it (see the module docstring), and
    the chain is the one built without it.  An order under test, such as a
    claimed order or the order a map gives only if it is a homomorphism,
    is no bound: with one below the true order the chain comes out
    incomplete.
    """

    def __init__(self, generators, degree: int, base_prefix=(),
                 order_bound: int | None = None):
        if degree > MAX_DEGREE:
            raise GroupTooLargeError(f"degree {degree} exceeds {MAX_DEGREE}")
        self.degree = degree
        self.dtype = np.dtype(np.uint8 if degree <= 256 else np.uint16)
        gens = list(generators)
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree mismatch")
        self.base: list[int] = []
        # level_gens[i] generates the stabilizer of base[:i]
        self.level_gens: list[list[Permutation]] = []
        self.transversals: list[dict[int, Permutation]] = []
        self._inverses: list[dict[int, Permutation]] = []
        self._built: list[int] = []  # len(level_gens[i]) at the last build
        # per level, each point y the BFS reached by a tree edge, mapped to
        # the index j of the level generator s_j on that edge: y = s_j[x]
        # and t_y = t_x * s_j, x being the only point s_j sends to y; kept
        # while building only
        self._tree: list[dict[int, int]] = []
        for b in base_prefix:
            self._append_level(b)
        self._build(gens, order_bound)
        del self._tree
        self.orbit_sizes = tuple(map(len, self.transversals))

    def _append_level(self, point: int) -> None:
        self.base.append(point)
        self.level_gens.append([])
        self.transversals.append({point: Permutation.identity(self.degree)})
        self._inverses.append({})
        self._built.append(0)
        self._tree.append({})

    def _rebuild_transversal(self, i: int) -> None:
        if self._built[i] == len(self.level_gens[i]):
            return
        self._built[i] = len(self.level_gens[i])
        b = self.base[i]
        trans = {b: Permutation.identity(self.degree)}
        tree = {}
        queue = [b]
        for x in queue:  # the BFS: queue grows while it is walked
            t = trans[x]
            for j, s in enumerate(self.level_gens[i]):
                y = s[x]
                if y not in trans:
                    trans[y] = t * s
                    tree[y] = j
                    queue.append(y)
        self.transversals[i] = trans
        self._inverses[i] = {}
        self._tree[i] = tree

    def _reaches(self, bound: int | None) -> bool:
        """Whether the orbit lengths multiply to ``bound``, every stale
        transversal rebuilt first (a stale orbit may be short)."""
        if bound is None:
            return False
        for i in range(len(self.base)):
            self._rebuild_transversal(i)
        return prod(map(len, self.transversals)) == bound

    def _sift(self, g: Permutation, start: int):
        """Reduce g through levels >= start; return (residue, stuck level)."""
        for j in range(start, len(self.base)):
            x = g[self.base[j]]
            if x == self.base[j]:
                continue
            t_inv = self._inverses[j].get(x)
            if t_inv is None:
                t_inv = self._inverse(j, x)
                if t_inv is None:
                    return g, j
                self._inverses[j][x] = t_inv
            g = g * t_inv
        return g, len(self.base)

    def _inverse(self, j: int, x: int) -> Permutation | None:
        """t_x^-1 at level j, or None if x is off its orbit: from the
        transversal's Permutation, or once the rows exist, from x's row."""
        if "_levels" not in self.__dict__:
            t = self.transversals[j].get(x)
            return None if t is None else t.inverse()
        level = self._levels[j]
        orbit = level[:, self.base[j]]  # t_x sends base[j] to x: sorted
        k = orbit.searchsorted(x)
        if k == len(orbit) or orbit[k] != x:
            return None
        return Permutation._trusted(tuple(level[k].argsort().tolist()))

    def _add_generator(self, g: Permutation, level: int) -> None:
        """Register g as a generator of every level up to ``level``."""
        if level == len(self.base):
            for pt in range(self.degree):
                if g[pt] != pt:
                    self._append_level(pt)
                    break
        # g fixes base[:level]: it is stuck there, sifted from level 0 or,
        # as t_x * s (both fix base[:i]), from level i
        for l in range(level + 1):
            if g not in self.level_gens[l]:
                self.level_gens[l].append(g)

    def _build(self, gens: list[Permutation], bound: int | None) -> None:
        for g in gens:
            residue, j = self._sift(g, 0)
            if not residue.is_identity():
                self._add_generator(residue, j)
        for i in range(len(self.base)):
            self._rebuild_transversal(i)
        if self._reaches(bound):
            return
        # bottom-up Schreier generator closure: levels min(i + 1, j) to j are
        # rebuilt at once, the others when the closure comes down to them
        i = len(self.base) - 1
        while i >= 0:
            self._rebuild_transversal(i)
            for residue, j in self._schreier_residues(i):
                self._add_generator(residue, j)
                for l in range(min(i + 1, j), j + 1):
                    self._rebuild_transversal(l)
                if self._reaches(bound):
                    return
                i = j
                break
            else:
                i -= 1

    def _schreier_residues(self, i: int):
        """(residue, stuck level) of each Schreier generator t_x * s * t_y^-1
        of level i that does not sift to the identity.  It is trivial iff
        t_x * s == t_y, as on a tree edge; else sifting t_x * s from i
        divides by t_y."""
        trans, tree = self.transversals[i], self._tree[i]
        for x, t_x in trans.items():
            for k, s in enumerate(self.level_gens[i]):
                y = s[x]
                if tree.get(y) == k:  # the tree edge x -> y
                    continue
                t_xs = t_x * s
                if t_xs == trans[y]:
                    continue
                residue, j = self._sift(t_xs, i)
                if not residue.is_identity():
                    yield residue, j

    def order(self) -> int:
        return prod(self.orbit_sizes)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self._sift(g, 0)
        return residue.is_identity()

    def stabilizer_generators(self, k: int) -> list[Permutation]:
        """Generators of the pointwise stabilizer of base[:k]."""
        if k >= len(self.base):
            return []
        return list(self.level_gens[k])

    @cached_property
    def _levels(self) -> list[np.ndarray]:
        """Each transversal as a read-only array of images, rows in point
        order; they replace the Permutations and their inverses."""
        levels = []
        for trans in self.transversals:
            level = np.array([trans[x].images for x in sorted(trans)],
                             dtype=self.dtype)
            level.flags.writeable = False
            levels.append(level)
        del self.transversals
        self._inverses = [{} for _ in levels]
        return levels

    @cached_property
    def _rank_blocks(self) -> list[tuple]:
        """(levels, stride, local, inverse) per block of levels that move:
        local[key] is the position of the element u with that key (0 if none),
        stride its first level's; inverse is None where each u fixes what is
        left to divide: later base points and what their stabilizer moves."""
        d, blocks, stride = self.degree, [], 1
        for i, n in enumerate(map(len, self._levels)):
            if n > 1 and blocks and (
                    d ** (len(blocks[-1][0]) + 1) <= _RANK_KEYS
                    and stride // blocks[-1][1] * n * d <= _RANK_INVERSES):
                blocks[-1][0].append(i)
            elif n > 1:
                blocks.append(([i], stride))
            stride *= n
        tables = []
        for levels, stride in blocks:
            u = np.arange(d, dtype=self.dtype)[None, :]
            for i in levels:  # t_i * u, u varying fastest
                u = u[:, self._levels[i]].swapaxes(0, 1).reshape(-1, d)
            key = u[:, [self.base[i] for i in levels]] @ d ** np.arange(
                len(levels))
            local = np.zeros(d ** len(levels), dtype=np.uint16)
            local[key] = np.arange(len(u))
            later = sorted({*self.base[levels[-1] + 1:], *(
                x for s in self.stabilizer_generators(levels[-1] + 1)
                for x, y in enumerate(s.images) if x != y)})
            # the scatter's intp index: at most 2 MB, or a level's tuples
            inverse = None
            if (u[:, later] != later).any():
                inverse = np.empty(u.size, dtype=self.dtype)
                inverse[np.arange(0, u.size, d)[:, None] + u] = np.arange(d)
            tables.append((levels, np.int64(stride), local, inverse))
        return tables

    def element_array(self) -> np.ndarray:
        """All elements as a (|G|, degree) array of images, one row each.

        Row order is canonical: with transversals t_i taken in sorted point
        order, element ``t_{k-1} * ... * t_1 * t_0`` precedes the next with
        t_0 varying fastest.  Rows are uint8 up to degree 256, else uint16.
        The product starts at the last level's rows, so a one-level chain
        returns its rows themselves, read-only.
        """
        if not self._levels:
            return np.arange(self.degree, dtype=self.dtype)[None, :]
        rows = self._levels[-1]
        for level in self._levels[-2::-1]:
            prev = rows.astype(np.intp)
            rows = np.empty((len(prev), len(level), self.degree), self.dtype)
            for j, t in enumerate(level):
                rows[:, j, :] = t.take(prev)  # (rest * t)[x] = t[rest[x]]
            rows = rows.reshape(-1, self.degree)
        return rows

    def rank(self, images: np.ndarray) -> np.ndarray:
        """Rows in element_array() of the group elements with the given
        images of the base points, shape (..., len(base)), not checked:
        any images give some row in range(|G|).

        The images of a block's base points fix its element u (a lookup in
        its key table); dividing u out of the later base images leaves those
        of the blocks after it, one gather of u's inverse a block.
        """
        shape = images.shape[:-1]
        columns = images.reshape(prod(shape), len(self.base)).T
        index = np.zeros(columns.shape[1], dtype=np.int64)
        d = np.intp(self.degree)  # a NumPy scalar: products widen to intp
        for lo in range(0, len(index), _RANK_ROWS):
            # rest[j]: the image of base[j] under what is left to divide out
            rest = columns[:, lo:lo + _RANK_ROWS].copy()
            out = index[lo:lo + _RANK_ROWS]
            for levels, stride, local, inverse in self._rank_blocks:
                key = rest[levels[-1]]
                for i in levels[-2::-1]:
                    key = key * d + rest[i]
                u = local.take(key)
                out += u * stride
                if inverse is not None:
                    after = levels[-1] + 1
                    rest[after:] = inverse.take(rest[after:] + u * d)
        return index.reshape(shape)
