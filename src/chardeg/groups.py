"""Permutation groups: construction, conjugacy classes, normal structure.

Groups are immutable after construction; expensive per-group data (class
data, element lists, solvability) is cached lazily on the instance.  All
orderings are canonical so repeated runs produce identical output.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from math import lcm

import numpy as np

from . import bsgs
from .cyclotomic import _is_input_prime
from .errors import GroupTooLargeError, NotMemberError, NotNormalError
from .perms import Permutation

# Full element enumeration (classes, and the coset action of a quotient,
# whose gathers hold |G| rows of base images) is only attempted up to this
# group order, checked by _check_element_bound alone.  This is an
# artifact-level bound, not a mathematical one.
DEFAULT_ELEMENT_BOUND = 10**6


def _check_element_bound(order: int) -> None:
    """Refuse to enumerate a group of more than DEFAULT_ELEMENT_BOUND."""
    if order > DEFAULT_ELEMENT_BOUND:
        raise GroupTooLargeError(f"group order {order} exceeds element bound "
                                 f"{DEFAULT_ELEMENT_BOUND}")


class Group:
    """A finite permutation group on {0, ..., degree-1}.

    Generators are deduplicated, identity-free and sorted by image tuple, so
    any two Groups built from the same generating set are indistinguishable.
    ``_order_bound`` is handed to the chain as its ``order_bound``: only a
    bound the caller has proven, never an order under test.
    """

    def __init__(self, generators, degree: int, name: str | None = None,
                 _base_prefix=(), _order_bound: int | None = None):
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(sorted(
            {g for g in generators if not g.is_identity()}))
        self.chain = bsgs.StabilizerChain(self.generators, degree,
                                          _base_prefix, _order_bound)
        self.order: int = self.chain.order()
        self.name = name
        self._cache: dict = {}

    # -- basic queries ----------------------------------------------------

    def __contains__(self, p: Permutation) -> bool:
        return self.chain.contains(p)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def element_array(self) -> np.ndarray:
        """All elements as rows of images, in canonical order (cached).

        Raises GroupTooLargeError before anything is allocated when the
        order exceeds the element bound.
        """
        _check_element_bound(self.order)
        if "element_array" not in self._cache:
            self._cache["element_array"] = self.chain.element_array()
        return self._cache["element_array"]

    def elements(self) -> list[Permutation]:
        """All elements in canonical order (cached)."""
        rows = self.element_array()
        if "elements" not in self._cache:
            self._cache["elements"] = [Permutation._trusted(tuple(row))
                                       for row in rows.tolist()]
        return self._cache["elements"]

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i:])

    def subgroup(self, generators, name=None) -> "Subgroup":
        return Subgroup(self, generators, name=name)

    def exponent(self) -> int:
        return lcm(*conjugacy_classes(self).orders)

    def __repr__(self):
        label = self.name or "Group"
        return f"<{label} degree={self.degree} order={self.order}>"


class Subgroup(Group):
    """A group with a reference to the parent it lives in.

    Every generator is checked for parent membership at construction, so
    |parent| bounds the order, and so does ``_order_bound`` when the caller
    has proven it (the order of a group this one is an image of).
    """

    def __init__(self, parent: Group, generators, name=None,
                 _order_bound: int | None = None):
        generators = list(generators)
        for g in generators:
            if g not in parent:
                raise NotMemberError(f"{g} is not an element of the parent group")
        super().__init__(generators, parent.degree, name=name,
                         _order_bound=min(parent.order,
                                          _order_bound or parent.order))
        self.parent = parent

    def is_normal(self) -> bool:
        return not _conjugates_outside(self, self.parent.generators)


def _conjugates_outside(n: Group, gens) -> list[Permutation]:
    """The conjugates s^g, s a generator of n and g in ``gens``, not in n."""
    return [c for s in n.generators for g in gens
            if (c := s.conjugate(g)) not in n]


class ClassData:
    """Conjugacy classes of a group in canonical order.

    Classes are sorted by (element order, class size, lexicographically least
    member); the representative of a class is its least member.  Elements
    are the rows of ``group.element_array()``: ``element_index[e]`` is the
    class of element e, an integer array of length |G|; the representatives
    as Permutations, ``reps``, are built only when first read.

    Classes are the orbits of the conjugation action.  Each generator acts
    as an index map on the element rows, and ``_orbits`` finds the orbits
    of those maps.  An element is fixed by its images of the base points,
    which the chain ranks to a row index (``StabilizerChain.rank``), so
    lookups gather base columns only and the element rows are never sorted
    or searched; least members are found column by column, and only the
    representatives are sorted.
    """

    def __init__(self, group: Group):
        rows = group.element_array()
        self.group = group
        self.rows = rows
        self.base = np.array(group.chain.base, dtype=np.intp)

        # conj[b, j, e]: base[b]'s image under g^-1 * e * g, g generator j,
        # freed before _orbits; raw classes are numbered by least element
        conj = np.empty((len(self.base), len(group.generators), len(rows)),
                        dtype=rows.dtype)
        for j, g in enumerate(group.generators):
            g_row = np.array(g.images, dtype=rows.dtype)
            cols = np.argsort(g_row).take(self.base)
            for lo in range(0, len(rows), bsgs._RANK_ROWS):
                hi = lo + bsgs._RANK_ROWS
                np.take(g_row, rows[lo:hi].take(cols, axis=1).T,
                        out=conj[:, j, lo:hi])
        maps, conj = group.chain.rank(conj.transpose(1, 2, 0)), None
        raw = _orbits(maps, len(rows))
        raw_sizes = np.bincount(raw)
        # each raw class's least member: keep the members at their class's
        # least image, a column at a time (take would copy a strided column)
        least = np.arange(len(rows))
        for column in rows.T:
            if len(least) == len(raw_sizes):
                break
            images, ids = column[least], raw.take(least)
            low = np.full(len(raw_sizes), images.max(), rows.dtype)
            np.minimum.at(low, ids, images)
            least = least[images == low.take(ids)]
        least = least[np.argsort(raw.take(least))]
        least_rank = np.argsort(np.lexsort(rows[least].T[::-1]))
        # walk[e]: each least member's base images under its e-th power;
        # p**e is the identity iff it fixes the base, so walk[order] = walk[0]
        reps = rows[least]
        walk = [np.tile(self.base.astype(rows.dtype), (len(least), 1))]
        raw_orders = np.zeros(len(least), dtype=np.intp)
        while not raw_orders.all():
            walk.append(np.take_along_axis(reps, walk[-1], axis=1))
            home = (walk[-1] == walk[0]).all(axis=1) & (raw_orders == 0)
            raw_orders[home] = len(walk) - 1
        raw_orders = raw_orders.tolist()
        ranking = sorted(range(len(least)),
                         key=lambda c: (raw_orders[c], raw_sizes[c],
                                        least_rank[c]))
        class_id = np.empty(len(ranking), dtype=np.intp)
        class_id[ranking] = np.arange(len(ranking))
        self.element_index: np.ndarray = class_id.take(raw)
        self.rep_rows: np.ndarray = reps[ranking]
        self.sizes: list[int] = [int(raw_sizes[c]) for c in ranking]
        self.orders: list[int] = [raw_orders[c] for c in ranking]
        # power_class[i][e] = class of reps[i]**e for e in 0..orders[i]-1
        classes = self.element_index.take(
            group.chain.rank(np.stack(walk[:-1], axis=1)))
        self.power_class: list[list[int]] = [
            classes[c, :raw_orders[c]].tolist() for c in ranking]
        self.inverse_class: list[int] = [c[-1] for c in self.power_class]

        assert sum(self.sizes) == group.order
        assert all(group.order % s == 0 for s in self.sizes)

    @cached_property
    def reps(self) -> list[Permutation]:
        """The representative of each class, its least member."""
        return [Permutation._trusted(tuple(row))
                for row in self.rep_rows.tolist()]

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    def class_of(self, p: Permutation) -> int:
        # the rank of any base images is a row; p is that row or no member
        if p.degree == self.group.degree:
            images = np.array(p.images, dtype=self.rows.dtype)
            e = self.group.chain.rank(images[self.base])
            if np.array_equal(self.rows[e], images):
                return int(self.element_index[e])
        raise NotMemberError("element not in group (class lookup failed)")

    def centralizer_order(self, i: int) -> int:
        return self.group.order // self.sizes[i]

    @cached_property
    def galois_columns(self) -> np.ndarray:
        """Each stack column's head: the least column of its orbit under
        (k, a) -> (pi_v(k), a v mod n), v a unit mod n = n_k and pi_v(k)
        the class of k's v-th powers (a unit mod the exponent acts through
        its residue mod n).  The least class R of k's orbit is pi_v(k)
        exactly for v in u S, S the units fixing R, so (k, a) heads at
        (R, b), b the least a u s mod n over s in S: R's own head of a u."""
        at, orders = np.cumsum([0, *self.orders]), np.array(self.orders)
        heads = np.arange(at[-1])
        for n in set(self.orders) - {1, 2}:  # 1 is the one unit mod 1 or 2
            ks = np.flatnonzero(orders == n)
            units = np.flatnonzero(np.gcd(a := np.arange(n), n) == 1)
            image = np.array([self.power_class[k] for k in ks])[:, units]
            least = image.min(axis=1)
            hit = image == least[:, None]
            own = ks == least  # R's rows: b -> least b s mod n over s in S
            least_b = np.where(hit[own][:, None], np.outer(a, units) % n,
                               n).min(axis=2)
            u = units[hit.argmax(axis=1)]
            heads[at[ks][:, None] + a] = at[least][:, None] + least_b[
                np.searchsorted(ks[own], least)[:, None], a * u[:, None] % n]
        return heads

    @cached_property
    def galois_orbits(self) -> np.ndarray:
        """Each class's orbit under the pi_v, numbered by least class: the
        column (k, 0) heads at (R, 0), R the least class of k's orbit."""
        heads = self.galois_columns[np.cumsum([0, *self.orders[:-1]])]
        return np.unique(heads, return_inverse=True)[1]


def _orbits(maps, size: int) -> np.ndarray:
    """The orbit of each index in range(size) under the index maps
    ``maps`` (permutations of range(size)), orbits numbered in the order
    of their least member.

    Min-label propagation: each label steps to the least label of its
    images, then to its own label's label, until each is its orbit's least.
    """
    label = np.arange(size)
    while True:
        previous = label
        for m in maps:
            label = np.minimum(label, label.take(m))
        label = label.take(label)
        if np.array_equal(label, previous):
            break
    return (np.cumsum(label == np.arange(size)) - 1).take(label)


def conjugacy_classes(group: Group) -> ClassData:
    """The group's ClassData (cached)."""
    if "classes" not in group._cache:
        group._cache["classes"] = ClassData(group)
    return group._cache["classes"]


# -- normal structure ------------------------------------------------------

def normal_closure(group: Group, elems) -> Subgroup:
    """Smallest normal subgroup of ``group`` containing ``elems``."""
    h = Subgroup(group, elems)
    while h.order < group.order and (
            new := _conjugates_outside(h, group.generators)):
        h = Subgroup(group, list(h.generators) + new)
    return h


def commutator_subgroup(group: Group) -> Subgroup:
    """The normal closure of the generators' commutators [a, b], a before
    b: [b, a] = [a, b]^-1 and [a, a] = 1 add nothing."""
    pairs = [(a, a.inverse()) for a in group.generators]
    comms = [c for i, (a, a_inv) in enumerate(pairs)
             for b, b_inv in pairs[i + 1:]
             if not (c := a_inv * b_inv * a * b).is_identity()]
    return normal_closure(group, comms)


def derived_series(group: Group) -> list[Group]:
    """G > G' > G'' > ... until stabilization (last repeat dropped)."""
    series = [group]
    while series[-1].order > 1:
        nxt = commutator_subgroup(series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
    return series


def _derived_orders(group: Group) -> list[int]:
    # cached as ints: a cached series would hold subgroups whose
    # ``parent`` points back at the group, a reference cycle
    if "derived_orders" not in group._cache:
        group._cache["derived_orders"] = [h.order
                                          for h in derived_series(group)]
    return group._cache["derived_orders"]


def is_solvable(group: Group) -> bool:
    return _derived_orders(group)[-1] == 1


def is_perfect(group: Group) -> bool:
    return len(_derived_orders(group)) == 1


def center(group: Group) -> Subgroup:
    """The center, read off as the union of the size-1 conjugacy classes."""
    sizes = conjugacy_classes(group).sizes
    return class_union(group, [i for i, s in enumerate(sizes) if s == 1])


def class_union(group: Group, classes) -> Subgroup | None:
    """The union of the given conjugacy classes as a subgroup, None if it
    is not one: the normal closure of the classes' representatives when its
    order is the classes' total size.  The closure contains every listed
    class, and a union of classes that is a subgroup is normal, so it holds
    the closure; either way they are equal exactly when the orders agree."""
    cd = conjugacy_classes(group)
    closure = normal_closure(group, [cd.reps[j] for j in classes])
    if closure.order != sum(cd.sizes[j] for j in classes):
        return None
    return closure


def minimal_normal_subgroups(group: Group) -> list[Subgroup]:
    """All minimal nontrivial normal subgroups.

    Every minimal normal subgroup is the normal closure of any of its
    nonidentity elements, so closures of class representatives cover them.
    """
    cd = conjugacy_classes(group)
    seen: dict[tuple, Subgroup] = {}
    for i in range(cd.num_classes):
        if cd.reps[i].is_identity():
            continue
        n = normal_closure(group, [cd.reps[i]])
        key = _subgroup_key(n)
        if key not in seen:
            seen[key] = n
    subs = sorted(seen.values(), key=lambda s: (s.order, _subgroup_key(s)))
    minimal = []
    for n in subs:
        if not any(m.order < n.order and all(g in n for g in m.generators)
                   for m in minimal):
            minimal.append(n)
    return minimal


def _subgroup_key(s: Group) -> tuple:
    """Equal for equal subgroups however generated: the rows in
    lexicographic order, as big-endian bytes, which compare like the rows."""
    rows = s.element_array()
    return (s.order, rows[np.lexsort(rows.T[::-1])].astype(">u2").tobytes())


def solvable_radical(group: Group) -> Subgroup:
    """Largest solvable normal subgroup: the normal closure of the class
    representatives whose own normal closure is solvable.  The radical
    holds the normal closure of each of its elements, and the closures that
    are solvable generate a solvable normal subgroup."""
    reps = conjugacy_classes(group).reps
    return normal_closure(group, [r for r in reps
                                  if is_solvable(normal_closure(group, [r]))])


class Quotient:
    """A quotient group together with its projection data.

    ``group`` is a faithful permutation realization of G/N; ``gen_images``
    lists the image of each generator of the source, which is what fiber
    products need.
    """

    def __init__(self, source: Group, kernel: Group, group: Group,
                 gen_images: list[Permutation], project_fn):
        self.source = source
        self.kernel = kernel
        self.group = group
        self.gen_images = gen_images
        self._project_fn = project_fn
        self._word_table: dict[Permutation, Permutation] | None = None

    def project(self, p: Permutation) -> Permutation:
        if p not in self.source:
            raise NotMemberError("cannot project a non-element")
        return self._project_fn(p)

    def preimage(self, q: Permutation) -> Permutation:
        """Some source element mapping to ``q`` (BFS word evaluation)."""
        if self.kernel.order == 1:
            if q not in self.source:
                raise NotMemberError("element is not in the quotient's image")
            return q
        if self._word_table is None:
            self._word_table = word_table(self.group, self.gen_images,
                                          self.source)
        try:
            return self._word_table[q]
        except KeyError:
            raise NotMemberError("element is not in the quotient's image")


def word_table(target: Group, images, source: Group) -> dict:
    """Map each element of ``target`` reached by words in ``images`` to the
    same word evaluated in ``source.generators`` (images[i] pairs with
    generator i).  BFS from the identity, so every word is a shortest one.
    """
    table = {target.identity(): source.identity()}
    queue = deque([target.identity()])
    while queue:
        x = queue.popleft()
        for img, gen in zip(images, source.generators):
            y = x * img
            if y not in table:
                table[y] = table[x] * gen
                queue.append(y)
    return table


def quotient_group(group: Group, n: Group) -> Quotient:
    """Faithful action of G/N: on the N-orbits of points when that action
    is faithful, otherwise on the right cosets of N.

    The N-orbits are the ``_orbits`` of N's generators.  A coset Nx is named
    by the least ``group.chain.rank`` of the elements m * x, m in N, and
    numbered in breadth-first order from N over the generators of G.  The
    coset action holds |G| base-image rows, so it raises GroupTooLargeError
    when |G| exceeds the element bound.
    """
    if _conjugates_outside(n, group.generators):
        raise NotNormalError("quotient by a non-normal subgroup")
    if n.order == 1:
        return Quotient(group, n, group, list(group.generators), lambda p: p)
    if n.order == group.order:
        trivial = Group([], 1)
        ident = Permutation.identity(1)
        return Quotient(group, n, trivial,
                        [ident for _ in group.generators], lambda p: ident)

    target = group.order // n.order

    # cheap attempt: G permutes the N-orbits; faithful iff image has order
    # |G:N|, and N acts trivially, so |G:N| bounds the image's order
    # s, s^2, s^4, ... for each generator s: one sweep covers every cycle
    maps = [np.array(s.images) for s in n.generators]
    for _ in range(group.degree.bit_length()):
        maps += [m[m] for m in maps[-len(n.generators):]]
    orbit_of = _orbits(maps, group.degree)
    least = np.unique(orbit_of, return_index=True)[1]
    if len(least) > 1:
        def act_orbits(p: Permutation) -> Permutation:
            return Permutation(orbit_of[np.take(p.images, least)].tolist())

        images = [act_orbits(g) for g in group.generators]
        img_group = Group(images, len(least), _order_bound=target)
        if img_group.order == target:
            return Quotient(group, n, img_group, images, act_orbits)

    # general case: action on right cosets of N
    _check_element_bound(group.order)
    chain = group.chain
    n_base = n.element_array().take(chain.base, axis=1)
    gen_rows = np.array([g.images for g in group.generators], chain.dtype)
    reps = [np.arange(group.degree, dtype=chain.dtype)]
    coset_of = {int(_coset_names(chain, n_base, reps[0][None])[0]): 0}
    # a queue, taken a breadth-first layer at a time (at most |G:N| products
    # a call, as act_cosets names): rows of r * g, rep-major, g a generator
    done, step = 0, max(1, target // len(gen_rows))
    while done < len(reps):
        layer = np.array(reps[done:done + step])
        done += len(layer)
        products = gen_rows[:, layer].swapaxes(0, 1).reshape(-1, group.degree)
        names = _coset_names(chain, n_base, products).tolist()
        for row, name in zip(products, names):
            if name not in coset_of:
                coset_of[name] = len(reps)
                reps.append(row)
    assert len(reps) == target, "coset enumeration mismatch"
    reps = np.array(reps)

    def act_cosets(p: Permutation) -> Permutation:
        p_row = np.array(p.images, dtype=chain.dtype)
        names = _coset_names(chain, n_base, p_row[reps]).tolist()
        return Permutation([coset_of[name] for name in names])

    images = [act_cosets(g) for g in group.generators]
    img_group = Group(images, target, _order_bound=target)
    assert img_group.order == target
    return Quotient(group, n, img_group, images, act_cosets)


def _coset_names(chain: bsgs.StabilizerChain, n_base: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """Name the right coset Nx of each row x by the least ``chain.rank`` of
    m * x over m in N, where ``n_base`` holds the base images of each m:
    (m * x)[b] = x[m[b]]."""
    return chain.rank(rows.take(n_base, axis=1)).min(axis=-1)


def is_p_solvable(group: Group, p: int) -> bool:
    """True iff every chief factor is a p-group or a p'-group."""
    if not _is_input_prime(p):
        raise ValueError(f"{p} is not a prime below 2^31")
    if is_solvable(group):
        return True
    return _p_solvable_rec(group, p)


def _p_solvable_rec(group: Group, p: int) -> bool:
    if group.order == 1:
        return True
    if group.order % p != 0:
        return True
    mns = minimal_normal_subgroups(group)
    n = mns[0]
    if not n.is_abelian() and n.order % p == 0:
        return False
    q = quotient_group(group, n)
    return _p_solvable_rec(q.group, p)


def class_fusion(group: Group, h: Group) -> list[int]:
    """Map each conjugacy class of h to the class of ``group`` containing it.

    h must act on the same points as ``group`` (a subgroup in the literal
    sense); lookups go through the parent's element index.
    """
    parent_cd = conjugacy_classes(group)
    hcd = conjugacy_classes(h)
    return [parent_cd.class_of(rep) for rep in hcd.reps]
