"""Permutations on {0, ..., n-1} with cycle-notation parsing and formatting.

Points are 0-based internally.  The text format (cycle notation, used by the
group file format and the CLI) is 1-based.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import lcm
from operator import itemgetter


class Permutation:
    """An immutable permutation given by its image tuple.

    Products compose left to right: ``(p * q)[i] == q[p[i]]``, i.e. apply
    ``p`` first.  This is the usual right-action convention for permutation
    groups.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not define a permutation")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """Wrap an image tuple already known to be a permutation, unchecked.

        For products, inverses and rows of an element array; anything read
        from outside goes through the validating constructor.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation._trusted(tuple(range(degree)))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Permutation":
        """Build from a list of cycles of 0-based points."""
        images = list(range(degree))
        for cycle in cycles:
            if len(cycle) != len(set(cycle)):
                raise ValueError(f"repeated point in cycle {cycle}")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not (0 <= a < degree):
                    raise ValueError(f"point {a + 1} out of range for degree {degree}")
                images[a] = b
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        q = other.images
        if len(q) != len(self.images):
            raise ValueError("degree mismatch in product")
        if len(q) < 2:  # the only permutation of degree 0 or 1
            return other
        return Permutation._trusted(itemgetter(*self.images)(q))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def order(self) -> int:
        return lcm(1, *map(len, self.cycles()))

    def cycles(self):
        """Nontrivial cycles, each starting at its least point."""
        out = []
        seen = set()
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(cycle)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return format_cycles(self)


@lru_cache(maxsize=None)
def _identity_images(degree: int) -> tuple:
    return tuple(range(degree))


_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)``.

    ``()`` denotes the identity.  Raises ValueError on malformed input or
    out-of-range points.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation")
    consumed = 0
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        if stripped[consumed : m.start()].strip():
            raise ValueError(f"unexpected text in permutation: {text!r}")
        consumed = m.end()
        body = m.group(1).strip()
        if not body:
            continue
        points = [int(tok) for tok in re.split(r"[\s,]+", body)]
        for pt in points:
            if pt < 1 or pt > degree:
                raise ValueError(f"point {pt} out of range 1..{degree}")
        cycles.append([pt - 1 for pt in points])
    if consumed != len(stripped) and stripped[consumed:].strip():
        raise ValueError(f"could not parse permutation: {text!r}")
    return Permutation.from_cycles(cycles, degree)


def format_cycles(p: Permutation) -> str:
    """1-based cycle notation; the identity renders as ``()``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt + 1) for pt in c) + ")" for c in cycles)
