"""Explicit permutations on {0, ..., n-1}, composition, orbits, transitivity.

Composition convention (fixed project-wide): ``g * h`` acts as "first g,
then h", i.e. ``(g * h).apply(p) == h.apply(g.apply(p))``. All modules
rely on this right-action order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence


class Permutation:
    """A bijection on {0, ..., n-1}, stored as an explicit image tuple."""

    __slots__ = ("images", "_inv")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        seen = bytearray(n)
        for v in images:
            if not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[v] = 1
        self.images = images
        self._inv: Permutation | None = None

    @classmethod
    def unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a permutation.

        For internal products only: a product or inverse of validated
        permutations is a permutation, so it skips the O(n) check that
        ``Permutation(...)`` runs on outside input.
        """
        g = object.__new__(cls)
        g.images = images
        g._inv = None
        return g

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, p: int) -> int:
        if not 0 <= p < len(self.images):
            raise ValueError(f"point {p} out of range for degree {len(self.images)}")
        return self.images[p]

    def inverse(self) -> "Permutation":
        if self._inv is None:
            inv = [0] * len(self.images)
            for p, v in enumerate(self.images):
                inv[v] = p
            self._inv = Permutation.unchecked(tuple(inv))
            self._inv._inv = self
        return self._inv

    def is_identity(self) -> bool:
        return all(v == p for p, v in enumerate(self.images))

    def support(self) -> list[int]:
        """Moved points, ascending."""
        return [p for p, v in enumerate(self.images) if v != p]

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, fixed points omitted."""
        out = []
        seen = bytearray(len(self.images))
        for p in range(len(self.images)):
            if seen[p] or self.images[p] == p:
                continue
            cyc = [p]
            seen[p] = 1
            q = self.images[p]
            while q != p:
                seen[q] = 1
                cyc.append(q)
                q = self.images[q]
            out.append(tuple(cyc))
        return out

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles over 0-based points."""
        images = list(range(n))
        touched = set()
        for cyc in cycles:
            cyc = list(cyc)
            for p in cyc:
                if not 0 <= p < n:
                    raise ValueError(f"point {p} out of range for degree {n}")
                if p in touched:
                    raise ValueError(f"point {p} repeated across cycles")
                touched.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """First self, then other."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch in product")
        return Permutation.unchecked(product_images(self.images, other.images))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Permutation.identity({self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Permutation[{self.degree}] {text}"


def product_images(first: tuple[int, ...], then: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of "first, then": ``then[first[p]]`` for every p."""
    if len(first) == 1:
        return (then[first[0]],)  # itemgetter of one key returns a bare item
    return itemgetter(*first)(then)


@dataclass
class GeneratorSet:
    """A nonempty ordered list of generators of a common degree."""

    degree: int
    generators: list[Permutation]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not self.generators:
            raise ValueError("generator list must be nonempty")
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError(
                    f"generator degree {g.degree} != set degree {self.degree}"
                )

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


class Orbits:
    """The orbits of the group generated by some permutations, as flat arrays.

    ``root[p]`` is the least point of p's orbit. At a root r, ``size[r]``
    is the orbit's size and ``members[first[r]:first[r] + size[r]]`` its
    points, r first; ``size`` and ``first`` are 0 at other points. No list
    is kept per orbit (each is walked in a short-lived list, then copied
    into ``members``): with small orbits there are ~n of them, and a live
    list each would keep the cyclic GC busy.
    """

    __slots__ = ("root", "size", "first", "members")

    def __init__(self, degree: int, perms: Sequence[Permutation]):
        arrays = [g.images for g in perms]
        root = [-1] * degree
        size = [0] * degree
        first = [0] * degree
        members: list[int] = []
        # points are scanned in ascending order, so each orbit is first met
        # at its least point
        for start in range(degree):
            if root[start] >= 0:
                continue
            root[start] = start
            cell = [start]
            for p in cell:  # grows while it is walked
                for arr in arrays:
                    q = arr[p]
                    if root[q] < 0:
                        root[q] = start
                        cell.append(q)
            first[start] = len(members)
            size[start] = len(cell)
            members += cell
        self.root, self.size, self.first, self.members = root, size, first, members

    @property
    def degree(self) -> int:
        return len(self.root)

    def cell(self, p: int) -> list[int]:
        """The points of p's orbit, its least point first."""
        r = self.root[p]
        i = self.first[r]
        return self.members[i:i + self.size[r]]


def orbit(
    actions, start: int, limit: int | None = None, cells: Orbits | None = None
) -> list[int]:
    """Closure of {start} under point-action providers, in discovery order.

    A provider is anything with an ``apply(p) -> point`` method (a
    Permutation or a Word). Without ``cells`` this is a breadth-first walk
    of the growing output list: ``start`` comes first, and the order is
    deterministic given provider order. With ``cells``, the orbits of a
    group K, the result is the closure under K and the providers together,
    reached one whole cell at a time: a newly reached point brings in its
    cell, listed least point first, and only the providers are applied to
    each point. With ``limit``, the search stops as soon as it holds more
    than ``limit`` points (with cells, before walking the cell that passed
    it) and returns what it holds, so a result longer than ``limit`` is not
    the whole orbit.
    """
    actions = list(actions)
    degree = None if cells is None else cells.degree
    for a in actions:
        if degree is None:
            degree = a.degree
        elif a.degree != degree:
            raise ValueError("providers must share one degree")
    if degree is None:
        return [start]
    if not 0 <= start < degree:
        raise ValueError(f"start point {start} out of range for degree {degree}")
    if limit is None:
        limit = degree  # an orbit never exceeds the degree
    elif limit < 1:
        raise ValueError("limit must be at least 1")
    appliers = [a.apply for a in actions]
    if cells is not None:
        return _cell_closure(appliers, start, limit, cells)
    seen = bytearray(degree)
    seen[start] = 1
    out = [start]
    if all(isinstance(a, Permutation) for a in actions):
        # index the image arrays: no call per step
        arrays = [a.images for a in actions]
        for p in out:  # grows while it is walked
            for arr in arrays:
                q = arr[p]
                if not seen[q]:
                    seen[q] = 1
                    out.append(q)
                    if len(out) > limit:
                        return out
        return out
    for p in out:  # grows while it is walked
        for f in appliers:
            q = f(p)
            if not seen[q]:
                seen[q] = 1
                out.append(q)
                if len(out) > limit:
                    return out
    return out


def _cell_closure(appliers, start: int, limit: int, cells: Orbits) -> list[int]:
    """``orbit`` with cells: held cells are a set of roots, so a closure
    that stops early allocates nothing of the degree's size."""
    root, size, first, members = cells.root, cells.size, cells.first, cells.members
    out = cells.cell(start)
    if len(out) > limit:
        return out
    held = {root[start]}
    for p in out:  # grows while it is walked
        for f in appliers:
            r = root[f(p)]
            if r not in held:
                held.add(r)
                i = first[r]
                out += members[i:i + size[r]]
                if len(out) > limit:
                    return out
    return out


def is_transitive(gens: GeneratorSet) -> bool:
    return len(orbit(gens.generators, 0)) == gens.degree
