"""Explicit permutations on {0, ..., n-1}, composition, orbits, transitivity.

Composition convention (fixed project-wide): ``g * h`` acts as "first g,
then h", i.e. ``(g * h).apply(p) == h.apply(g.apply(p))``. All modules
rely on this right-action order.

Image values are the ints of one shared table (:func:`point_table`), not
an int object per image: ``Permutation(...)`` stores the table's ints,
and products and inverses take theirs from image tuples or the table. So
an image tuple costs 8 bytes per point per permutation. The table lives
for the process: about 36 bytes × (up to 2 × the largest degree seen).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, Sequence

# the ints 0..len - 1; rebound to a longer copy, never changed in place
_points: list[int] = []


def point_table(n: int) -> list[int]:
    """The shared ints 0..N-1, N >= n. A growth doubles the table into a
    fresh list that keeps the old ints, so a list once returned never
    changes: a thread racing a growth sees a shorter or another table,
    never a misaligned one, and two racing growths only leave some ints
    unshared."""
    global _points
    table = _points
    if len(table) < n:
        table = _points = table + list(range(len(table), max(n, 2 * len(table))))
    return table


class Permutation:
    """A bijection on {0, ..., n-1}, stored as an explicit image tuple."""

    __slots__ = ("images", "_inv")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        # n distinct table ints (all >= 0) sum to n(n-1)/2 only if they are 0..n-1; an image v
        # in -N..-1 (N = table length) gathers v + N, so sum(images) is then lower by N per v.
        try:
            points = product_images(images, point_table(n))
            valid = len(set(points)) == n and sum(points) == n * (n - 1) // 2 == sum(images)
        except (TypeError, IndexError):  # an image that is no index, or outside -N..N-1
            valid = False
        if not valid:  # the slow checks, in this order, choose the exception raised
            if n < 1:
                raise ValueError("degree must be at least 1")
            if not 0 <= min(images) or not max(images) < n:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            # a non-int image raises TypeError here, before the duplicate check
            points = product_images(images, point_table(n))
            if len(set(points)) != n:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
        self.images = points
        self._inv: Permutation | None = None

    @classmethod
    def unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a permutation.

        For internal products only: a product or inverse of validated
        permutations is a permutation, so it skips the O(n) check that
        ``Permutation(...)`` runs on outside input. Callers pass image
        tuples of :func:`point_table` ints, as products and inverses of
        validated permutations are.
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
            n = len(self.images)
            inv = [0] * n
            for p, v in zip(point_table(n), self.images):
                inv[v] = p
            self._inv = Permutation.unchecked(tuple(inv))
            self._inv._inv = self
        return self._inv

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
        # a bool is an int, so True would pass as degree 1
        if isinstance(self.degree, bool) or not isinstance(self.degree, int):
            raise ValueError(f"degree must be an int, not {type(self.degree).__name__}")
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

    def merged(self, perms: Sequence[Permutation]) -> "Orbits":
        """The orbits of the group generated by these orbits' group and
        ``perms``, found by joining cells instead of walking every
        generator again.

        ``root`` and ``size`` equal those of ``Orbits`` on all the
        generators, and each cell is listed from its root, but a joined
        cell lists its old cells whole, in the order the walk reaches them.
        Only ``perms`` act: a cell that a walked point lands in joins whole.
        """
        root, size, first, members = self.root, self.size, self.first, self.members
        n = len(root)
        # per permutation, the old root of each point's image, found in C
        lands = [product_images(g.images, root) for g in perms]
        rename = list(range(n))  # old root -> root of its joined cell
        taken = bytearray(n)
        new_size = [0] * n
        new_first = [0] * n
        out: list[int] = []
        # old roots ascend, so each joined cell is first met at its least root
        for r in compress(range(n), size):
            if taken[r]:
                continue
            taken[r] = 1
            i = first[r]
            cell = members[i:i + size[r]]
            for p in cell:  # grows while it is walked
                for land in lands:
                    c = land[p]
                    if not taken[c]:
                        taken[c] = 1
                        rename[c] = r
                        j = first[c]
                        cell += members[j:j + size[c]]
            new_first[r] = len(out)
            new_size[r] = len(cell)
            out += cell
        cells = object.__new__(Orbits)
        cells.root = list(product_images(root, rename))
        cells.size, cells.first, cells.members = new_size, new_first, out
        return cells

    def cell(self, p: int) -> list[int]:
        """The points of p's orbit, its least point first."""
        r = self.root[p]
        i = self.first[r]
        return self.members[i:i + self.size[r]]


def orbit(perm: Permutation, start: int, limit: int, cells: Orbits | None = None) -> list[int]:
    """Closure of {start} under one permutation, in discovery order.

    Without ``cells`` this is the cycle of ``perm`` through ``start``,
    walked from ``start``. With ``cells``, the orbits of a group K, it is
    the closure under K and ``perm`` together, reached one whole cell at a
    time: a newly reached point brings in its cell, listed least point
    first, and only ``perm`` acts on each point. Held cells are a set of
    roots, so a closure that stops early allocates nothing of the degree's
    size. The walk stops as soon as it holds more than ``limit`` points:
    a cycle after ``limit`` steps (``[start]`` at limit 0), a closure before
    walking the cell that passed it. A longer result may not be the orbit.
    """
    arr = perm.images
    if not 0 <= start < len(arr):
        raise ValueError(f"start point {start} out of range for degree {len(arr)}")
    if cells is None:
        out = [start]
        p = arr[start]
        for _ in repeat(None, limit):
            if p == start:
                break
            out.append(p)
            p = arr[p]
        return out
    if len(arr) != cells.degree:
        raise ValueError("permutation and cells must share one degree")
    root, size, first, members = cells.root, cells.size, cells.first, cells.members
    out = cells.cell(start)
    if len(out) > limit:
        return out
    held = {root[start]}
    for p in out:  # grows while it is walked
        r = root[arr[p]]
        if r not in held:
            held.add(r)
            i = first[r]
            out += members[i:i + size[r]]
            if len(out) > limit:
                return out
    return out


def is_transitive(gens: GeneratorSet) -> bool:
    """Whether 0's orbit is every point. The first generator moving 0 is
    walked round its cycle through 0 with no seen array: an n-cycle answers
    True in k + n image reads (k generators ahead), and a lone generator
    answers either way. Otherwise held points are taken in discovery order,
    and from each, each generator's cycle is followed until it meets a held
    point: at most n |S| + n - 1 reads, each adding a point or ending a walk.
    """
    n = gens.degree
    arrays = [g.images for g in gens.generators]
    for arr in arrays:
        if p := arr[0]:
            break
    held = [0]
    while p:
        held.append(p)
        p = arr[p]
    if len(held) == n or len(arrays) == 1:
        return len(held) == n
    seen = bytearray(n)
    for p in held:
        seen[p] = 1
    for p in held:  # grows while it is walked
        for arr in arrays:
            q = arr[p]
            while not seen[q]:
                seen[q] = 1
                held.append(q)
                q = arr[q]
        if len(held) == n:
            return True
    return False
