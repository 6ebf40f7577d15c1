"""Words over permutations and the cube construction.

A :class:`Word` is a flat sequence of letters, each a :class:`Permutation`,
evaluated left to right under the project-wide right-action convention.
An inverted letter is the inverse its permutation caches, so inverting a
word twice gives back the very same letter objects and each element's
inverse image tuple is built at most once; :func:`deep_cube_orbit` has
one built only for a word that holds it, a step past a few points, or
any step when it is not asked to search. A
word's letters, read as a list X, also name the cube C(X): the set of
subset products x1^e1 ... xj^ej (e in {0,1}). A :class:`WitnessMap`
holds the images of one root under such a cube, each with its witness
word: a sift level is the map of its shallow cube, grown one letter at a
time, and :func:`deep_cube_orbit` builds the map of a deep cube.
"""

from __future__ import annotations

from typing import Iterable

from .perm import Permutation, point_table, product_images


class Word:
    """A lazily evaluated product of permutations; empty means identity."""

    __slots__ = ("degree", "letters")

    def __init__(self, degree: int, letters: Iterable[Permutation] = ()):
        self.degree = degree
        self.letters = tuple(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def apply(self, p: int) -> int:
        """Image of a point; O(length) via letter-wise image chasing."""
        for g in self.letters:
            p = g.images[p]
        return p

    def eval(self) -> Permutation:
        """Materialize the product as an explicit permutation."""
        if not self.letters:
            return Permutation.unchecked(tuple(point_table(self.degree)[:self.degree]))
        cur = self.letters[0].images
        for g in self.letters[1:]:
            cur = product_images(cur, g.images)
        return Permutation.unchecked(cur)

    def inverse_word(self) -> "Word":
        return Word(self.degree, tuple(g.inverse() for g in reversed(self.letters)))


# A deep-cube step through the inverse of an element that has not built
# one maps each held point by ``images.index``, a C-speed search that
# builds nothing, while the map holds at most this many points. At n =
# 16384 a search takes about 0.09 ms and an inverse build 0.44 ms (means of
# 200, CPython 3.11, 2-vCPU Xeon), so past a few points it is built instead.
# A sift state asks for the search only while it has one level: that is
# the build in which a build-time try can end the decision before any
# inverse is needed. Once a second level opens, most inverses get built
# by a later rebuild or r-word anyway, and searching an element first, at
# 1, 2 and then 4 points in successive rebuilds, only repeats that work.
_SEARCHED_POINTS = 4


class WitnessMap:
    """Witness words of the points a cube expansion reaches from one root,
    as parent links.

    Two degree-sized arrays hold, per discovered point, the point it was
    reached from and the permutation that reached it; the root is its own
    parent with no letter, and an undiscovered point has parent -1.
    ``points`` lists the discovered points in discovery order. Words are
    built on access by walking the links, so recording a point costs two
    stores regardless of how many witness words are ever needed. A point
    reached through the inverse of an element that has not built it is
    linked to the element itself and listed in ``inverted``; a word
    through that link holds ``x.inverse()``, built then.
    """

    __slots__ = ("points", "parent", "letter", "inverted")

    def __init__(self, degree: int, root: int):
        if not 0 <= root < degree:
            raise ValueError(f"point {root} out of range for degree {degree}")
        self.points = [root]
        self.parent = [-1] * degree
        self.parent[root] = root
        self.letter: list[Permutation | None] = [None] * degree
        self.inverted: set[int] = set()

    def expand(self, x: Permutation) -> None:
        """One cube step: add the images under ``x`` of the points held.

        A point already held keeps its first-discovery link.
        """
        arr = x.images
        parent, letter, points = self.parent, self.letter, self.points
        for p in points[:]:
            q = arr[p]
            if parent[q] < 0:
                parent[q] = p
                letter[q] = x
                points.append(q)

    def expand_inverse(self, x: Permutation) -> None:
        """One cube step by ``x^-1``, building no inverse: each held point
        is mapped to its preimage under ``x`` by searching ``x.images``."""
        index = x.images.index
        parent, letter, points, inverted = self.parent, self.letter, self.points, self.inverted
        for p in points[:]:
            q = index(p)
            if parent[q] < 0:
                parent[q] = p
                letter[q] = x
                inverted.add(q)
                points.append(q)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, int) and 0 <= p < len(self.parent) and self.parent[p] >= 0

    def word(self, p: int) -> Word:
        """The witness word mapping the root to p."""
        if p not in self:
            raise KeyError(p)
        parent, letter, inverted = self.parent, self.letter, self.inverted
        rev = []
        x = letter[p]
        while x is not None:
            rev.append(x.inverse() if p in inverted else x)
            p = parent[p]
            x = letter[p]
        rev.reverse()
        return Word(len(parent), rev)


def deep_cube_orbit(
    xstar: Word, beta: int, search: bool = True
) -> tuple[list[int], WitnessMap]:
    """Image set of ``beta`` under the deep cube C(X*)^-1 C(X*).

    C(X)^-1 = C(X^-1) for X^-1 the reversed list of inverses, so this is
    the shallow cube over the concatenation X*^-1, X*. For that list
    x_1..x_m it expands Delta_t = Delta_{t-1} union Delta_{t-1}^{x_t} from
    Delta_0 = {beta}, in list order; a point keeps the link of its first
    discovery, and the expansion stops once it holds all n points, since
    later letters could discover nothing. Every output point gets a word
    over a subsequence of the list, so of length <= 2|X*|, mapping
    ``beta`` to it.
    A step of the X*^-1 half uses the inverse an element caches, if any;
    else, with ``search`` and while the map holds at most
    ``_SEARCHED_POINTS`` points, it records inverted links by searching
    the element's images, and otherwise builds the inverse. Points, order
    and words (down to the inverse objects) are those of an expansion over
    ``xstar.inverse_word()`` either way.
    """
    wit = WitnessMap(xstar.degree, beta)
    n = xstar.degree
    for x in reversed(xstar.letters):
        if len(wit.points) == n:
            break
        if search and x._inv is None and len(wit.points) <= _SEARCHED_POINTS:
            wit.expand_inverse(x)
        else:
            wit.expand(x.inverse())
    for x in xstar.letters:
        if len(wit.points) == n:
            break
        wit.expand(x)
    return wit.points, wit
