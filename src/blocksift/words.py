"""Words over stored permutations and the cube construction.

Group elements produced during sifting live in an append-only
:class:`ElementStore`; a :class:`Word` is a flat sequence of atoms, each a
(store index, inversion flag) pair, evaluated left to right under the
project-wide right-action convention. A word's letters, read as a list
X, also name the cube C(X): the set of subset products
x1^e1 ... xj^ej (e in {0,1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .perm import Permutation, product_images


@dataclass(frozen=True, slots=True)
class Atom:
    """One letter of a word: a stored element, possibly inverted."""

    elem: int
    inverted: bool = False

    def __post_init__(self):
        # letters are looked up by list index, where -1 would silently
        # name the last stored element
        if self.elem < 0:
            raise ValueError(f"element index must be non-negative, not {self.elem}")

    def invert(self) -> "Atom":
        return Atom(self.elem, not self.inverted)


class ElementStore:
    """Append-only store of explicit permutations referenced by words.

    Image arrays are kept in lists indexed by element number: forward
    images as elements are added, inverse images built on first use, once
    per element. A letter lookup is then a list index.
    """

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self._perms: list[Permutation] = []
        self.images: list[tuple[int, ...]] = []
        self._inverse_images: list[tuple[int, ...] | None] = []

    def add(self, g: Permutation) -> int:
        if g.degree != self.degree:
            raise ValueError("degree mismatch in element store")
        self._perms.append(g)
        self.images.append(g.images)
        self._inverse_images.append(None)
        return len(self._perms) - 1

    def perm(self, index: int) -> Permutation:
        if not 0 <= index < len(self._perms):
            raise RuntimeError(f"dangling element reference {index}")
        return self._perms[index]

    def inverse_images(self, index: int) -> tuple[int, ...]:
        inv = self._inverse_images[index]
        if inv is None:
            inv = self._inverse_images[index] = self._perms[index].inverse().images
        return inv

    def atom_images(self, atom: Atom) -> tuple[int, ...]:
        """Image array realizing one atom's point action."""
        if atom.inverted:
            return self.inverse_images(atom.elem)
        return self.images[atom.elem]

    def __len__(self) -> int:
        return len(self._perms)


class Word:
    """A lazily evaluated product of stored elements; empty means identity."""

    __slots__ = ("store", "atoms")

    def __init__(self, store: ElementStore, atoms: Iterable[Atom] = ()):
        self.store = store
        self.atoms = tuple(atoms)

    @property
    def degree(self) -> int:
        return self.store.degree

    def __len__(self) -> int:
        return len(self.atoms)

    def apply(self, p: int) -> int:
        """Image of a point; O(length) via atom-wise image chasing."""
        atom_images = self.store.atom_images
        for atom in self.atoms:
            p = atom_images(atom)[p]
        return p

    def eval(self) -> Permutation:
        """Materialize the product as an explicit permutation."""
        if not self.atoms:
            return Permutation.unchecked(tuple(range(self.store.degree)))
        atom_images = self.store.atom_images
        cur = atom_images(self.atoms[0])
        for atom in self.atoms[1:]:
            cur = product_images(cur, atom_images(atom))
        return Permutation.unchecked(cur)

    def inverse_word(self) -> "Word":
        return Word(self.store, tuple(a.invert() for a in reversed(self.atoms)))

    def __repr__(self) -> str:
        body = " ".join(
            f"{a.elem}{'^-1' if a.inverted else ''}" for a in self.atoms
        )
        return f"Word[{body}]" if body else "Word[e]"


class WitnessMap:
    """Witness words of the points a cube expansion reaches, as parent links.

    Two degree-sized arrays hold, per discovered point, the point it was
    reached from and the letter that reached it; a root is its own parent
    with no letter, and an undiscovered point has parent -1. ``points``
    lists the discovered points in discovery order. Words are built on
    access by walking the links, so recording a point costs two stores
    regardless of how many witness words are ever needed.
    """

    __slots__ = ("store", "points", "parent", "letter")

    def __init__(self, store: ElementStore, roots: Iterable[int]):
        n = store.degree
        self.store = store
        self.points: list[int] = []
        self.parent = [-1] * n
        self.letter: list[Atom | None] = [None] * n
        for p in roots:
            if not 0 <= p < n:
                raise ValueError(f"point {p} out of range for degree {n}")
            if self.parent[p] < 0:
                self.parent[p] = p
                self.points.append(p)

    def expand(self, atom: Atom) -> None:
        """One cube step: add the images under ``atom`` of the points held.

        A point already held keeps its first-discovery link.
        """
        arr = self.store.atom_images(atom)
        parent, letter, points = self.parent, self.letter, self.points
        for p in points[:]:
            q = arr[p]
            if parent[q] < 0:
                parent[q] = p
                letter[q] = atom
                points.append(q)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, int) and 0 <= p < len(self.parent) and self.parent[p] >= 0

    def word(self, p: int) -> Word:
        """The witness word mapping p's source to p."""
        if p not in self:
            raise KeyError(p)
        parent, letter = self.parent, self.letter
        rev = []
        atom = letter[p]
        while atom is not None:
            rev.append(atom)
            p = parent[p]
            atom = letter[p]
        rev.reverse()
        return Word(self.store, rev)


def cube_set_image(x: Word, delta: Iterable[int]) -> tuple[list[int], WitnessMap]:
    """Image set of ``delta`` under the cube C(X), with witness words.

    Expands Delta_t = Delta_{t-1} union Delta_{t-1}^{x_t} in list order.
    Each output point gets a source point of ``delta`` and a word over a
    subsequence of X (in index order, length <= |X|) mapping source to it;
    ties resolve to the first discovery. Points of ``delta`` get the empty
    word. The expansion stops once it holds all n points, since later
    letters could discover nothing.
    """
    wit = WitnessMap(x.store, delta)
    if not wit.points:
        raise ValueError("delta must be nonempty")
    n = x.store.degree
    for atom in x.atoms:
        if len(wit.points) == n:
            break
        wit.expand(atom)
    return wit.points, wit


def deep_cube_orbit(xstar: Word, beta: int) -> tuple[list[int], WitnessMap]:
    """Image set of ``beta`` under the deep cube C(X*)^-1 C(X*).

    Runs :func:`cube_set_image` over the concatenation X*^-1, X*, since
    C(X)^-1 = C(X^-1) for X^-1 the reversed list of inverses; every output
    point gets a word of length <= 2|X*| mapping ``beta`` to it.
    """
    full = Word(xstar.store, xstar.inverse_word().atoms + xstar.atoms)
    return cube_set_image(full, [beta])
