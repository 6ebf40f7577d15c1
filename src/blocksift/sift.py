"""Deep sifting: the base/cube data structure and the sift procedure.

The state keeps base points beta_1..beta_l with, per level i, a list X_i of
permutations whose shallow cube C(X_i) maps beta_i to 2^|X_i| distinct
points (the tracked set Delta_i, every point carrying a witness word over
X_i). A :class:`Level` is that data and nothing else: the witness map of
C(X_i) rooted at beta_i, which also keeps X_i. The letters of every word
are the elements of X_i themselves, or the inverses they cache, so each
element is held once. Sifting an element either strips it to the
identity through the shallow cubes, appends it to the first level whose
tracked set it translates off itself, or opens a new base level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .perm import Permutation
from .words import WitnessMap, Word, deep_cube_orbit


class Level(WitnessMap):
    """One level of the structure: the witness map of the shallow cube
    C(X_i) rooted at beta_i.

    ``points`` is Delta_i in discovery order and ``word(p)`` the word over
    X_i mapping beta_i to p; ``elems`` is X_i in append order, each
    element expanding the map once as it is appended.
    """

    __slots__ = ("beta", "elems")

    def __init__(self, beta: int, x: Permutation):
        """A level with X_i = [x], which must move beta."""
        super().__init__(x.degree, beta)
        self.beta = beta
        self.elems = [x]
        self.expand(x)


def check_cap(cap: int) -> None:
    """The one rule for a base-size cap: an int, not a bool, of at least 1."""
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ValueError(f"cap must be an int, not {type(cap).__name__}")
    if cap < 1:
        raise ValueError("cap must be at least 1")


@dataclass
class Certificate:
    """Nonredundancy witnesses: g_i fixes beta_j (j < i) and moves beta_i."""

    entries: list[tuple[int, Permutation]]

    def __len__(self) -> int:
        return len(self.entries)

    def validate(self) -> bool:
        for i, (beta, g) in enumerate(self.entries):
            if g.images[beta] == beta:
                return False
            for bj, _ in self.entries[:i]:
                if g.images[bj] != bj:
                    return False
        return True


@dataclass
class SiftOutcome:
    """Result of one sift.

    The chain holds the (s, t) coset-word pairs applied in order; the
    terminal element is what remained when stripping stopped. The input
    factors as s1^-1 (s2^-1 (... terminal ...) t2) t1. Only direct calls
    get ``sifted_to_identity``: every sift a driver makes appends or opens
    a level (see ``transversal._close_transversal``).
    """

    kind: Literal["appended", "new_base_point", "sifted_to_identity"]
    chain: list[tuple[Word, Word]]
    terminal: Permutation


class SiftState:
    """Single-owner mutable deep-sifting state with base-size cap L."""

    def __init__(self, n: int, cap: int, seed: Permutation, beta1: int):
        """One level, X_1 = [seed] at base point beta1, which seed must move."""
        check_cap(cap)
        if seed.degree != n:
            raise ValueError("seed degree mismatch")
        if seed.images[beta1] == beta1:
            raise ValueError("seed must move the first base point")
        self.n = n
        self.cap = cap
        self.levels = [Level(beta1, seed)]
        self.sift_count = 0

    @property
    def level_count(self) -> int:
        return len(self.levels)

    @property
    def capped(self) -> bool:
        """True once the level count has passed the base-size cap."""
        return len(self.levels) > self.cap

    def sum_xi(self, start_level: int = 1) -> int:
        return sum(len(lv.elems) for lv in self.levels[start_level - 1:])

    def deep_element_perms(self) -> list[Permutation]:
        """The elements of X_2*, i.e. of all levels below the first."""
        return [x for lv in self.levels[1:] for x in lv.elems]

    def xstar(self, i: int) -> Word:
        """Concatenation X_l, X_{l-1}, ..., X_i as one word."""
        if not 1 <= i <= self.level_count:
            raise ValueError(f"level {i} out of range 1..{self.level_count}")
        return Word(self.n, [x for lv in reversed(self.levels[i - 1:]) for x in lv.elems])

    def level_deep_orbit(self, i: int) -> tuple[list[int], WitnessMap]:
        """Images of beta_i under the deep cube at level i, with r-words.
        Inverses are searched, not built, only while the state has one
        level (see ``words._SEARCHED_POINTS``)."""
        return deep_cube_orbit(
            self.xstar(i), self.levels[i - 1].beta, search=len(self.levels) == 1
        )

    def deep_sift(self, g: Permutation) -> SiftOutcome:
        if g.degree != self.n:
            raise ValueError("degree mismatch in deep_sift")
        if self.capped:
            raise ValueError("base-size cap already reached; caller must stop")
        self.sift_count += 1
        chain: list[tuple[Word, Word]] = []
        while True:
            idx = next(
                (k for k, lv in enumerate(self.levels) if g.images[lv.beta] != lv.beta),
                None,
            )
            if idx is None:
                break
            lv = self.levels[idx]
            img = g.images
            held = lv.parent
            inter = [q for q in map(img.__getitem__, lv.points) if held[q] >= 0]
            if not inter:
                # g translates Delta_i off itself, so appending it doubles Delta_i
                lv.expand(g)
                lv.elems.append(g)
                return SiftOutcome("appended", chain, g)
            lam = min(inter)
            s = lv.word(img.index(lam))
            t = lv.word(lam)
            chain.append((s, t))
            # s g t^-1 as one word: an empty s or t costs no identity product
            g = Word(self.n, s.letters + (g,) + t.inverse_word().letters).eval()
        # the least moved point, by a scan that stops at it; no moved point
        # means g stripped to the identity
        beta = next((p for p, v in enumerate(g.images) if v != p), None)
        if beta is None:
            return SiftOutcome("sifted_to_identity", chain, g)
        self.levels.append(Level(beta, g))
        return SiftOutcome("new_base_point", chain, g)

    def certificate(self) -> Certificate:
        """(beta_i, first element of X_i) for every level."""
        return Certificate([(lv.beta, lv.elems[0]) for lv in self.levels])
