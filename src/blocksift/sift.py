"""Deep sifting: the base/cube data structure and the sift procedure.

The state keeps base points beta_1..beta_l with, per level i, a list X_i of
stored permutations whose shallow cube C(X_i) maps beta_i to 2^|X_i|
distinct points (the tracked set Delta_i, every point carrying a witness
word over X_i). Sifting an element either strips it to the identity
through the shallow cubes, appends it to the first level whose tracked set
it translates off itself, or opens a new base level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .perm import Permutation
from .words import Atom, CubeList, ElementStore, WitnessMap, Word, deep_cube_orbit


@dataclass
class Level:
    """One level of the structure: beta_i, X_i, and witnessed Delta_i."""

    beta: int
    elems: list[int]  # store indices of X_i, in append order
    witness: WitnessMap  # Delta_i point -> word over X_i reaching it from beta_i

    @classmethod
    def seeded(cls, store: ElementStore, beta: int, idx: int) -> "Level":
        """A level with X_i = [stored element idx], which must move beta."""
        witness = WitnessMap(store, [beta])
        witness.expand(Atom(idx))
        return cls(beta, [idx], witness)

    @property
    def delta(self) -> list[int]:
        """Delta_i in discovery order."""
        return self.witness.points


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
    """Result of one sift, with enough data to reconstruct the input.

    The chain holds the (s, t) coset-word pairs applied in order; the
    terminal element is what remained when stripping stopped. The input
    factors as s1^-1 (s2^-1 (... terminal ...) t2) t1.
    """

    kind: Literal["appended", "new_base_point", "sifted_to_identity"]
    level: int | None
    chain: list[tuple[Word, Word]]
    terminal: Permutation

    def reconstruct(self) -> Permutation:
        g = self.terminal
        for s, t in reversed(self.chain):
            g = s.eval().inverse() * g * t.eval()
        return g


class SiftState:
    """Single-owner mutable deep-sifting state with base-size cap L."""

    def __init__(self, n: int, cap: int, store: ElementStore, levels: list[Level]):
        self.n = n
        self.cap = cap
        self.store = store
        self.levels = levels
        self.sift_count = 0

    @classmethod
    def init_state(cls, n: int, cap: int, seed: Permutation, beta1: int) -> "SiftState":
        if cap < 1:
            raise ValueError("cap must be at least 1")
        if seed.degree != n:
            raise ValueError("seed degree mismatch")
        if seed.images[beta1] == beta1:
            raise ValueError("seed must move the first base point")
        store = ElementStore(n)
        return cls(n, cap, store, [Level.seeded(store, beta1, store.add(seed))])

    @property
    def level_count(self) -> int:
        return len(self.levels)

    @property
    def base(self) -> list[int]:
        return [lv.beta for lv in self.levels]

    def sum_xi(self, start_level: int = 1) -> int:
        return sum(len(lv.elems) for lv in self.levels[start_level - 1:])

    def level_perms(self, i: int) -> list[Permutation]:
        """Explicit elements of X_i (1-based level index)."""
        return [self.store.perm(idx) for idx in self.levels[i - 1].elems]

    def deep_element_perms(self) -> list[Permutation]:
        """Explicit elements of X_2*, i.e. all levels below the first."""
        out = []
        for lv in self.levels[1:]:
            out.extend(self.store.perm(idx) for idx in lv.elems)
        return out

    def xstar(self, i: int) -> CubeList:
        """Concatenation X_l, X_{l-1}, ..., X_i as a cube list."""
        if not 1 <= i <= self.level_count:
            raise ValueError(f"level {i} out of range 1..{self.level_count}")
        atoms = []
        for lv in reversed(self.levels[i - 1:]):
            atoms.extend(Atom(idx) for idx in lv.elems)
        return CubeList(self.store, atoms)

    def level_deep_orbit(self, i: int) -> tuple[list[int], WitnessMap]:
        """Images of beta_i under the deep cube at level i, with r-words."""
        return deep_cube_orbit(self.xstar(i), self.levels[i - 1].beta)

    def deep_sift(self, g: Permutation) -> SiftOutcome:
        if g.degree != self.n:
            raise ValueError("degree mismatch in deep_sift")
        if self.level_count > self.cap:
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
            held = lv.witness.parent
            inter = [q for q in map(img.__getitem__, lv.delta) if held[q] >= 0]
            if not inter:
                self._append_to_level(lv, g)
                return SiftOutcome("appended", idx + 1, chain, g)
            lam = min(inter)
            s = lv.witness.word(img.index(lam))
            t = lv.witness.word(lam)
            chain.append((s, t))
            g = s.eval() * g * t.inverse_word().eval()
        if g.is_identity():
            return SiftOutcome("sifted_to_identity", None, chain, g)
        beta = min(g.support())
        self.levels.append(Level.seeded(self.store, beta, self.store.add(g)))
        return SiftOutcome("new_base_point", self.level_count, chain, g)

    def _append_to_level(self, lv: Level, g: Permutation) -> None:
        """Append g to X_i; g translates Delta_i off itself, so it doubles."""
        store_idx = self.store.add(g)
        lv.witness.expand(Atom(store_idx))
        lv.elems.append(store_idx)

    def certificate(self) -> Certificate:
        """(beta_i, first element of X_i) for every level."""
        return Certificate(
            [(lv.beta, self.store.perm(lv.elems[0])) for lv in self.levels]
        )

    def validate(self) -> None:
        """Check all structural invariants; raises AssertionError on violation.

        The checks are explicit raises, not ``assert`` statements, so they
        also run under ``python -O``.
        """
        if not 1 <= self.level_count <= self.cap + 1:
            raise AssertionError("level count must lie in 1..cap+1")
        if len(set(self.base)) != self.level_count:
            raise AssertionError("base points must be distinct")
        log2n = max(1, (self.n - 1).bit_length())
        for k, lv in enumerate(self.levels):
            if not lv.elems:
                raise AssertionError("every level has a nonempty X_i")
            if len(lv.elems) > log2n:
                raise AssertionError("|X_i| must be at most log2 n")
            if len(lv.delta) != 2 ** len(lv.elems):
                raise AssertionError("|Delta_i| must be 2^|X_i|")
            if lv.beta not in lv.delta:
                raise AssertionError("beta_i must lie in Delta_i")
            for idx in lv.elems:
                x = self.store.perm(idx)
                if x.images[lv.beta] == lv.beta:
                    raise AssertionError("every element of X_i moves beta_i")
                for prev in self.levels[:k]:
                    if x.images[prev.beta] != prev.beta:
                        raise AssertionError("X_i must fix the earlier base points")
            for p in lv.delta:
                w = lv.witness.word(p)
                if len(w) > len(lv.elems):
                    raise AssertionError("a witness word is at most |X_i| long")
                if w.apply(lv.beta) != p:
                    raise AssertionError("a witness word maps beta_i to its point")

    def debug_dump(self) -> dict:
        """JSON-ready snapshot of the per-level structure."""
        return {
            "degree": self.n,
            "cap": self.cap,
            "levels": [
                {
                    "beta": lv.beta,
                    "x": [list(self.store.perm(i).images) for i in lv.elems],
                    "delta": sorted(lv.delta),
                }
                for lv in self.levels
            ],
            "sifts": self.sift_count,
        }

