"""Block machinery: minimal blocks, blockness testing, and the quadratic baseline.

``minimal_block`` is the union-find closure algorithm of Atkinson, Hassan,
and Thorne; ``blockness_test`` propagates translates of a candidate block
by BFS and either assembles the full block system or returns a witness
element moving the candidate to an overlapping, unequal set.
``atkinson_baseline`` is the classic quadratic primitivity test used as
the project-wide oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Literal

from .perm import GeneratorSet, Permutation, is_transitive


class InternalError(RuntimeError):
    """A driver invariant failed: a fault in the library, not in its input."""


@dataclass
class BlockSystem:
    """An equal-cell partition of the points, preserved by the group."""

    degree: int
    block_of: list[int]
    blocks: list[list[int]]

    def __post_init__(self):
        if len(self.block_of) != self.degree:
            raise ValueError("block_of must cover every point")
        sizes = {len(b) for b in self.blocks}
        if len(sizes) != 1:
            raise ValueError("blocks must have equal size")
        counted = sorted(p for b in self.blocks for p in b)
        if counted != list(range(self.degree)):
            raise ValueError("blocks must partition the points")
        for bid, b in enumerate(self.blocks):
            for p in b:
                if self.block_of[p] != bid:
                    raise ValueError("block_of inconsistent with blocks")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def nontrivial(self) -> bool:
        return 1 < self.block_size < self.degree

    @classmethod
    def from_blocks(cls, degree: int, blocks: Iterable[Iterable[int]]) -> "BlockSystem":
        blocks = [sorted(b) for b in blocks]
        block_of = [-1] * degree
        for bid, b in enumerate(blocks):
            for p in b:
                if not 0 <= p < degree or block_of[p] != -1:
                    raise ValueError("blocks must partition the points")
                block_of[p] = bid
        return cls(degree, block_of, blocks)


@dataclass
class BlockWitness:
    """Evidence that a candidate set is not a block.

    ``g1`` maps ``beta`` (in the candidate) to ``gamma`` (also in the
    candidate) yet moves the candidate to a different set. The word lists
    (generator index, inverted) letters whose product is ``g1``.
    """

    beta: int
    gamma: int
    g1: Permutation
    gen_word: list[tuple[int, bool]]


@dataclass
class BlocknessResult:
    kind: Literal["is_block", "not_block"]
    system: BlockSystem | None = None
    witness: BlockWitness | None = None


class _UnionFind:
    """Path compression + union by size, with live class members."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, p: int) -> int:
        root = p
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[p] != root:
            parent[p], p = root, parent[p]
        return root

    def union(self, p: int, q: int) -> bool:
        rp, rq = self.find(p), self.find(q)
        if rp == rq:
            return False
        if self.size[rp] < self.size[rq]:
            rp, rq = rq, rp
        self.parent[rq] = rp
        self.size[rp] += self.size[rq]
        return True


def _minimal_block_unchecked(gens: GeneratorSet, seed: Iterable[int]) -> set[int]:
    seed = list(dict.fromkeys(seed))
    uf = _UnionFind(gens.degree)
    events: deque[tuple[int, int]] = deque()
    anchor = seed[0]
    for p in seed[1:]:
        if uf.union(anchor, p):
            events.append((anchor, p))
    arrays = [g.images for g in gens.generators]
    while events:
        p, q = events.popleft()
        for arr in arrays:
            ip, iq = arr[p], arr[q]
            if uf.union(ip, iq):
                events.append((ip, iq))
    root = uf.find(anchor)
    return {p for p in range(gens.degree) if uf.find(p) == root}


def minimal_block(gens: GeneratorSet, seed: Iterable[int]) -> set[int]:
    """Smallest block of a transitive group containing the seed set."""
    seed = list(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    if not is_transitive(gens):
        raise ValueError("minimal_block requires a transitive group")
    return _minimal_block_unchecked(gens, seed)


def blockness_test(gens: GeneratorSet, delta: Iterable[int], alpha: int) -> BlocknessResult:
    """Decide whether a candidate set is a block, by translate propagation.

    The group must be transitive; the caller checks that once (the drivers,
    ``atkinson_baseline`` and ``minimal_block`` do), and it is not checked
    again here. On success returns the assembled block system; on failure
    returns a witness g1 = w s w'^-1 built from the BFS parent paths of the
    two conflicting translates.
    """
    n = gens.degree
    delta = sorted(set(delta))
    if alpha not in delta:
        raise ValueError("alpha must lie in the candidate set")
    if not 1 < len(delta) < n:
        raise ValueError("candidate must be nontrivial (1 < |delta| < n)")
    arrays = [g.images for g in gens.generators]
    block_of = [-1] * n
    blocks: list[list[int]] = [list(delta)]
    parent: list[tuple[int, int] | None] = [None]  # (parent block id, generator index)
    for p in delta:
        block_of[p] = 0
    queue = deque((0,))
    while queue:
        b = queue.popleft()
        pts = blocks[b]
        for si, arr in enumerate(arrays):
            img = [arr[p] for p in pts]
            ids = {block_of[p] for p in img}
            if ids == {-1}:
                bid = len(blocks)
                blocks.append(img)
                parent.append((b, si))
                for p in img:
                    block_of[p] = bid
                queue.append(bid)
                continue
            if len(ids) == 1:
                c = next(iter(ids))
                if len(img) == len(blocks[c]):
                    continue  # translate coincides with an existing block
            return BlocknessResult(
                "not_block",
                witness=_build_witness(
                    gens, delta, b, si, img, block_of, parent
                ),
            )
    system = BlockSystem(n, block_of, [sorted(b) for b in blocks])
    return BlocknessResult("is_block", system=system)


def _path_word(parent: list[tuple[int, int] | None], b: int) -> list[int]:
    """Generator indices along the BFS path from the root block to b."""
    rev = []
    while parent[b] is not None:
        pb, si = parent[b]
        rev.append(si)
        b = pb
    return rev[::-1]


def _build_witness(
    gens: GeneratorSet,
    delta: list[int],
    b: int,
    si: int,
    img: list[int],
    block_of: list[int],
    parent: list[tuple[int, int] | None],
) -> BlockWitness:
    # conflicting assigned block: first image point already carrying an id
    c = next(block_of[p] for p in img if block_of[p] != -1)
    w = _path_word(parent, b)
    w2 = _path_word(parent, c)
    gen_word = [(g, False) for g in w] + [(si, False)] + [
        (g, True) for g in reversed(w2)
    ]
    g1 = Permutation.identity(gens.degree)
    for gi, inv in gen_word:
        g = gens.generators[gi]
        g1 = g1 * (g.inverse() if inv else g)
    dset = set(delta)
    beta = next(p for p in delta if g1.images[p] in dset)
    return BlockWitness(beta, g1.images[beta], g1, gen_word)


def atkinson_baseline(gens: GeneratorSet) -> BlockSystem | None:
    """Quadratic primitivity test: None if primitive, else a block system.

    Scans seeds {0, lam} for lam = 1..n-1 and expands the first proper
    minimal block found. Degree 1 is primitive, as in the drivers.
    """
    n = gens.degree
    if not is_transitive(gens):
        raise ValueError("baseline requires a transitive group")
    for lam in range(1, n):
        m = _minimal_block_unchecked(gens, [0, lam])
        if 1 < len(m) < n:
            res = blockness_test(gens, m, 0)
            if res.kind != "is_block":
                raise InternalError("minimal block must pass blockness")
            return res.system
    return None


def validate_block_system(gens: GeneratorSet, bs: BlockSystem) -> bool:
    """True iff bs is an equal-cell partition permuted by every generator."""
    if gens.degree != bs.degree:
        return False
    try:
        BlockSystem(bs.degree, bs.block_of, bs.blocks)
    except ValueError:
        return False
    for g in gens.generators:
        arr = g.images
        for b in bs.blocks:
            ids = {bs.block_of[arr[p]] for p in b}
            if len(ids) != 1:
                return False
    return True
