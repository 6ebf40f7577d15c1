"""Block machinery: minimal blocks, blockness testing, and the quadratic baseline.

``minimal_block`` is the union-find closure algorithm of Atkinson, Hassan,
and Thorne; ``blockness_test`` propagates translates of a candidate block
by BFS and either assembles the full block system or returns a witness
word over the generators, whose product moves the candidate to an
overlapping, unequal set.
``atkinson_baseline`` is the classic quadratic primitivity test used as
the project-wide oracle.
"""

from __future__ import annotations

from itertools import compress
from operator import index, itemgetter
from typing import Iterable, Literal

from .perm import GeneratorSet, Permutation, is_transitive, point_table
from .words import Word


class InternalError(RuntimeError):
    """A driver invariant failed: a fault in the library, not in its input."""


class BlockSystem:
    """An equal-cell partition of the points, preserved by the group.

    ``blocks`` holds the cells, each a sorted list of points; the
    constructor sorts them and checks that they partition 0..degree-1.
    """

    __slots__ = ("degree", "blocks")

    def __init__(self, degree: int, blocks: list[list[int]]):
        # index admits ints only, so 1.0 cannot stand in for point 1
        self.degree, self.blocks = degree, [sorted(map(index, b)) for b in blocks]
        if len({len(b) for b in self.blocks}) != 1:
            raise ValueError("blocks must have equal size")
        if sorted(p for b in self.blocks for p in b) != list(range(degree)):
            raise ValueError("blocks must partition the points")

    @classmethod
    def _unchecked(cls, degree: int, blocks: list[list[int]]) -> "BlockSystem":
        """Wrap sorted cells already known to be an equal-cell partition.

        For systems assembled inside this module only, each proven by its
        construction and an explicit postcondition; it skips the re-check
        that ``BlockSystem(...)`` runs on outside input.
        """
        bs = object.__new__(cls)
        bs.degree, bs.blocks = degree, blocks
        return bs

    @property
    def nontrivial(self) -> bool:
        return 1 < len(self.blocks[0]) < self.degree

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BlockSystem) and self.degree == other.degree
                and self.blocks == other.blocks)


class BlockWitness:
    """Evidence that a candidate set is not a block.

    ``word`` evaluates to an element g1 that maps ``beta`` (in the
    candidate) to ``gamma`` (also in the candidate) yet moves the candidate
    to a different set. Its letters are generators and the inverses they
    cache, like every other witness word.
    """

    __slots__ = ("beta", "gamma", "word")

    def __init__(self, beta: int, gamma: int, word: Word):
        self.beta, self.gamma, self.word = beta, gamma, word


class BlocknessResult:
    __slots__ = ("kind", "system", "witness")

    def __init__(self, kind: Literal["is_block", "not_block"], system: BlockSystem | None = None,
                 witness: BlockWitness | None = None):
        self.kind, self.system, self.witness = kind, system, witness


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

    def union(self, p: int, q: int) -> int:
        # the merged class's size, or 0 if p and q were one class
        rp, rq = self.find(p), self.find(q)
        if rp == rq:
            return 0
        if self.size[rp] < self.size[rq]:
            rp, rq = rq, rp
        self.parent[rq] = rp
        self.size[rp] += self.size[rq]
        return self.size[rp]


def _minimal_block_unchecked(gens: GeneratorSet, seed: Iterable[int]) -> set[int]:
    """``minimal_block`` on a transitive group, unchecked. It answers every
    point once a merge leaves a class of more than n // 2 points: classes
    only merge, on a transitive group the final ones are the equal cells
    of a block system, and no proper block has more than n/2 points. (Not
    primitivity's n/p: the oracle shares no rule with what it judges.)
    """
    n = gens.degree
    seed = list(dict.fromkeys(seed))
    uf = _UnionFind(n)
    anchor = seed[0]
    events = [(anchor, p) for p in seed[1:] if uf.union(anchor, p)]
    arrays = [g.images for g in gens.generators]
    for p, q in events:  # grows while it is walked
        for arr in arrays:
            ip, iq = arr[p], arr[q]
            merged = uf.union(ip, iq)
            if merged:
                if merged > n // 2:
                    return set(range(n))
                events.append((ip, iq))
    root = uf.find(anchor)
    return {p for p in range(n) if uf.find(p) == root}


def minimal_block(gens: GeneratorSet, seed: Iterable[int]) -> set[int]:
    """Smallest block of a transitive group containing the seed set."""
    seed = list(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    for p in seed:
        # a negative index would silently name a point counted from the end
        if not 0 <= p < gens.degree:
            raise ValueError(f"seed point {p} out of range for degree {gens.degree}")
    if not is_transitive(gens):
        raise ValueError("minimal_block requires a transitive group")
    return _minimal_block_unchecked(gens, seed)


def blockness_test(gens: GeneratorSet, delta: Iterable[int], alpha: int) -> BlocknessResult:
    """Decide whether a candidate set is a block, by translate propagation.

    The group must be transitive; no orbit walk checks it here. When no
    witness turns up, the translates found cover delta^G; if they miss a
    point, G is intransitive and ValueError is raised in place of a system.
    So an ``is_block`` answer for a candidate inside alpha^G proves G
    transitive, and a ``not_block`` answer proves nothing either way.
    On success returns the assembled block system. On failure a
    translate delta^(w s) meets a block delta^w' without equalling it, w
    and w' the BFS parent paths of the two and s a generator, and the
    witness is the word g1 = w s w'^-1. Every translate is a tuple in the
    order of the sorted candidate, gathered from its parent by one lookup
    in the generator's image tuple, so position i of a translate is the
    image of delta[i]. The first point of delta^(w s), at position i, that
    lies in delta^w', at position j, gives beta = delta[i] and
    gamma = delta[j]: beta is the least point of the candidate that g1
    maps into it, found without evaluating or applying g1.
    The system is checked by a postcondition on its cell sizes, not by
    ``BlockSystem``'s own check, which is kept for systems from outside.

    When |delta| divides n, the walk stops before the last block, number
    m - 1 for m = n / |delta|. At that point the m translates found are
    disjoint and of |delta| points each, so they partition the points.
    The walk of blocks 0..m-2 found no witness, so each generator maps
    each of them onto a block; being a bijection, it maps them onto m - 1
    distinct blocks, and so it maps block m - 1 onto the one block left.
    Walking block m - 1 could thus give neither a witness nor a new block.
    Block m - 1 stays at -1 in ``block_of``, since its points are exactly
    those left there: once it is found, an image of all -1 ids equals it,
    and a split image meets a block at its first point, as with every
    point marked. The cells are assembled in one pass, -1 indexing the
    last; two cells are the candidate and, by ``compress``, the points at -1.
    """
    n = gens.degree
    delta = sorted(set(delta))
    if alpha not in delta:
        raise ValueError("alpha must lie in the candidate set")
    for p in (delta[0], delta[-1]):
        # a negative index would silently name a point counted from the end
        if not 0 <= p < n:
            raise ValueError(f"candidate point {p} out of range for degree {n}")
    if not 1 < len(delta) < n:
        raise ValueError("candidate must be nontrivial (1 < |delta| < n)")
    size = len(delta)
    block_of = [-1] * n
    blocks: list[tuple[int, ...]] = [tuple(delta)]
    parent: list[tuple[int, Permutation] | None] = [None]  # (parent block id, generator)
    for p in delta:
        block_of[p] = 0
    m = n // size if n % size == 0 else 0
    # blocks are walked in creation order while new translates are appended
    for b, pts in enumerate(blocks):
        if b == m - 1:
            break  # the implied last translate, see above
        take = itemgetter(*pts)  # at least 2 points, so it returns a tuple
        for g in gens.generators:
            img = take(g.images)
            ids = itemgetter(*img)(block_of)
            c = ids[0]
            if ids.count(c) == size:
                if c == -1 and len(blocks) != m:
                    bid = len(blocks)
                    blocks.append(img)
                    parent.append((b, g))
                    if bid != m - 1:  # the last block stays at -1, see above
                        for p in img:
                            block_of[p] = bid
                # new, or inside one block and so equal to it: all have |delta| points
                continue
            i = 0 if len(blocks) == m else next(i for i, c in enumerate(ids) if c != -1)
            c = ids[i]  # with all m found, every point is in a block, -1 the last
            j = blocks[c].index(img[i])
            letters = _path(parent, b) + [g] + [x.inverse() for x in reversed(_path(parent, c))]
            witness = BlockWitness(delta[i], delta[j], Word(n, letters))
            return BlocknessResult("not_block", witness=witness)
    if len(blocks) * size != n:
        raise ValueError("blockness_test requires a transitive group: the translates miss a point")
    if m == 2:
        cells = [delta, list(compress(point_table(n), block_of))]
    else:
        # points ascend, so each cell comes out sorted
        cells = [[] for _ in blocks]
        for p, bid in zip(point_table(n), block_of):
            cells[bid].append(p)
    # each point went to one cell: with the count above, this is all BlockSystem checks
    if any(len(cell) != size for cell in cells):
        raise InternalError("assembled translates must partition the points")
    return BlocknessResult("is_block", system=BlockSystem._unchecked(n, cells))


def _path(parent: list[tuple[int, Permutation] | None], b: int) -> list[Permutation]:
    """Generators along the BFS path from the root block to b."""
    rev = []
    while parent[b] is not None:
        b, g = parent[b]
        rev.append(g)
    return rev[::-1]


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
    """True iff bs is an equal-cell partition permuted by every generator.
    A malformed system, of non-int points or of no cells, is False."""
    if gens.degree != bs.degree:
        return False
    try:
        cells = BlockSystem(bs.degree, bs.blocks).blocks
    except (TypeError, ValueError):
        return False
    block_of = [0] * bs.degree
    for bid, cell in enumerate(cells):
        for p in cell:
            block_of[p] = bid
    for g in gens.generators:
        arr = g.images
        for cell in cells:
            if len({block_of[arr[p]] for p in cell}) != 1:
                return False
    return True
