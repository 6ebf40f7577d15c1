"""Shared test oracles: brute-force enumeration helpers kept independent
of the code paths they check."""

from __future__ import annotations

import random
from collections import deque

import pytest

from blocksift.perm import GeneratorSet, Permutation, point_table, product_images
from blocksift.sift import SiftOutcome, SiftState
from blocksift.words import Word


def perm(n, *cycles) -> Permutation:
    """Shorthand: perm(4, (0,1,2,3)) is the 4-cycle on 0..3."""
    return Permutation.from_cycles(n, cycles)


def reference_images(images) -> tuple[int, ...]:
    """The image tuple ``Permutation(images)`` stores, or the exception it
    raises, by the plain rule its C-level checks must agree with: a range
    check by ``min`` and ``max``, the gather from the table, then a set."""
    images = tuple(images)
    n = len(images)
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not 0 <= min(images) or not max(images) < n:
        raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
    points = product_images(images, point_table(n))
    if len(set(points)) != n:
        raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
    return points


def brute_force_elements(gens: GeneratorSet, limit: int = 200000) -> set[Permutation]:
    """All group elements by BFS closure over generator products."""
    frontier = [Permutation.identity(gens.degree)]
    seen = {frontier[0]}
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens.generators:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    if len(seen) > limit:
                        raise RuntimeError("group too large for brute force")
        frontier = nxt
    return seen


def random_element(gens: GeneratorSet, rng: random.Random, length: int = 12) -> Permutation:
    g = Permutation.identity(gens.degree)
    for _ in range(rng.randint(0, length)):
        s = rng.choice(gens.generators)
        if rng.random() < 0.5:
            s = s.inverse()
        g = g * s
    return g


def relabel(gens: GeneratorSet, rng: random.Random, extra: int = 0) -> GeneratorSet:
    """The same group under a random point relabelling, with ``extra``
    random-word generators appended."""
    n = gens.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for g in gens.generators:
        images = [0] * n
        for p, q in enumerate(g.images):
            images[sigma[p]] = sigma[q]
        out.append(Permutation(images))
    base = GeneratorSet(n, out)
    out += [random_element(base, rng) for _ in range(extra)]
    return GeneratorSet(n, out)


def reference_orbit(actions, start, limit=None):
    """Closure of {start} by a deque BFS over ``apply``, for any number of
    permutations or words: the reference point set, visiting order and
    ``limit`` cut for orbit walks, which stop once they hold more than
    ``limit`` points (``[start]`` at limit 0)."""
    limit = actions[0].degree if limit is None else limit
    if limit < 1:
        return [start]
    seen, out, queue = {start}, [start], deque([start])
    while queue:
        p = queue.popleft()
        for a in actions:
            q = a.apply(p)
            if q not in seen:
                seen.add(q)
                out.append(q)
                if len(out) > limit:
                    return out
                queue.append(q)
    return out


def base_points(state: SiftState) -> list[int]:
    """The base points beta_1..beta_l of a sift state."""
    return [lv.beta for lv in state.levels]


def dump_state(state: SiftState) -> dict:
    """JSON-ready snapshot of the per-level structure: every element's
    images and every level's sorted Delta, to compare a state before and
    after a call."""
    return {
        "degree": state.n,
        "cap": state.cap,
        "levels": [
            {
                "beta": lv.beta,
                "x": [list(x.images) for x in lv.elems],
                "delta": sorted(lv.points),
            }
            for lv in state.levels
        ],
        "sifts": state.sift_count,
    }


def validate_state(state: SiftState) -> None:
    """Check all structural invariants of a sift state; raises
    AssertionError on violation.

    The checks are explicit raises, not ``assert`` statements, so they
    also run under ``python -O``.
    """
    if not 1 <= state.level_count <= state.cap + 1:
        raise AssertionError("level count must lie in 1..cap+1")
    if len(set(base_points(state))) != state.level_count:
        raise AssertionError("base points must be distinct")
    log2n = max(1, (state.n - 1).bit_length())
    for k, lv in enumerate(state.levels):
        if not lv.elems:
            raise AssertionError("every level has a nonempty X_i")
        if len(lv.elems) > log2n:
            raise AssertionError("|X_i| must be at most log2 n")
        if len(lv.points) != 2 ** len(lv.elems):
            raise AssertionError("|Delta_i| must be 2^|X_i|")
        if lv.beta not in lv.points:
            raise AssertionError("beta_i must lie in Delta_i")
        for x in lv.elems:
            if x.images[lv.beta] == lv.beta:
                raise AssertionError("every element of X_i moves beta_i")
            for prev in state.levels[:k]:
                if x.images[prev.beta] != prev.beta:
                    raise AssertionError("X_i must fix the earlier base points")
        for p in lv.points:
            w = lv.word(p)
            if len(w) > len(lv.elems):
                raise AssertionError("a witness word is at most |X_i| long")
            if w.apply(lv.beta) != p:
                raise AssertionError("a witness word maps beta_i to its point")


def reconstruct(outcome: SiftOutcome) -> Permutation:
    """The sifted input, rebuilt from a sift outcome: the chain's (s, t)
    pairs undone around the terminal element."""
    g = outcome.terminal
    for s, t in reversed(outcome.chain):
        g = Word(g.degree, s.inverse_word().letters + (g,) + t.letters).eval()
    return g


def enumerate_cube(elements: list[Permutation]) -> set[Permutation]:
    """All subset products x1^e1 ... xj^ej, e in {0,1}, by prefix DFS."""
    n = elements[0].degree if elements else 1
    out = set()

    def rec(i, acc):
        if i == len(elements):
            out.add(acc)
            return
        rec(i + 1, acc)
        rec(i + 1, acc * elements[i])

    rec(0, Permutation.identity(n) if elements else Permutation.identity(n))
    return out


def enumerate_deep_cube(xstar: list[Permutation]) -> set[Permutation]:
    """All elements of C(X*)^-1 C(X*) = C(X*^-1, X*)."""
    full = [p.inverse() for p in reversed(xstar)] + list(xstar)
    return enumerate_cube(full)


def iter_partitions(n: int):
    """All set partitions of range(n), as tuples of frozensets."""
    cells: list[list[int]] = []

    def rec(p):
        if p == n:
            yield tuple(frozenset(c) for c in cells)
            return
        for c in cells:
            c.append(p)
            yield from rec(p + 1)
            c.pop()
        cells.append([p])
        yield from rec(p + 1)
        cells.pop()

    yield from rec(0)


def invariant_partitions(gens: GeneratorSet):
    """All G-invariant partitions of the points (cells permuted by every generator)."""
    out = []
    for part in iter_partitions(gens.degree):
        cellset = set(part)
        if all(
            frozenset(g.images[p] for p in cell) in cellset
            for g in gens.generators
            for cell in part
        ):
            out.append(part)
    return out


def smallest_invariant_class(gens: GeneratorSet, seed: set[int]) -> frozenset:
    """Oracle for minimal_block: smallest invariant cell containing the seed."""
    best = None
    for part in invariant_partitions(gens):
        for cell in part:
            if seed <= cell and (best is None or len(cell) < len(best)):
                best = cell
    assert best is not None  # the one-cell partition always qualifies
    return best


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_corpus():
    """Corpus members small enough for element-wise brute force."""
    from blocksift import corpus

    entries = []
    for e in corpus.standard_corpus():
        if e.order is not None and e.order <= 5000 and e.gens.degree <= 16:
            entries.append(e)
    return entries


@pytest.fixture(scope="session")
def full_corpus():
    from blocksift import corpus

    return corpus.standard_corpus()
