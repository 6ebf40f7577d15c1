"""Primitivity drivers: the capped block-finding loop and its front ends.

``ss_primitivity`` runs the transversal phase and then repeatedly tests
candidate sets alpha^<H, r_lam> for blockness, growing H = <X_2* elements>
from each failed test, until it certifies primitivity, finds a block
system, or exceeds the base-size cap. A candidate holding more than n/p
points, p the smallest prime factor of n, lies in no proper block: one
whose H-orbit alone is that large is dropped unclosed, and the others are
closed one H-orbit at a time and skipped once they pass n/p, in that
round and, unclosed, in every later one. At prime
degree n/p = 1, so the answer is ``primitive`` before anything is built.
While H is still trivial, a block is also tried during the point
transversal build, after each sift that grows the first level: the cycle
through alpha of the new element, then of its product with the element
appended before it.
The front ends pick the cap (5 log n, (9/2) n^(1/3), or n) and handle the
certificate fallback.
"""

from __future__ import annotations

import math
from itertools import repeat, zip_longest
from typing import Literal

from .blocks import BlockSystem, InternalError, blockness_test
# the certificate fallback checks transitivity once for all its entries;
# the name stays ``minimal_block``, where the benchmark's tracer wraps it
from .blocks import _minimal_block_unchecked as minimal_block
from .perm import GeneratorSet, Orbits, is_transitive, orbit
from .sift import Certificate, SiftOutcome, SiftState, check_cap
from .transversal import build_point_transversal, build_scoped_transversal
from .words import Word

VerdictKind = Literal[
    "primitive", "blocks", "partial_base", "all_primitive_actions_large", "all_large_with_params"
]


class Diagnostics:
    """Counters making the driver's accounting observable."""

    # candidates_closed counts the candidate closures run: H-orbits too large
    # for a proper block, and candidates that passed n/p in an earlier round,
    # are not closed or counted. candidates_tested counts the blockness tests
    # run; candidates that close past n/p are not counted. early_tries and
    # early_tests count the closures and blockness tests run during the point
    # transversal build, apart from the scan's. h_update_growth holds
    # [before, after] of sum over levels >= 2, one pair per H-update.
    __slots__ = ("sifts", "h_updates", "candidates_closed", "candidates_tested",
                 "early_tries", "early_tests", "sum_xi", "h_update_growth")

    def __init__(self, sifts: int = 0, h_updates: int = 0, candidates_closed: int = 0,
                 candidates_tested: int = 0, early_tries: int = 0, early_tests: int = 0,
                 sum_xi: int = 0, h_update_growth: list[list[int]] | None = None):
        self.sifts, self.h_updates = sifts, h_updates
        self.candidates_closed, self.candidates_tested = candidates_closed, candidates_tested
        self.early_tries, self.early_tests, self.sum_xi = early_tries, early_tests, sum_xi
        self.h_update_growth = [] if h_update_growth is None else h_update_growth

    def as_dict(self) -> dict:
        """The counters by name, in ``__slots__`` order; the pairs are copies."""
        out = {name: getattr(self, name) for name in Diagnostics.__slots__}
        out["h_update_growth"] = [list(pair) for pair in self.h_update_growth]
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diagnostics) and self.as_dict() == other.as_dict()


class Verdict:
    __slots__ = ("kind", "blocks", "certificate", "diagnostics")

    def __init__(self, kind: VerdictKind, blocks: BlockSystem | None = None,
                 certificate: Certificate | None = None, diagnostics: Diagnostics | None = None):
        self.kind, self.blocks, self.certificate = kind, blocks, certificate
        self.diagnostics = Diagnostics() if diagnostics is None else diagnostics


def _largest_proper_divisor(n: int) -> int:
    """n // p for the smallest prime p dividing n, by trial division.

    This bounds the size of any proper block, since block sizes divide n.
    It is 1 when n is 1 or prime, where no proper block exists.
    """
    p = 2
    while p * p <= n:
        if n % p == 0:
            return n // p
        p += 1
    return 1


_NEEDS_TRANSITIVE = "ss_primitivity requires a transitive group"


def ss_primitivity(gens: GeneratorSet, cap: int) -> Verdict:
    """Capped primitivity loop at alpha = 0: Primitive, Blocks, or PartialBase.

    A transitive group of degree 1 or of prime degree is answered
    ``primitive`` before the transversal phase, with zero diagnostics and
    whatever the cap. Every capped route (point transversal, scoped
    transversal, H-update sift) leaves the loop for the one partial-base
    exit at its end.

    G must be transitive; every exit raises ValueError otherwise. At
    degree 1 and prime degree nothing is built, so an orbit walk checks
    it. At composite degree the work that decides proves it, once:
    - a generator set that fixes alpha is intransitive, since n > 1;
    - a blocks verdict comes from ``blockness_test``, whose translates
      cover delta^G. Every candidate is a closure of alpha under group
      elements, so delta^G = alpha^G, and the test raises when they miss
      a point;
    - a closed point transversal holds alpha^G in ``rmap.points``, so it
      is checked right after the build, before the scan evaluates any
      r-word. A primitive verdict and every later exit follow that check;
    - a build that passed its cap closed no orbit, and only then is an
      orbit walk run.

    While the state has one level, H = <X_2*> is trivial, and the scan's
    candidate for r is alpha^<r>, the cycle of r through alpha. So after
    each sift that appends an element x to the first level, the build
    closes alpha^<x>; if that misses, it also closes alpha^<x y>, y the
    element appended before x. (Two reflections of a dihedral group give
    a rotation, whose cycle through alpha is a block; rotations by a and
    b give one by a + b, of the parity of a - b.) A cycle is tested
    only if it has at most n/p points, its size divides n, and its
    blockness test makes at most |Delta_1| translate checks ((n / |delta|)
    |S| of them, |S| the number of generators). A block ends the build
    with the verdict, which the test has already checked. A miss changes
    no state: the closures and the tests only read the generators, so
    primitive verdicts, r-words and H-updates are those of a build
    without tries.

    Two filters drop tries that cannot answer:
    - a cycle whose size does not divide n is no block, since the blocks
      of a system partition the n points into cells of one size;
    - when p |S| > |Delta_1| neither cycle is closed: a tested cycle has
      at most n/p points, so its n / |delta| >= p translates per generator
      make at least p |S| > |Delta_1| checks, past the budget.

    A failed test on delta = alpha^K, K = <H, r_lam>, gives a witness g1
    mapping beta to gamma, both in delta, and the H-update sifts
    g = s g1 t^-1, s and t words of K mapping alpha to beta and gamma.
    The scoped transversal stops once it holds those two words, since any
    such s and t will do: they lie in K, and g1 does not, because delta
    is K-invariant and delta^g1 != delta. So g fixes alpha and lies
    outside K, which contains H, and sifting it enlarges H.

    Each failed test grows H and starts a new scan round. Two facts carry
    a round's work into the next, and neither changes a verdict, a block
    system, a certificate or an H-update:
    - levels only grow, so the elements of X_2* are those of the last
      round plus the ones appended since; the round's H-orbits are the
      last round's cells joined along those new elements alone;
    - ``rmap`` is fixed once the build closes, and H only grows, so
      alpha^<H, r_lam> only grows: a representative whose candidate
      passed n/p in an earlier round passes again and is not closed.
    """
    n = gens.degree
    check_cap(cap)
    dmax = _largest_proper_divisor(n)
    alpha = 0
    if dmax == 1:
        # degree 1 or prime: block sizes divide n, so the size filter below
        # would drop every candidate; nothing is built and nothing is sifted,
        # so only an orbit walk can prove transitivity
        if not is_transitive(gens):
            raise ValueError(_NEEDS_TRANSITIVE)
        return Verdict("primitive")
    if all(g.images[alpha] == alpha for g in gens.generators):
        raise ValueError(_NEEDS_TRANSITIVE)  # alpha^G = {alpha}, and n > 1
    diag = Diagnostics()
    found: list[BlockSystem] = []

    # dmax = n/p, so p = n // dmax is the smallest prime factor of n
    min_translates = (n // dmax) * len(gens)

    def test_cycle(delta: list[int], tracked: int) -> bool:
        size = len(delta)
        # a product x y can fix alpha, and one point is no candidate
        if not 1 < size <= dmax or n % size or (n // size) * len(gens) > tracked:
            return False
        diag.early_tests += 1
        res = blockness_test(gens, delta, alpha)
        if res.kind != "is_block":
            return False
        found.append(res.system)
        return True

    def try_block(state: SiftState, outcome: SiftOutcome) -> bool:
        if outcome.kind != "appended" or state.level_count > 1:
            return False
        first = state.levels[0]
        tracked = len(first.points)
        if min_translates > tracked:
            return False
        x = outcome.terminal
        diag.early_tries += 1
        if test_cycle(orbit(x, alpha, dmax), tracked):
            return True
        # the cycle of r = x y through alpha, y the element appended before x
        # (the level's seed at least), by lookups: r and inverses are not built
        diag.early_tries += 1
        ximg, yimg = x.images, first.elems[-2].images
        delta = [alpha]
        p = yimg[ximg[alpha]]
        for _ in repeat(None, dmax):  # at most dmax steps, as in orbit
            if p == alpha:
                break
            delta.append(p)
            p = yimg[ximg[p]]
        return test_cycle(delta, tracked)

    state, rmap = build_point_transversal(gens, alpha, cap, try_block)
    if found:
        return _finish(Verdict("blocks", blocks=found[0]), diag, state)
    # rmap.points is alpha^G; a build that passed its cap closed no orbit
    transitive = len(rmap.points) == n if rmap is not None else is_transitive(gens)
    if not transitive:
        raise ValueError(_NEEDS_TRANSITIVE)
    # the H-orbits of the last round, None while H is trivial, and how many
    # elements of each level below the first they cover
    cells: Orbits | None = None
    covered: list[int] = []
    # representatives whose candidate passed dmax in an earlier round
    passed: set[int] = set()
    while not state.capped:
        deep = state.levels[1:]
        added = [x for lv, k in zip_longest(deep, covered, fillvalue=0) for x in lv.elems[k:]]
        covered = [len(lv.elems) for lv in deep]
        if added:
            cells = cells.merged(added) if cells else Orbits(n, added)
        # the candidate is a union of H-orbits: close it one whole H-orbit
        # at a time, unless H is trivial and the candidate is r's cycle
        size = cells.size if cells else [1] * n
        # <H, r_lam> maps every block holding alpha and lam to itself, so a
        # candidate of more than dmax points shows that no proper block holds
        # both. The candidate holds alpha and all of lam^H, which misses
        # alpha, so an H-orbit of dmax or more points is dropped unclosed.
        # One candidate per H-orbit left but alpha's, by orbit size and then
        # least point; size * n + lam orders as that pair without a tuple.
        reps = sorted(
            (lam for lam in range(n)
             if 0 < size[lam] < dmax and lam != alpha and lam not in passed),
            key=lambda lam: size[lam] * n + lam,
        )
        for lam in reps:
            # r_lam maps alpha to lam; evaluated once, it drives both the
            # closure and the scoped transversal
            r = rmap.word(lam).eval()
            diag.candidates_closed += 1
            delta = orbit(r, alpha, dmax, cells)
            if len(delta) > dmax:
                passed.add(lam)
                continue
            diag.candidates_tested += 1
            res = blockness_test(gens, delta, alpha)
            if res.kind == "is_block":
                return _finish(Verdict("blocks", blocks=res.system), diag, state)
            wit = res.witness
            scoped = build_scoped_transversal(state, r, (wit.beta, wit.gamma))
            if scoped is None:
                break
            # s g1 t^-1, s and t mapping alpha to beta and gamma: one product
            s, t = scoped.word(wit.beta), scoped.word(wit.gamma)
            g = Word(n, s.letters + wit.word.letters + t.inverse_word().letters).eval()
            if g.images[alpha] != alpha:
                raise InternalError("witness product must stabilize alpha")
            before = state.sum_xi(2)
            state.deep_sift(g)
            if state.capped:
                break
            after = state.sum_xi(2)
            if after <= before:
                raise InternalError("H-update must enlarge the deep generator lists")
            diag.h_updates += 1
            diag.h_update_growth.append([before, after])
            break  # rescan with the enlarged H
        else:
            return _finish(Verdict("primitive"), diag, state)
    return _finish(Verdict("partial_base", certificate=state.certificate()), diag, state)


def _finish(v: Verdict, diag: Diagnostics, state: SiftState) -> Verdict:
    diag.sifts = state.sift_count
    diag.sum_xi = state.sum_xi()
    v.diagnostics = diag
    if v.kind == "blocks" and (v.blocks is None or not v.blocks.nontrivial):
        raise InternalError("a blocks verdict needs a nontrivial block system")
    if v.kind == "partial_base":
        cert = v.certificate
        if cert is None or len(cert) != state.cap + 1 or not cert.validate():
            raise InternalError("a partial base needs a valid certificate of cap + 1 entries")
    return v


def find_blocks_from_certificate(
    gens: GeneratorSet, cert: Certificate
) -> BlockSystem | None:
    """Expand a certificate into a block system, if any seed pair yields one.

    Tries the smallest block containing {beta_i, beta_i^{g_i}} for each
    certificate entry; returns None when every such block is the full
    point set. The group must be transitive, checked once here.
    """
    n = gens.degree
    for beta, g in cert.entries:
        if g.degree != n or not 0 <= beta < n:
            raise ValueError(f"certificate entry at point {beta} does not act on 0..{n - 1}")
    if not cert.validate():
        raise ValueError("certificate fails its witness conditions")
    if not is_transitive(gens):
        raise ValueError("find_blocks_from_certificate requires a transitive group")
    return _blocks_from_certificate(gens, cert)


def _blocks_from_certificate(gens: GeneratorSet, cert: Certificate) -> BlockSystem | None:
    """``find_blocks_from_certificate`` on a valid certificate of a group
    already known to be transitive, with no checks."""
    n = gens.degree
    for beta, g in cert.entries:
        m = minimal_block(gens, [beta, g.images[beta]])
        if 1 < len(m) < n:
            res = blockness_test(gens, m, beta)
            if res.kind != "is_block":
                raise InternalError("minimal block must pass blockness")
            return res.system
    return None


def _capped_driver(gens: GeneratorSet, cap: int, escape: VerdictKind) -> Verdict:
    """The one decision path: the capped loop, then the certificate fallback.

    A partial base whose certificate yields no block ends in ``escape``.
    ``ss_primitivity`` has proven transitivity and checked the certificate
    before it returns a partial base, so the fallback checks neither again.
    """
    v = ss_primitivity(gens, cap)
    if v.kind != "partial_base":
        return v
    bs = _blocks_from_certificate(gens, v.certificate)
    if bs is not None:
        return Verdict("blocks", blocks=bs, diagnostics=v.diagnostics)
    return Verdict(escape, certificate=v.certificate, diagnostics=v.diagnostics)


def primitivity_main(gens: GeneratorSet) -> Verdict:
    """Primitivity with cap 5 log2 n and the certificate fallback."""
    cap = max(1, math.ceil(5 * math.log2(max(2, gens.degree))))
    return _capped_driver(gens, cap, "all_primitive_actions_large")


def primitivity_subquadratic(gens: GeneratorSet) -> Verdict:
    """Primitivity with cap (9/2) n^(1/3); escape verdict only claims largeness."""
    cap = max(1, math.ceil(4.5 * gens.degree ** (1 / 3)))
    return _capped_driver(gens, cap, "all_large_with_params")


def ss_uncapped(gens: GeneratorSet) -> Verdict:
    """Uncapped decision (cap = n, unreachable by a nonredundant base)."""
    v = _capped_driver(gens, gens.degree, "partial_base")
    if v.kind == "partial_base":
        raise InternalError("cap n can never be reached")
    return v
