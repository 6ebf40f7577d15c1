"""Primitivity drivers: the capped block-finding loop and its front ends.

``ss_primitivity`` runs the transversal phase and then repeatedly tests
candidate sets alpha^<H, r_lam> for blockness, growing H = <X_2* elements>
from each failed test, until it certifies primitivity, finds a block
system, or exceeds the base-size cap. A candidate holding more than n/p
points, p the smallest prime factor of n, lies in no proper block: one
whose H-orbit alone is that large is dropped unclosed, and the others are
closed one H-orbit at a time and skipped once they pass n/p. At prime
degree n/p = 1, so the answer is ``primitive`` before anything is built.
The front ends pick the cap (5 log n, (9/2) n^(1/3), or n) and handle the
certificate fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

from .blocks import BlockSystem, InternalError, blockness_test
# the certificate fallback checks transitivity once for all its entries;
# the name stays ``minimal_block``, where the benchmark's tracer wraps it
from .blocks import _minimal_block_unchecked as minimal_block
from .perm import GeneratorSet, Orbits, is_transitive, orbit
from .sift import Certificate, SiftState
from .transversal import build_point_transversal, build_scoped_transversal

VerdictKind = Literal[
    "primitive",
    "blocks",
    "partial_base",
    "all_primitive_actions_large",
    "all_large_with_params",
]


@dataclass
class Diagnostics:
    """Counters making the driver's accounting observable."""

    sifts: int = 0
    h_updates: int = 0
    # candidate closures run; H-orbits too large for a proper block are
    # dropped unclosed and not counted
    candidates_closed: int = 0
    # blockness tests run; candidates that close past n/p are not counted
    candidates_tested: int = 0
    sum_xi: int = 0
    # (before, after) of sum over levels >= 2, one pair per H-update
    h_update_growth: list[tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "sifts": self.sifts,
            "h_updates": self.h_updates,
            "candidates_closed": self.candidates_closed,
            "candidates_tested": self.candidates_tested,
            "sum_xi": self.sum_xi,
            "h_update_growth": [[before, after] for before, after in self.h_update_growth],
        }


@dataclass
class Verdict:
    kind: VerdictKind
    blocks: BlockSystem | None = None
    certificate: Certificate | None = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


def _largest_proper_divisor(n: int) -> int:
    """n // p for the smallest prime p dividing n >= 2, by trial division.

    This bounds the size of any proper block, since block sizes divide n.
    """
    p = 2
    while p * p <= n:
        if n % p == 0:
            return n // p
        p += 1
    return 1


def ss_primitivity(gens: GeneratorSet, cap: int) -> Verdict:
    """Capped primitivity loop at alpha = 0: Primitive, Blocks, or PartialBase.

    A transitive group of prime degree is answered ``primitive`` before the
    transversal phase, with zero diagnostics and whatever the cap. Every
    capped route (point transversal, scoped transversal, H-update sift)
    leaves the loop for the one partial-base exit at its end.
    """
    n = gens.degree
    if n < 2:
        raise ValueError("ss_primitivity requires degree at least 2")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not is_transitive(gens):
        raise ValueError("ss_primitivity requires a transitive group")
    dmax = _largest_proper_divisor(n)
    if dmax == 1:
        # prime degree: block sizes divide n, so the size filter below would
        # drop every candidate; nothing is built and nothing is sifted
        return Verdict("primitive")
    diag = Diagnostics()
    alpha = 0

    state, rmap = build_point_transversal(gens, alpha, cap)
    while not state.capped:
        hgens = state.deep_element_perms()
        # the candidate is a union of H-orbits: close it one whole H-orbit
        # at a time, unless H is trivial and plain BFS is cheaper
        cells = Orbits(n, hgens) if hgens else None
        size = cells.size if cells else [1] * n
        # <H, r_lam> maps every block holding alpha and lam to itself, so a
        # candidate of more than dmax points shows that no proper block holds
        # both. The candidate holds alpha and all of lam^H, which misses
        # alpha, so an H-orbit of dmax or more points is dropped unclosed.
        # One candidate per H-orbit left but alpha's, by orbit size and then
        # least point; size * n + lam orders as that pair without a tuple.
        reps = sorted(
            (lam for lam in range(n) if 0 < size[lam] < dmax and lam != alpha),
            key=lambda lam: size[lam] * n + lam,
        )
        for lam in reps:
            r_word = rmap.word(lam)
            diag.candidates_closed += 1
            delta = orbit([r_word], alpha, dmax, cells)
            if len(delta) > dmax:
                continue
            diag.candidates_tested += 1
            res = blockness_test(gens, delta, alpha)
            if res.kind == "is_block":
                return _finish(Verdict("blocks", blocks=res.system), diag, state)
            wit = res.witness
            scoped = build_scoped_transversal(state, r_word)
            if scoped is None:
                break
            s = scoped.word(wit.beta).eval()
            t = scoped.word(wit.gamma).eval()
            g = s * wit.g1 * t.inverse()
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
            diag.h_update_growth.append((before, after))
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
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if gens.degree == 1:
        return Verdict("primitive")
    v = ss_primitivity(gens, cap)
    if v.kind != "partial_base":
        return v
    bs = find_blocks_from_certificate(gens, v.certificate)
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
