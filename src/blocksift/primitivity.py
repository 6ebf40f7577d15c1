"""Primitivity drivers: the capped block-finding loop and its front ends.

``ss_primitivity`` runs the transversal phase and then repeatedly tests
candidate sets alpha^<H, r_lam> for blockness, growing H = <X_2* elements>
from each failed test, until it certifies primitivity, finds a block
system, or exceeds the base-size cap. A candidate holding more than n/p
points, p the smallest prime factor of n, lies in no proper block and is
skipped unclosed. The front ends pick the cap (5 log n, (9/2) n^(1/3),
or n) and handle the certificate fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

from .blocks import BlockSystem, blockness_test, minimal_block
from .perm import GeneratorSet, Permutation, is_transitive, orbit
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
    # blockness tests run; skipped candidates are not counted
    candidates_tested: int = 0
    sum_xi: int = 0
    # (before, after) of sum over levels >= 2, one pair per H-update
    h_update_growth: list[tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "sifts": self.sifts,
            "h_updates": self.h_updates,
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


def _h_orbit_sizes(n: int, hgens: list[Permutation]) -> list[int]:
    """Size of each H-orbit at the orbit's least point, 0 at other points.

    Points are scanned in ascending order, so each orbit is first met at
    its least point. No list is built per orbit: with small H-orbits there
    are ~n of them, and a list each would keep the cyclic GC busy.
    """
    if not hgens:
        return [1] * n
    arrays = [g.images for g in hgens]
    seen = bytearray(n)
    size = [0] * n
    stack = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        stack.append(start)
        count = 0
        while stack:
            p = stack.pop()
            count += 1
            for arr in arrays:
                q = arr[p]
                if not seen[q]:
                    seen[q] = 1
                    stack.append(q)
        size[start] = count
    return size


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


def ss_primitivity(gens: GeneratorSet, alpha: int, cap: int) -> Verdict:
    """Capped primitivity loop: Primitive, Blocks, or PartialBase."""
    n = gens.degree
    if n < 2:
        raise ValueError("ss_primitivity requires degree at least 2")
    if not 0 <= alpha < n:
        raise ValueError("alpha out of range")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not is_transitive(gens):
        raise ValueError("ss_primitivity requires a transitive group")
    diag = Diagnostics()
    dmax = _largest_proper_divisor(n)

    tr = build_point_transversal(gens, alpha, cap)
    state = tr.state
    if tr.is_partial_base:
        return _finish(Verdict("partial_base", certificate=tr.certificate), diag, state)
    rmap = tr.rmap

    while True:
        hgens = state.deep_element_perms()
        size = _h_orbit_sizes(n, hgens)
        # one candidate per H-orbit but alpha's, by orbit size and then
        # least point; size * n + lam orders as that pair without a tuple
        reps = sorted(
            (lam for lam in range(n) if size[lam] and lam != alpha),
            key=lambda lam: size[lam] * n + lam,
        )
        restarted = False
        for lam in reps:
            r_word = rmap.word(lam)
            # <H, r_lam> maps every block holding alpha and lam to itself,
            # so a candidate larger than any proper block shows that no
            # proper block holds both: skip it without closing the orbit.
            delta = orbit(hgens + [r_word], alpha, dmax)
            if len(delta) > dmax:
                continue
            diag.candidates_tested += 1
            res = blockness_test(gens, delta, alpha)
            if res.kind == "is_block":
                return _finish(Verdict("blocks", blocks=res.system), diag, state)
            wit = res.witness
            scoped = build_scoped_transversal(state, r_word, alpha, cap)
            if scoped.is_partial_base:
                return _finish(
                    Verdict("partial_base", certificate=scoped.certificate), diag, state
                )
            s = scoped.rmap.word(wit.beta).eval()
            t = scoped.rmap.word(wit.gamma).eval()
            g = s * wit.g1 * t.inverse()
            assert g.images[alpha] == alpha, "witness product must stabilize alpha"
            before = state.sum_xi(2)
            state.deep_sift(g)
            if state.level_count > cap:
                return _finish(
                    Verdict("partial_base", certificate=state.certificate()),
                    diag,
                    state,
                )
            after = state.sum_xi(2)
            assert after > before, "H-update must enlarge the deep generator lists"
            diag.h_updates += 1
            diag.h_update_growth.append((before, after))
            restarted = True
            break
        if not restarted:
            return _finish(Verdict("primitive"), diag, state)


def _finish(v: Verdict, diag: Diagnostics, state: SiftState) -> Verdict:
    diag.sifts = state.sift_count
    diag.sum_xi = state.sum_xi()
    v.diagnostics = diag
    if v.kind == "blocks":
        assert v.blocks is not None and v.blocks.nontrivial
    if v.kind == "partial_base":
        assert v.certificate is not None and len(v.certificate) == state.cap + 1
        assert v.certificate.validate()
    return v


def find_blocks_from_certificate(
    gens: GeneratorSet, cert: Certificate
) -> BlockSystem | None:
    """Expand a certificate into a block system, if any seed pair yields one.

    Tries the smallest block containing {beta_i, beta_i^{g_i}} for each
    certificate entry; returns None when every such block is the full
    point set.
    """
    if not cert.validate():
        raise ValueError("certificate fails its witness conditions")
    n = gens.degree
    for beta, g in cert.entries:
        m = minimal_block(gens, [beta, g.images[beta]])
        if 1 < len(m) < n:
            res = blockness_test(gens, m, beta)
            assert res.kind == "is_block", "minimal block must pass blockness"
            return res.system
    return None


def _capped_driver(gens: GeneratorSet, cap: int, escape: VerdictKind) -> Verdict:
    if gens.degree == 1:
        return Verdict("primitive")
    v = ss_primitivity(gens, 0, cap)
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


def ss_uncapped(gens: GeneratorSet, alpha: int = 0) -> Verdict:
    """Uncapped decision (cap = n, unreachable by a nonredundant base)."""
    if gens.degree == 1:
        return Verdict("primitive")
    v = ss_primitivity(gens, alpha, gens.degree)
    assert v.kind != "partial_base", "cap n can never be reached"
    return v
