"""Capped transversal construction driven by deep sifting.

``build_point_transversal`` computes coset-representative words for the
point stabilizer of alpha (one word per orbit point), or stops with a
certified partial base of size L+1 when the base-size cap is exceeded.
``build_scoped_transversal`` builds words for the subgroup K generated by
one evaluated transversal element r together with the elements of the
levels below the first, on the live state with its first level swapped
for one seeded by r; it stops once its map holds the target points it is
given, so it returns words for those, not the whole K-transversal. The
caller evaluates r's word once and closes its candidate with the same
permutation. The letters of every r-word are
level elements of the state (or the inverses they cache), so a word
holds no copy of any element.
"""

from __future__ import annotations

from typing import Callable

from .perm import GeneratorSet, Permutation
from .sift import Level, SiftOutcome, SiftState
from .words import WitnessMap, Word


def _close_transversal(
    state: SiftState,
    gens: list[Permutation],
    on_sift: Callable[[SiftState, SiftOutcome], object] | None = None,
    targets: tuple[int, ...] | None = None,
) -> WitnessMap | None:
    """Shared queue loop: close the level-1 deep orbit under ``gens``.

    Each (orbit point, generator) pair is visited exactly once, in the
    order the points entered the orbit and then generator order, so the
    queue is the list of points in entry order. That is sound only as no
    sift here strips to the identity, which would leave its point unheld
    for good: ``tests/test_sift.py::test_no_driver_sift_strips_to_the_identity``
    proves and checks it. Returns the r-words on closure, or, given
    ``targets``, as soon as the map holds every target: the held points
    change only when the deep orbit is (re)built, so they are checked
    then. Returns None the moment the state passes its cap or ``on_sift``,
    called after every sift, returns a truthy value.
    """
    arrays = [g.images for g in gens]
    _, rmap = state.level_deep_orbit(1)
    held = rmap.parent
    if targets is not None and all(held[t] >= 0 for t in targets):
        return rmap
    queue = list(rmap.points)
    for lam in queue:  # grows while it is walked
        for si, arr in enumerate(arrays):
            if held[arr[lam]] >= 0:
                continue
            elem = Word(state.n, rmap.word(lam).letters + (gens[si],)).eval()
            outcome = state.deep_sift(elem)
            if (on_sift is not None and on_sift(state, outcome)) or state.capped:
                return None
            # the deep orbit only grows: each subset product of the old
            # X* is one of the new, so the new points are those not held
            old_held = held
            _, rmap = state.level_deep_orbit(1)
            held = rmap.parent
            if targets is not None and all(held[t] >= 0 for t in targets):
                return rmap
            queue += [p for p in rmap.points if old_held[p] < 0]
    return rmap


def build_point_transversal(
    gens: GeneratorSet,
    alpha: int,
    cap: int,
    on_sift: Callable[[SiftState, SiftOutcome], object] | None = None,
) -> tuple[SiftState, WitnessMap | None]:
    """Transversal words for G : G_alpha, or None once the state is capped
    or once ``on_sift`` returns a truthy value, which stops the walk.

    The r-words cover alpha^G, in discovery order, whether or not G is
    transitive. A capped state certifies a partial base of size cap+1.
    """
    seed = next((g for g in gens.generators if g.images[alpha] != alpha), None)
    if seed is None:
        raise ValueError("alpha is fixed by every generator")
    state = SiftState(gens.degree, cap, seed, alpha)
    return state, _close_transversal(state, gens.generators, on_sift)


def build_scoped_transversal(
    state: SiftState, r: Permutation, targets: tuple[int, ...]
) -> WitnessMap | None:
    """Words of K = <X_2* elements, r> taking alpha to each of ``targets``,
    points of alpha^K: the map stops growing once it holds them all, so it
    is a transversal for K : K_alpha only if that closes alpha^K.

    Alpha is the first base point of ``state`` and ``r`` must move it.
    Runs on ``state`` itself with its first level swapped for one seeded
    by ``r`` alone, and restores the first level on return. Appends to the
    levels below the first and new base levels persist; appends to the
    swapped-in level are discarded, since nothing but the returned r-words
    refers to them. Returns None once ``state`` is capped.
    """
    if state.capped:
        return None
    first = state.levels[0]
    alpha = first.beta
    if r.degree != state.n or r.images[alpha] == alpha:
        raise ValueError("r must act on the state's points and move alpha")
    kgens = [r] + state.deep_element_perms()
    state.levels[0] = Level(alpha, r)
    try:
        return _close_transversal(state, kgens, targets=targets)
    finally:
        state.levels[0] = first
