import math
import random

import pytest

from blocksift.corpus import standard_corpus
from blocksift.perm import GeneratorSet, Permutation
from blocksift.sift import SiftState
from blocksift.transversal import build_point_transversal, build_scoped_transversal
from conftest import base_points, dump_state, perm, random_element, reference_orbit, relabel


class TestBuildPointTransversal:
    def test_cyclic_four(self):
        gens = GeneratorSet(4, [perm(4, (0, 1, 2, 3))])
        state, rmap = build_point_transversal(gens, 0, 4)
        assert rmap is not None
        assert set(rmap.points) == {0, 1, 2, 3}
        assert state.sum_xi() <= 2  # log2 |C4|

    def test_s3_hits_cap(self):
        gens = GeneratorSet(3, [perm(3, (0, 1)), perm(3, (1, 2))])
        state, rmap = build_point_transversal(gens, 0, 1)
        assert rmap is None
        assert base_points(state) == [0, 1]
        assert state.certificate().entries == [
            (0, perm(3, (0, 1))),
            (1, perm(3, (1, 2))),
        ]

    def test_regular_klein_group_stays_flat(self):
        gens = GeneratorSet(4, [perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))])
        state, rmap = build_point_transversal(gens, 0, 1)
        assert rmap is not None
        assert state.level_count == 1
        assert set(rmap.points) == {0, 1, 2, 3}

    def test_alpha_fixed_by_all(self):
        gens = GeneratorSet(3, [perm(3, (1, 2))])
        with pytest.raises(ValueError):
            build_point_transversal(gens, 0, 3)

    def test_intransitive_covers_orbit_only(self):
        gens = GeneratorSet(5, [perm(5, (0, 1)), perm(5, (3, 4))])
        _, rmap = build_point_transversal(gens, 0, 5)
        assert rmap is not None
        assert set(rmap.points) == {0, 1}

    def test_rwords_form_transversal(self):
        gens = GeneratorSet(6, [perm(6, (0, 1, 2, 3, 4, 5)), perm(6, (1, 5), (2, 4))])
        _, rmap = build_point_transversal(gens, 0, 6)
        images = {rmap.word(p).eval().apply(0) for p in rmap.points}
        assert images == set(rmap.points)  # one representative per orbit point


    def test_truthy_hook_stops_the_walk(self):
        gens = GeneratorSet(8, [perm(8, (0, 1, 2, 3, 4, 5, 6, 7))])
        calls = []
        state, rmap = build_point_transversal(
            gens, 0, 8, lambda state, outcome: calls.append(outcome.kind) or True
        )
        assert rmap is None and not state.capped
        assert calls == ["appended"] and state.sift_count == 1


def _snapshot(state, rmap) -> tuple:
    """Structure, r-word points and every r-word's letters as image tuples."""
    words = [tuple(g.images for g in rmap.word(p).letters) for p in rmap.points]
    return dump_state(state), rmap.points, words


def test_missing_hook_changes_nothing():
    # A hook that sees every sift and answers False leaves the walk as it
    # is without a hook: same levels, same r-word points, same letters.
    cases = 0
    for entry in standard_corpus():
        for copy in range(3):
            gens = entry.gens if copy == 0 else relabel(
                entry.gens, random.Random(f"{entry.name}/{copy}"), copy - 1
            )
            n = gens.degree
            seen = []
            plain = _snapshot(*build_point_transversal(gens, 0, n))
            hooked = _snapshot(*build_point_transversal(
                gens, 0, n, lambda state, outcome: seen.append(outcome) or False
            ))
            assert hooked == plain, (entry.name, copy)
            assert len(seen) == plain[0]["sifts"], (entry.name, copy)
            cases += 1
    assert cases == 3 * len(standard_corpus())


class TestBuildScopedTransversal:
    def _seeded_state(self, n, seed, alpha=0, cap=None):
        return SiftState(n, cap or n, seed, alpha)

    def test_single_cycle_closure(self):
        state = self._seeded_state(4, perm(4, (0, 1, 2, 3)))
        pts, rmap = state.level_deep_orbit(1)
        scoped = build_scoped_transversal(state, rmap.word(1).eval(), (1, 2, 3))
        assert scoped is not None
        assert set(scoped.points) == {0, 1, 2, 3}

    def test_involution_orbit(self):
        state = self._seeded_state(4, perm(4, (0, 1)))
        _, rmap = state.level_deep_orbit(1)
        scoped = build_scoped_transversal(state, rmap.word(1).eval(), (1,))
        assert set(scoped.points) == {0, 1}

    def test_cap_already_reached(self):
        state = SiftState(3, 1, perm(3, (0, 1)), 0)
        state.deep_sift(perm(3, (1, 2)))  # level count -> 2 = cap + 1
        assert state.capped
        _, rmap = state.level_deep_orbit(1)
        levels, sum_xi = dump_state(state)["levels"], state.sum_xi()
        assert build_scoped_transversal(state, rmap.word(1).eval(), (1,)) is None
        # the cap is checked before the first level is swapped
        assert dump_state(state)["levels"] == levels and state.sum_xi() == sum_xi
        assert len(state.certificate()) == 2

    def test_overlay_level_discarded_deep_appends_kept(self):
        gens = GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))])
        state, rmap = build_point_transversal(gens, 0, 4)
        first, x1_before = state.levels[0], list(state.levels[0].elems)
        scoped = build_scoped_transversal(state, rmap.word(2).eval(), (2,))
        assert scoped is not None
        # the swapped-in first level is discarded and the live one restored
        assert state.levels[0] is first and first.elems == x1_before
        for lv in state.levels[1:]:  # any deep appends are valid elements
            for g in lv.elems:
                assert g.images[0] == 0 and g.images[lv.beta] != lv.beta

    def test_fixed_rword_rejected(self):
        state = self._seeded_state(4, perm(4, (0, 1, 2, 3)))
        with pytest.raises(ValueError):
            build_scoped_transversal(state, Permutation.identity(4), (1,))
        with pytest.raises(ValueError):  # r must act on the state's points
            build_scoped_transversal(state, perm(5, (0, 1)), (1,))


KNOWN_ORDER_GROUPS = [
    ("c12", GeneratorSet(12, [perm(12, tuple(range(12)))]), 12),
    ("d6", GeneratorSet(6, [perm(6, (0, 1, 2, 3, 4, 5)), perm(6, (1, 5), (2, 4))]), 12),
    ("s5", GeneratorSet(5, [perm(5, (0, 1)), perm(5, (0, 1, 2, 3, 4))]), 120),
    ("a6", GeneratorSet(6, [perm(6, (0, 1, 2)), perm(6, (1, 2, 3, 4, 5))]), 360),
    ("k4wr2", GeneratorSet(4, [perm(4, (0, 1)), perm(4, (0, 2), (1, 3))]), 8),
]


@pytest.mark.parametrize(
    "name,gens,order", KNOWN_ORDER_GROUPS, ids=[g[0] for g in KNOWN_ORDER_GROUPS]
)
def test_word_length_accounting(name, gens, order):
    state, rmap = build_point_transversal(gens, 0, gens.degree)
    assert rmap is not None
    total = state.sum_xi()
    assert total <= math.ceil(math.log2(order))
    n = gens.degree
    assert total <= state.level_count * max(1, math.ceil(math.log2(n)))
    for p in rmap.points:
        w = rmap.word(p)
        assert len(w) <= 2 * total
        assert w.apply(0) == p


def test_certified_base_lower_bound():
    # |B| >= sum |X_i| / ceil(log2 n) at termination
    gens = GeneratorSet(8, [perm(8, tuple(range(8))), perm(8, (1, 7), (2, 6), (3, 5))])
    state, _ = build_point_transversal(gens, 0, 8)
    assert state.level_count >= state.sum_xi() / math.ceil(math.log2(8))


def test_queue_pairs_become_closed():
    # after completion the orbit is closed under every generator
    rng = random.Random(7)
    for _ in range(10):
        base = GeneratorSet(
            6, [perm(6, (0, 1, 2, 3, 4, 5)), perm(6, (0, 3), (1, 4), (2, 5))]
        )
        extra = random_element(base, rng)
        gens = GeneratorSet(6, base.generators + ([extra] if extra != Permutation.identity(6) else []))
        _, rmap = build_point_transversal(gens, 0, 6)
        assert rmap is not None
        oset = set(rmap.points)
        assert oset == set(reference_orbit(gens.generators, 0))
        for s in gens.generators:
            assert {s.images[p] for p in oset} == oset
