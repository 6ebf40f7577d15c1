import math
import random

import pytest

from blocksift import primitivity
from blocksift.perm import GeneratorSet, Permutation
from blocksift.primitivity import primitivity_main, primitivity_subquadratic, ss_uncapped
from blocksift.sift import SiftState
from conftest import (
    brute_force_elements,
    enumerate_deep_cube,
    perm,
    random_element,
    relabel,
)


def two_level_state():
    """The worked two-level fixture: sift (0 1)(2 3) into a C4-seeded state."""
    state = SiftState.init_state(4, 4, perm(4, (0, 1, 2, 3)), 0)
    outcome = state.deep_sift(perm(4, (0, 1), (2, 3)))
    return state, outcome


class TestInitState:
    def test_four_cycle(self):
        state = SiftState.init_state(4, 4, perm(4, (0, 1, 2, 3)), 0)
        assert state.base == [0]
        assert set(state.levels[0].delta) == {0, 1}

    def test_smallest_case_hits_bound(self):
        state = SiftState.init_state(2, 1, perm(2, (0, 1)), 0)
        assert set(state.levels[0].delta) == {0, 1}
        assert len(state.levels[0].elems) == 1  # == ceil(log2 2)

    def test_fixed_seed_rejected(self):
        with pytest.raises(ValueError):
            SiftState.init_state(4, 4, Permutation.identity(4), 0)


class TestDeepSift:
    def test_identity_is_noop(self):
        state = SiftState.init_state(4, 4, perm(4, (0, 1, 2, 3)), 0)
        before = state.debug_dump()
        out = state.deep_sift(Permutation.identity(4))
        assert out.kind == "sifted_to_identity"
        assert state.debug_dump()["levels"] == before["levels"]

    def test_disjoint_translate_appends(self):
        state = SiftState.init_state(4, 4, perm(4, (0, 1, 2, 3)), 0)
        out = state.deep_sift(perm(4, (0, 2), (1, 3)))
        assert out.kind == "appended" and out.level == 1
        assert set(state.levels[0].delta) == {0, 1, 2, 3}

    def test_new_base_point_trace(self):
        # pinned trace: lambda = 0, s = the 4-cycle, t = empty,
        # stripped element (1 3) opens level 2 at beta_2 = 1
        state, out = two_level_state()
        assert out.kind == "new_base_point" and out.level == 2
        assert state.base == [0, 1]
        assert state.level_perms(2) == [perm(4, (1, 3))]
        assert set(state.levels[1].delta) == {1, 3}
        # stripped element is in the stabilizer of 0 (brute-force membership)
        g4 = GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (0, 1), (2, 3))])
        stab0 = {g for g in brute_force_elements(g4) if g.images[0] == 0}
        assert out.terminal in stab0

    def test_witness_reconstructs_input(self):
        state = SiftState.init_state(4, 4, perm(4, (0, 1, 2, 3)), 0)
        g = perm(4, (0, 1), (2, 3))
        out = state.deep_sift(g)
        assert out.reconstruct() == g

    def test_degree_mismatch(self):
        state = SiftState.init_state(4, 4, perm(4, (0, 1, 2, 3)), 0)
        with pytest.raises(ValueError):
            state.deep_sift(Permutation.identity(5))

    def test_cap_guard(self):
        state = SiftState.init_state(3, 1, perm(3, (0, 1)), 0)
        state.deep_sift(perm(3, (1, 2)))  # opens level 2 = cap + 1
        assert state.level_count == 2
        with pytest.raises(ValueError):
            state.deep_sift(perm(3, (0, 1)))


class TestCertificate:
    def test_single_level(self):
        state = SiftState.init_state(4, 4, perm(4, (0, 1, 2, 3)), 0)
        cert = state.certificate()
        assert cert.entries == [(0, perm(4, (0, 1, 2, 3)))]
        assert cert.validate()

    def test_two_levels(self):
        state, _ = two_level_state()
        cert = state.certificate()
        assert cert.entries == [
            (0, perm(4, (0, 1, 2, 3))),
            (1, perm(4, (1, 3))),
        ]
        assert cert.validate()


class TestLevelDeepOrbit:
    def test_single_transposition(self):
        state = SiftState.init_state(2, 2, perm(2, (0, 1)), 0)
        pts, _ = state.level_deep_orbit(1)
        assert set(pts) == {0, 1}

    def test_involution_level(self):
        state, _ = two_level_state()
        pts, rmap = state.level_deep_orbit(2)
        assert set(pts) == {1, 3}
        assert all(rmap.word(p).apply(1) == p for p in pts)

    def test_two_level_brute_force(self):
        # oracle: enumerate all elements of C((X2,X1)^-1, (X2,X1))
        state, _ = two_level_state()
        xstar = [perm(4, (1, 3)), perm(4, (0, 1, 2, 3))]
        oracle = {g.apply(0) for g in enumerate_deep_cube(xstar)}
        pts, rmap = state.level_deep_orbit(1)
        assert set(pts) == oracle
        bound = 2 * state.sum_xi()
        for p in pts:
            w = rmap.word(p)
            assert len(w) <= bound and w.apply(0) == p

    def test_bad_level(self):
        state, _ = two_level_state()
        with pytest.raises(ValueError):
            state.level_deep_orbit(3)


SMALL_GROUPS = [
    ("c6", GeneratorSet(6, [perm(6, (0, 1, 2, 3, 4, 5))]), 6),
    ("s3", GeneratorSet(3, [perm(3, (0, 1)), perm(3, (1, 2))]), 6),
    ("d4", GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))]), 8),
    ("s4", GeneratorSet(4, [perm(4, (0, 1)), perm(4, (0, 1, 2, 3))]), 24),
    ("v4wr", GeneratorSet(4, [perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))]), 8),
    ("a5", GeneratorSet(5, [perm(5, (0, 1, 2, 3, 4)), perm(5, (0, 1, 2))]), 60),
]


@pytest.mark.parametrize("name,gens,order", SMALL_GROUPS, ids=[g[0] for g in SMALL_GROUPS])
def test_random_sift_invariants(name, gens, order):
    rng = random.Random(hash(name) & 0xFFFF)
    n = gens.degree
    for trial in range(20):
        seed = next(g for g in gens.generators if g.images[0] != 0)
        state = SiftState.init_state(n, n, seed, 0)
        total = state.sum_xi()
        for _ in range(25):
            g = random_element(gens, rng)
            out = state.deep_sift(g)
            state.validate()
            assert out.reconstruct() == g
            new_total = state.sum_xi()
            if out.kind == "sifted_to_identity":
                assert new_total == total
            else:
                assert new_total == total + 1
            total = new_total
        assert total <= math.log2(order) + 1e-9


@pytest.mark.parametrize("name,gens,order", SMALL_GROUPS, ids=[g[0] for g in SMALL_GROUPS])
def test_deep_cube_lemmas_small(name, gens, order):
    # whenever sum |X_i*| <= 6: the sifted element lands in the deep cube at
    # its entry level, and its beta_i image lands in Omega_i
    rng = random.Random(hash(name) & 0xFFF)
    n = gens.degree
    checked = 0
    for trial in range(10):
        seed = next(g for g in gens.generators if g.images[0] != 0)
        state = SiftState.init_state(n, n, seed, 0)
        for _ in range(15):
            g = random_element(gens, rng)
            entry = next(
                (i for i, b in enumerate(state.base) if g.images[b] != b), None
            )
            lam = None if entry is None else g.images[state.base[entry]]
            state.deep_sift(g)
            if entry is None or state.sum_xi(entry + 1) > 6:
                continue
            xstar = [
                p
                for lvl in range(state.level_count, entry, -1)
                for p in state.level_perms(lvl)
            ]
            cube = enumerate_deep_cube(xstar)
            assert g in cube, "augment-generators: g must lie in the deep cube"
            pts, _ = state.level_deep_orbit(entry + 1)
            assert lam in pts, "augment-transversal: lambda must enter Omega_i"
            checked += 1
    assert checked >= 30


def test_stored_elements_pass_checked_construction(full_corpus, monkeypatch):
    # products and inverses are built unchecked inside the drivers; every
    # stored element and its inverse must still pass the checked
    # constructor, and the final structure its invariants
    states = []
    build_point_transversal = primitivity.build_point_transversal

    def capture(*args, **kwargs):
        res = build_point_transversal(*args, **kwargs)
        states.append(res[0])
        return res

    monkeypatch.setattr(primitivity, "build_point_transversal", capture)
    rng = random.Random(11)
    checked = 0
    for entry in full_corpus:
        for gens in (entry.gens, relabel(entry.gens, rng, extra=1)):
            for driver in (primitivity_main, primitivity_subquadratic, ss_uncapped):
                states.clear()
                driver(gens)
                if primitivity._largest_proper_divisor(gens.degree) == 1:
                    assert states == []  # prime degree: nothing is built
                    continue
                (state,) = states
                store = state.store
                for i in range(len(store)):
                    g = store.perm(i)
                    assert Permutation(list(g.images)) == g
                    inv = Permutation(list(store.inverse_images(i)))
                    assert (g * inv).is_identity()
                    assert Permutation(list(g.inverse().images)) == inv
                    checked += 1
                state.validate()
    assert checked > 1000
