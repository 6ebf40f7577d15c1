import math
import random
import zlib

import pytest

from blocksift import primitivity
from blocksift.perm import GeneratorSet, Permutation
from blocksift.primitivity import primitivity_main, primitivity_subquadratic, ss_uncapped
from blocksift.sift import SiftState
from blocksift.transversal import build_point_transversal
from blocksift.words import WitnessMap, Word
from conftest import (
    base_points,
    brute_force_elements,
    dump_state,
    enumerate_deep_cube,
    perm,
    random_element,
    reconstruct,
    relabel,
    validate_state,
)


def two_level_state():
    """The worked two-level fixture: sift (0 1)(2 3) into a C4-seeded state."""
    state = SiftState(4, 4, perm(4, (0, 1, 2, 3)), 0)
    outcome = state.deep_sift(perm(4, (0, 1), (2, 3)))
    return state, outcome


class TestInitState:
    def test_four_cycle(self):
        state = SiftState(4, 4, perm(4, (0, 1, 2, 3)), 0)
        assert base_points(state) == [0]
        assert set(state.levels[0].points) == {0, 1}

    def test_smallest_case_hits_bound(self):
        state = SiftState(2, 1, perm(2, (0, 1)), 0)
        assert set(state.levels[0].points) == {0, 1}
        assert len(state.levels[0].elems) == 1  # == ceil(log2 2)

    def test_fixed_seed_rejected(self):
        with pytest.raises(ValueError):
            SiftState(4, 4, Permutation.identity(4), 0)


class TestDeepSift:
    def test_identity_is_noop(self):
        state = SiftState(4, 4, perm(4, (0, 1, 2, 3)), 0)
        before = dump_state(state)
        out = state.deep_sift(Permutation.identity(4))
        assert out.kind == "sifted_to_identity"
        assert dump_state(state)["levels"] == before["levels"]

    def test_disjoint_translate_appends(self):
        state = SiftState(4, 4, perm(4, (0, 1, 2, 3)), 0)
        out = state.deep_sift(perm(4, (0, 2), (1, 3)))
        assert out.kind == "appended" and state.level_count == 1
        assert state.levels[0].elems[-1] is out.terminal
        assert set(state.levels[0].points) == {0, 1, 2, 3}

    def test_new_base_point_trace(self):
        # pinned trace: lambda = 0, s = the 4-cycle, t = empty,
        # stripped element (1 3) opens level 2 at beta_2 = 1
        state, out = two_level_state()
        assert out.kind == "new_base_point" and state.level_count == 2
        assert base_points(state) == [0, 1]
        assert state.levels[1].elems == [perm(4, (1, 3))]
        assert set(state.levels[1].points) == {1, 3}
        # stripped element is in the stabilizer of 0 (brute-force membership)
        g4 = GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (0, 1), (2, 3))])
        stab0 = {g for g in brute_force_elements(g4) if g.images[0] == 0}
        assert out.terminal in stab0

    def test_witness_reconstructs_input(self):
        state = SiftState(4, 4, perm(4, (0, 1, 2, 3)), 0)
        g = perm(4, (0, 1), (2, 3))
        out = state.deep_sift(g)
        assert reconstruct(out) == g

    def test_degree_mismatch(self):
        state = SiftState(4, 4, perm(4, (0, 1, 2, 3)), 0)
        with pytest.raises(ValueError):
            state.deep_sift(Permutation.identity(5))

    def test_cap_guard(self):
        state = SiftState(3, 1, perm(3, (0, 1)), 0)
        state.deep_sift(perm(3, (1, 2)))  # opens level 2 = cap + 1
        assert state.level_count == 2
        with pytest.raises(ValueError):
            state.deep_sift(perm(3, (0, 1)))


class TestCertificate:
    def test_single_level(self):
        state = SiftState(4, 4, perm(4, (0, 1, 2, 3)), 0)
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
        state = SiftState(2, 2, perm(2, (0, 1)), 0)
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

    def test_inverses_searched_only_with_one_level(self, full_corpus):
        # A one-level state searches a few points through inverses it has
        # not built; a state of two or more levels builds them, so no point
        # of its deep orbits is reached through an inverted link.
        rng = random.Random(31)
        searched = built = 0

        def check(state, outcome):
            nonlocal searched, built
            unbuilt = any(x._inv is None for lv in state.levels for x in lv.elems)
            for i in range(1, state.level_count + 1):
                _, wit = state.level_deep_orbit(i)
                if state.level_count > 1:
                    assert not wit.inverted
                searched += bool(wit.inverted)
            built += state.level_count > 1 and unbuilt

        for entry in full_corpus:
            gens = relabel(entry.gens, rng, extra=1)
            build_point_transversal(gens, 0, gens.degree, check)
        assert searched and built


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
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    n = gens.degree
    for trial in range(20):
        seed = next(g for g in gens.generators if g.images[0] != 0)
        state = SiftState(n, n, seed, 0)
        total = state.sum_xi()
        for _ in range(25):
            g = random_element(gens, rng)
            out = state.deep_sift(g)
            validate_state(state)
            assert reconstruct(out) == g
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
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFF)
    n = gens.degree
    checked = 0
    for trial in range(10):
        seed = next(g for g in gens.generators if g.images[0] != 0)
        state = SiftState(n, n, seed, 0)
        for _ in range(15):
            g = random_element(gens, rng)
            entry = next(
                (i for i, b in enumerate(base_points(state)) if g.images[b] != b), None
            )
            lam = None if entry is None else g.images[base_points(state)[entry]]
            state.deep_sift(g)
            if entry is None or state.sum_xi(entry + 1) > 6:
                continue
            xstar = [
                p
                for lvl in range(state.level_count, entry, -1)
                for p in state.levels[lvl - 1].elems
            ]
            cube = enumerate_deep_cube(xstar)
            assert g in cube, "augment-generators: g must lie in the deep cube"
            pts, _ = state.level_deep_orbit(entry + 1)
            assert lam in pts, "augment-transversal: lambda must enter Omega_i"
            checked += 1
    assert checked >= 30


def test_stored_elements_pass_checked_construction(full_corpus, monkeypatch):
    # products and inverses are built unchecked inside the drivers; every
    # element a cube expansion walks (level elements, the scoped first
    # level's elements and the inverses they cache) and its inverse must
    # still pass the checked constructor, and the final structure its
    # invariants
    states = []
    walked = {}  # id -> element, which keeps each id unique
    build_point_transversal = primitivity.build_point_transversal
    expand = WitnessMap.expand

    def capture(*args, **kwargs):
        res = build_point_transversal(*args, **kwargs)
        states.append(res[0])
        return res

    def recording_expand(self, x):
        walked[id(x)] = x
        return expand(self, x)

    monkeypatch.setattr(primitivity, "build_point_transversal", capture)
    monkeypatch.setattr(WitnessMap, "expand", recording_expand)
    rng = random.Random(11)
    checked = 0
    for entry in full_corpus:
        for gens in (entry.gens, relabel(entry.gens, rng, extra=1)):
            for driver in (primitivity_main, primitivity_subquadratic, ss_uncapped):
                states.clear()
                walked.clear()
                driver(gens)
                if primitivity._largest_proper_divisor(gens.degree) == 1:
                    assert states == [] and walked == {}  # prime degree: nothing is built
                    continue
                (state,) = states
                for lv in state.levels:
                    assert all(id(x) in walked for x in lv.elems)
                for g in walked.values():
                    assert Permutation(list(g.images)) == g
                    inv = Permutation(list(g.inverse().images))
                    assert g * inv == Permutation.identity(g.degree)
                    assert g.inverse().inverse() is g
                    checked += 1
                validate_state(state)
    assert checked > 1000


def test_each_element_is_inverted_once(full_corpus):
    # a word's inverted letters are the inverses its level elements cache:
    # inverting twice gives back the very same objects, and every r-word is
    # spelled in level elements and those inverses only
    rng = random.Random(29)
    for entry in full_corpus:
        gens = relabel(entry.gens, rng, extra=1)
        state, rmap = build_point_transversal(gens, 0, gens.degree)
        elems = [x for lv in reversed(state.levels) for x in lv.elems]
        xstar = state.xstar(1)
        inv = xstar.inverse_word()
        assert len(xstar) == len(inv) == len(elems) == state.sum_xi()
        assert all(a is x for a, x in zip(xstar.letters, elems))
        assert all(a is x.inverse() for a, x in zip(inv.letters, reversed(elems)))
        assert all(a is x for a, x in zip(inv.inverse_word().letters, elems))
        spelled = {id(x) for x in elems} | {id(x.inverse()) for x in elems}
        for p in rmap.points:
            assert all(id(g) in spelled for g in rmap.word(p).letters)


def test_strip_steps_are_single_word_evaluations(full_corpus, monkeypatch):
    # a strip step s g t^-1 and a transversal product r_lam s_i are each one
    # word evaluation: no permutation product runs during a decision, and
    # no empty word is evaluated into an identity to multiply by
    rng = random.Random(7)
    inputs = [
        (entry.name, entry.gens if extra < 0 else relabel(entry.gens, rng, extra))
        for entry in full_corpus
        for extra in range(-1, 3)
    ]
    products, empty, steps = [], [], []
    word_eval, mul, sift = Word.eval, Permutation.__mul__, SiftState.deep_sift

    def counting_eval(self):
        if not self.letters:
            empty.append(self)
        return word_eval(self)

    def counting_mul(self, other):
        products.append(self)
        return mul(self, other)

    def counting_sift(self, g):
        outcome = sift(self, g)
        steps.append(len(outcome.chain))
        return outcome

    monkeypatch.setattr(Word, "eval", counting_eval)
    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    monkeypatch.setattr(SiftState, "deep_sift", counting_sift)
    drivers = (
        primitivity_main, primitivity_subquadratic, ss_uncapped,
        lambda g: primitivity._capped_driver(g, 2, "partial_base"),
    )
    for name, gens in inputs:
        for driver in drivers:
            driver(gens)
            assert products == [] and empty == [], name
    assert sum(steps) > 900  # strip steps run


def test_no_driver_sift_strips_to_the_identity(full_corpus, monkeypatch):
    """Every sift a driver makes appends an element or opens a level.

    - A transversal sift's element r_lam s maps beta_1 to lam^s, outside
      the deep orbit beta_1^{C(X*)^-1 C(X*)}; an element that strips to
      the identity is s_1^-1 ... s_k^-1 t_k ... t_1 with s_i, t_i in
      C(X_i), so it lies in C(X*)^-1 C(X*) and keeps beta_1 in that orbit.
    - An H-update element s g1 t^-1 lies outside K = <H, r>: s and t lie
      in K, and the witness g1 moves the K-orbit alpha^K off itself. It
      fixes alpha, so it strips through the levels below the first only,
      and C(X_2*)^-1 C(X_2*) lies in K, since every element of those
      levels comes from sifting elements of K.
    ``transversal._close_transversal`` relies on this: it visits each
    (point, generator) pair once, so a sift that changed nothing would
    leave lam^s out of the deep orbit for good.
    """
    kinds = []
    deep_sift = SiftState.deep_sift

    def recording_sift(self, g):
        outcome = deep_sift(self, g)
        kinds.append(outcome.kind)
        return outcome

    monkeypatch.setattr(SiftState, "deep_sift", recording_sift)
    drivers = [primitivity_main, ss_uncapped, primitivity_subquadratic] + [
        lambda gens, cap=cap: primitivity._capped_driver(gens, cap, "partial_base")
        for cap in (1, 2, 3)
    ]
    rng = random.Random(19)
    for entry in full_corpus:
        for gens in (entry.gens, relabel(entry.gens, rng, extra=1),
                     relabel(entry.gens, rng, extra=2)):
            for driver in drivers:
                driver(gens)
    assert "sifted_to_identity" not in kinds
    assert kinds.count("appended") > 1000 and kinds.count("new_base_point") > 500
