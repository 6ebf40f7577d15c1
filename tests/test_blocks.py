import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from blocksift import blocks, primitivity
from blocksift.blocks import (
    BlockSystem,
    atkinson_baseline,
    blockness_test,
    minimal_block,
    validate_block_system,
)
from blocksift.perm import GeneratorSet, Permutation, is_transitive
from blocksift.primitivity import primitivity_main, ss_uncapped
from conftest import perm, relabel, smallest_invariant_class


C4 = GeneratorSet(4, [perm(4, (0, 1, 2, 3))])
C6 = GeneratorSet(6, [perm(6, (0, 1, 2, 3, 4, 5))])
D4 = GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))])
A5 = GeneratorSet(5, [perm(5, (0, 1, 2, 3, 4)), perm(5, (0, 1, 2))])
S2 = GeneratorSet(2, [perm(2, (0, 1))])


class TestMinimalBlock:
    def test_c4_antipodal(self):
        assert minimal_block(C4, {0, 2}) == set(smallest_invariant_class(C4, {0, 2}))
        assert minimal_block(C4, {0, 2}) == {0, 2}

    def test_c4_adjacent_is_everything(self):
        assert minimal_block(C4, {0, 1}) == set(smallest_invariant_class(C4, {0, 1}))
        assert minimal_block(C4, {0, 1}) == {0, 1, 2, 3}

    def test_singleton(self):
        assert minimal_block(A5, {3}) == {3}

    def test_monotone_and_fixed_point(self):
        for gens in (C4, C6, D4, A5):
            for lam in range(1, gens.degree):
                m = minimal_block(gens, {0, lam})
                assert {0, lam} <= m
                assert minimal_block(gens, m) == m

    def test_intransitive_rejected(self):
        with pytest.raises(ValueError):
            minimal_block(GeneratorSet(3, [perm(3, (0, 1))]), {0, 1})

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            minimal_block(C4, set())

    def test_out_of_range_seed_rejected(self):
        # -1 must not be read as point n-1, nor 9 fail as an IndexError
        for seed in ([0, 9], [-1], [4], [0, -4]):
            with pytest.raises(ValueError, match="out of range"):
                minimal_block(C4, seed)


class TestBlocknessTest:
    def test_c4_block(self):
        res = blockness_test(C4, {0, 2}, 0)
        assert res.kind == "is_block"
        assert sorted(map(tuple, res.system.blocks)) == [(0, 2), (1, 3)]

    def test_c4_nonblock_witness(self):
        res = blockness_test(C4, {0, 1}, 0)
        assert res.kind == "not_block"
        w = res.witness
        assert w.word.eval() == perm(4, (0, 1, 2, 3))
        assert (w.beta, w.gamma) == (0, 1)

    def test_d4_diagonal_block(self):
        res = blockness_test(D4, {1, 3}, 1)
        assert res.kind == "is_block"
        assert sorted(map(tuple, res.system.blocks)) == [(0, 2), (1, 3)]

    def test_witness_conditions_hold(self):
        # the three defining conditions, on every NotBlock over a candidate sweep
        for gens in (C4, C6, D4, A5):
            n = gens.degree
            for lam in range(1, n):
                delta = minimal_block(gens, {0, lam})
                for cand in ({0, lam}, delta):
                    if not 1 < len(cand) < n:
                        continue
                    res = blockness_test(gens, cand, 0)
                    is_minimal_fixed = minimal_block(gens, cand) == cand
                    assert (res.kind == "is_block") == is_minimal_fixed
                    if res.kind == "not_block":
                        w = res.witness
                        g1 = w.word.eval()
                        assert w.beta in cand and w.gamma in cand
                        assert g1.images[w.beta] == w.gamma
                        assert {g1.images[p] for p in cand} != cand
                        # beta, read off by position, is the least point
                        # of the candidate that g1 maps into it
                        assert w.beta == min(p for p in cand if g1.images[p] in cand)
                        # every letter is a generator or its cached inverse
                        for x in w.word.letters:
                            assert any(x is s or x is s.inverse() for s in gens.generators)
                    else:
                        assert validate_block_system(gens, res.system)
                        assert sorted(cand) in res.system.blocks

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            blockness_test(C4, {1, 3}, 0)  # alpha not in delta
        with pytest.raises(ValueError):
            blockness_test(C4, {0}, 0)  # trivial candidate

    def test_out_of_range_candidate_rejected(self):
        # -4 must not be read as point 4 (a block {0, 4} of C8), nor 9
        # fail as an IndexError
        c8 = GeneratorSet(8, [perm(8, tuple(range(8)))])
        for cand in ([-4, 0], [0, 9]):
            with pytest.raises(ValueError, match="out of range"):
                blockness_test(c8, cand, 0)

    def test_translates_missing_points_name_transitivity(self):
        # {0, 2} is a block of the 4-cycle on 0..3, but its translates miss
        # 4..7: the error is about the group, not about a partial partition
        c4_of_8 = GeneratorSet(8, [perm(8, (0, 1, 2, 3))])
        with pytest.raises(ValueError, match="requires a transitive group"):
            blockness_test(c4_of_8, {0, 2}, 0)
        # a witness found on an intransitive group is still an answer
        assert blockness_test(c4_of_8, {0, 1}, 0).kind == "not_block"


class TestAtkinsonBaseline:
    def test_a5_primitive(self):
        assert atkinson_baseline(A5) is None

    def test_c6_blocks(self):
        system = atkinson_baseline(C6)
        assert system is not None and system.nontrivial
        assert validate_block_system(C6, system)

    def test_two_points_primitive(self):
        assert atkinson_baseline(S2) is None

    def test_degree_one_primitive_like_the_drivers(self):
        assert atkinson_baseline(GeneratorSet(1, [perm(1)])) is None

    def test_intransitive_rejected(self):
        with pytest.raises(ValueError):
            atkinson_baseline(GeneratorSet(3, [perm(3, (0, 1))]))


class TestValidateBlockSystem:
    def test_good_system(self):
        bs = BlockSystem(4, [[0, 2], [1, 3]])
        assert validate_block_system(C4, bs)
        # each cell comes out sorted, the cells in their given order
        assert BlockSystem(4, ([2, 0], (3, 1))) == bs

    def test_equal_by_degree_and_cells(self):
        bs = BlockSystem(4, [[0, 2], [1, 3]])
        assert bs == BlockSystem(4, [[0, 2], [1, 3]])
        assert bs != BlockSystem(4, [[1, 3], [0, 2]])
        assert bs != BlockSystem(4, [[0, 1], [2, 3]])
        assert BlockSystem(2, [[0], [1]]) != BlockSystem(3, [[0], [1], [2]])
        assert bs != bs.blocks

    def test_unpreserved_system(self):
        bs = BlockSystem(4, [[0, 1], [2, 3]])
        assert not validate_block_system(C4, bs)

    def test_singletons_valid_but_trivial(self):
        bs = BlockSystem(4, [[p] for p in range(4)])
        assert validate_block_system(C4, bs)
        assert not bs.nontrivial

    def test_malformed_partition_rejected(self):
        with pytest.raises(ValueError):
            BlockSystem(4, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError):
            BlockSystem(4, [[0, 1, 2], [3]])  # unequal cells
        with pytest.raises(ValueError):
            BlockSystem(4, [[0, 4], [1, 2]])  # a point out of range
        # 1.0 == 1, yet a float is no point
        with pytest.raises(TypeError):
            BlockSystem(4, [[0, 2], [1.0, 3]])
        with pytest.raises(TypeError):
            BlockSystem(4, [[0, 2], ["a", 3]])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("blocks", [[0, 2], ["a", 3]]),
            ("blocks", [[0, 2], [1.0, 3]]),
            ("blocks", [[0, 2], 1]),
            ("blocks", None),
            ("blocks", []),
            ("blocks", [[0, 2], [1, 1]]),
            ("degree", 4.0),
        ],
    )
    def test_malformed_system_is_false_not_an_error(self, field, value):
        # a system changed after its checked construction is answered,
        # never raised on
        bs = BlockSystem(4, [[0, 2], [1, 3]])
        setattr(bs, field, value)
        assert validate_block_system(C4, bs) is False


def test_minimal_block_matches_partition_oracle_small(small_corpus):
    for entry in small_corpus:
        gens = entry.gens
        if gens.degree > 8:  # the full n<=10 sweep runs in acceptance
            continue
        for lam in range(1, gens.degree):
            expected = set(smallest_invariant_class(gens, {0, lam}))
            assert minimal_block(gens, {0, lam}) == expected, entry.name


def test_assembled_systems_equal_the_checked_construction(full_corpus, monkeypatch):
    # blockness_test builds its system unchecked, from block_of in one pass;
    # every system it returns, from a build-time try, the scan, the
    # certificate fallback or the baseline, must equal the one the checked
    # constructor builds from its cells, field by field
    calls = []
    real = blocks.blockness_test

    def recording(gens, delta, alpha):
        res = real(gens, delta, alpha)
        calls.append((gens, sorted(set(delta)), res))
        return res

    monkeypatch.setattr(blocks, "blockness_test", recording)
    monkeypatch.setattr(primitivity, "blockness_test", recording)
    hits = two_cells = 0
    for entry in full_corpus:
        for extra in range(-1, 3):
            gens = entry.gens if extra < 0 else relabel(
                entry.gens, random.Random(f"{entry.name}/{extra}"), extra
            )
            calls.clear()
            primitivity_main(gens)
            ss_uncapped(gens)
            primitivity._capped_driver(gens, 1, "partial_base")
            atkinson_baseline(gens)
            for g, delta, res in calls:
                if res.kind != "is_block":
                    continue
                bs = res.system
                assert bs == BlockSystem(g.degree, bs.blocks), entry.name
                assert bs.blocks[0] == delta, entry.name
                assert all(type(cell) is list for cell in bs.blocks)
                assert validate_block_system(g, bs), entry.name
                hits += 1
                two_cells += len(bs.blocks) == 2
    assert hits > 450  # all four callers: tries, scan, fallback, baseline
    # two cells are assembled by compress, not by the per-point pass
    assert two_cells > 300


def reference_blockness(gens, delta, alpha):
    """``blockness_test`` walked point by point over every block, the last
    one included: ("is_block", cells) or ("not_block", beta, gamma, letters)."""
    n = gens.degree
    delta = sorted(set(delta))
    block_of = [-1] * n
    blocks, parent = [delta], [None]
    for p in delta:
        block_of[p] = 0
    for b, pts in enumerate(blocks):
        for g in gens.generators:
            img = [g.images[p] for p in pts]
            ids = [block_of[q] for q in img]
            if ids.count(ids[0]) == len(ids):
                if ids[0] == -1:
                    for q in img:
                        block_of[q] = len(blocks)
                    blocks.append(img)
                    parent.append((b, g))
                continue
            i = next(i for i, c in enumerate(ids) if c != -1)
            j = blocks[ids[i]].index(img[i])
            paths = []
            for end in (b, ids[i]):
                path = []
                while parent[end] is not None:
                    end, h = parent[end]
                    path.append(h)
                paths.append(path[::-1])
            letters = paths[0] + [g] + [h.inverse() for h in reversed(paths[1])]
            return ("not_block", delta[i], delta[j], letters)
    if len(blocks) * len(delta) != n:
        raise ValueError("translates miss a point")
    return ("is_block", [sorted(cell) for cell in blocks])


def assert_blockness_matches_the_reference(gens, delta, alpha):
    """``blockness_test`` answers as ``reference_blockness``, down to the
    witness letters; returns the kind."""
    res, ref = blockness_test(gens, delta, alpha), reference_blockness(gens, delta, alpha)
    assert res.kind == ref[0]
    if res.kind == "is_block":
        assert res.system.blocks == ref[1]
    else:
        wit = res.witness
        assert (wit.beta, wit.gamma) == ref[1:3]
        assert len(wit.word.letters) == len(ref[3])
        assert all(a is b for a, b in zip(wit.word.letters, ref[3]))
    return res.kind


def test_blockness_matches_a_walk_of_every_block(full_corpus, monkeypatch):
    # blockness_test stops before the last of n/|delta| translates; on every
    # candidate the drivers and the baseline test, hits and misses alike,
    # it must answer as the full walk does, down to the witness letters
    calls = []
    real = blocks.blockness_test

    def recording(gens, delta, alpha):
        calls.append((gens, list(delta), alpha))
        return real(gens, delta, alpha)

    monkeypatch.setattr(blocks, "blockness_test", recording)
    monkeypatch.setattr(primitivity, "blockness_test", recording)
    for entry in full_corpus:
        for extra in range(-1, 3):
            gens = entry.gens if extra < 0 else relabel(
                entry.gens, random.Random(f"{entry.name}/{extra}"), extra
            )
            primitivity_main(gens)
            ss_uncapped(gens)
            primitivity._capped_driver(gens, 1, "partial_base")
            atkinson_baseline(gens)
    kinds = {assert_blockness_matches_the_reference(*call) for call in calls}
    assert kinds == {"is_block", "not_block"}
    # {0, 3} has all 3 translates once block 0 is walked, and the first
    # generator splits the second one: a stop any earlier misses it
    gens = GeneratorSet(6, [perm(6, (0, 5), (1, 2, 3)), perm(6, (0, 2, 3, 4, 1, 5))])
    assert real(gens, {0, 3}, 0).kind == reference_blockness(gens, {0, 3}, 0)[0] == "not_block"
    # with |delta| dividing n the stop is armed, yet translates that miss a
    # point still raise: two 4-cycles on 8 points, {0, 2} has 2 translates
    two_cycles = GeneratorSet(8, [perm(8, (0, 1, 2, 3), (4, 5, 6, 7))])
    for test in (real, reference_blockness):
        with pytest.raises(ValueError):
            test(two_cycles, {0, 2}, 0)


def test_a_split_after_the_last_translate_is_found_at_the_first_point():
    # the last translate is left unmarked; once it is found, a split image
    # meets a block at its first point, whose id -1 names the last block.
    # {0, 2, 4, 5} has both translates after the first generator, and the
    # second splits the first block at positions 0 and 2: reading the
    # witness at the first marked point would give (5, 5)
    gens = GeneratorSet(8, [Permutation((3, 0, 1, 4, 6, 7, 2, 5)),
                            Permutation((6, 7, 1, 4, 3, 5, 2, 0))])
    assert reference_blockness(gens, {0, 2, 4, 5}, 0)[:3] == ("not_block", 0, 4)
    assert assert_blockness_matches_the_reference(gens, {0, 2, 4, 5}, 0) == "not_block"


@st.composite
def transitive_groups(draw):
    """A transitive group of degree 3..12 and the cell through 0 of a random
    partition into cells of a random size dividing n. Each generator either
    permutes the cells or is a random permutation, so the cell can be a
    block, or fail only once its translates partition the points."""
    n = draw(st.integers(3, 12))
    k = draw(st.sampled_from([d for d in range(2, n) if n % d == 0] or [1]))
    label = draw(st.permutations(range(n)))  # cell i is label[i*k:(i+1)*k]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            cells = draw(st.permutations(range(n // k)))
            images = [0] * n
            for i, c in enumerate(cells):
                within = draw(st.permutations(range(k)))
                for j, w in enumerate(within):
                    images[label[i * k + j]] = label[c * k + w]
        else:
            images = draw(st.permutations(range(n)))
        gens.append(Permutation(images))
    group = GeneratorSet(n, gens)
    assume(is_transitive(group))
    i = label.index(0) // k
    return group, set(label[i * k:(i + 1) * k])


@settings(max_examples=300, deadline=None)
@given(transitive_groups(), st.data())
def test_blockness_matches_the_reference_on_random_groups(case, data):
    gens, cell = case
    n = gens.degree
    rest = data.draw(st.permutations(range(1, n)))
    size = data.draw(st.integers(2, n - 1))
    delta = data.draw(st.sampled_from([cell, {0, *rest[:size - 1]}]))
    assume(len(delta) > 1)
    assert_blockness_matches_the_reference(gens, delta, 0)


def closure_to_the_end(gens, seed):
    """Atkinson's union-find closure with no stop rule: every merged pair
    {p, q} queues its images under every generator, until the queue runs
    dry; the seed's final class."""
    parent = list(range(gens.degree))

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    pairs = [(seed[0], p) for p in seed[1:]]
    for p, q in pairs:  # grows while it is walked
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rq] = rp
            pairs += [(g.images[p], g.images[q]) for g in gens.generators]
    root = find(seed[0])
    return {p for p in range(gens.degree) if find(p) == root}


def test_minimal_block_stop_matches_the_full_closure(full_corpus):
    # the closure stops with every point once a class passes n // 2; on
    # each seed {0, lam} of the corpus, natural and relabelled, it must
    # answer as the closure run to the end, blocks of n/2 points included
    halves = set()
    for entry in full_corpus:
        for extra in (-1, 1):
            gens = entry.gens if extra < 0 else relabel(
                entry.gens, random.Random(f"{entry.name}/half/{extra}"), extra
            )
            n = gens.degree
            for lam in range(1, n):
                want = closure_to_the_end(gens, [0, lam])
                assert blocks._minimal_block_unchecked(gens, [0, lam]) == want, entry.name
                assert minimal_block(gens, [0, lam]) == want, entry.name
                if 2 * len(want) == n:
                    halves.add(entry.name)
    # a stop at n // 2 points would answer every point for these
    for name in ("cyclic(4)", "cyclic(256)", "cyclic(512)", "dihedral(8)", "dihedral(256)",
                 "wreath(alternating(64),2)"):
        assert name in halves
