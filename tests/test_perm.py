import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from blocksift import perm as perm_module, primitivity
from blocksift.blocks import blockness_test
from blocksift.corpus import build, parse_spec
from blocksift.ioformats import emit_generators, parse_generators
from blocksift.perm import (
    GeneratorSet,
    Orbits,
    Permutation,
    is_transitive,
    orbit,
    point_table,
)
from blocksift.sift import SiftState
from blocksift.words import Word
from conftest import perm, reference_images, reference_orbit, relabel


def random_perms(max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation)
    )


def shared_degree_perms(count, degree=6):
    return st.tuples(
        *[st.permutations(list(range(degree))).map(Permutation) for _ in range(count)]
    )


class TestApply:
    def test_identity(self):
        assert Permutation.identity(4).apply(2) == 2

    def test_cycle(self):
        assert Permutation([1, 2, 3, 0]).apply(3) == 0

    def test_double_transposition(self):
        assert Permutation([1, 0, 3, 2]).apply(1) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]).apply(2)


class TestCompose:
    def test_identity_right(self):
        g = Permutation([2, 0, 1])
        assert g * Permutation.identity(3) == g

    def test_image_chase(self):
        assert (Permutation([1, 0, 2]) * Permutation([0, 2, 1])).images == (2, 0, 1)

    def test_inverse_cancels(self):
        g = Permutation([3, 1, 0, 2])
        assert g * g.inverse() == Permutation.identity(g.degree)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]) * Permutation([0, 1, 2])


class TestInverse:
    def test_identity(self):
        assert Permutation.identity(3).inverse() == Permutation.identity(3)

    def test_cycle(self):
        assert Permutation([1, 2, 3, 0]).inverse().images == (3, 0, 1, 2)

    def test_involution(self):
        assert Permutation([1, 0]).inverse().images == (1, 0)


class TestOrbit:
    def test_four_cycle(self):
        assert orbit(perm(4, (0, 1, 2, 3)), 0, 4) == [0, 1, 2, 3]

    def test_identity_fixed(self):
        assert orbit(Permutation.identity(6), 5, 6) == [5]

    def test_two_transpositions(self):
        assert orbit(perm(4, (0, 1), (2, 3)), 0, 4) == [0, 1]

    def test_order_independent_as_set(self):
        # the cycle through 0 is one set whichever of its points starts
        # the walk, and whichever direction walks it
        a = perm(5, (0, 3, 1), (2, 4))
        walked = orbit(a, 0, 5)
        assert walked == [0, 3, 1]
        for start in walked:
            assert set(orbit(a, start, 5)) == set(walked)
        assert orbit(a.inverse(), 0, 5) == [0, 1, 3]


class TestOrbitLimit:
    def test_prefix_when_orbit_is_larger(self):
        g = perm(10, (0, 5, 3, 9, 1, 8, 2, 7, 4, 6))
        full = orbit(g, 3, 10)
        assert len(full) == 10
        for limit in range(1, len(full)):
            assert orbit(g, 3, limit) == full[: limit + 1]

    def test_single_permutation_walks_its_cycle(self):
        g = perm(10, (0, 4, 7), (1, 2))
        assert orbit(g, 4, 10) == [4, 7, 0]
        assert orbit(g, 4, 2) == [4, 7, 0]
        assert orbit(g, 4, 1) == [4, 7]
        assert orbit(g, 3, 10) == [3]

    def test_whole_orbit_within_limit(self):
        g = perm(12, (0, 1, 2, 3), (5, 6))
        full = orbit(g, 0, 12)
        assert full == [0, 1, 2, 3]
        assert orbit(g, 0, len(full)) == full

    def test_word_provider(self):
        x = perm(9, tuple(range(9)))
        y = perm(9, (0, 3, 6))
        word = Word(9, [x, y.inverse()])
        r = word.eval()
        full = orbit(r, 1, 9)
        assert full == reference_orbit([word], 1)
        for limit in range(1, len(full)):
            assert orbit(r, 1, limit) == full[: limit + 1]
        assert orbit(r, 1, len(full)) == full

    def test_limit_zero_gives_the_start(self):
        # a cycle is walked at most limit steps: none at limit 0
        g = perm(10, (0, 4, 7), (1, 2))
        assert orbit(g, 4, 0) == [4]
        assert orbit(g, 3, 0) == [3]


@st.composite
def mixed_providers(draw):
    """1-4 actions of one degree, each a Permutation or a Word over 1-3
    permutations and their inverses; a few fixed points make intransitive
    sets common."""
    n = draw(st.integers(1, 10))
    perms = st.permutations(list(range(n))).map(Permutation)
    elems = [draw(perms) for _ in range(draw(st.integers(1, 3)))]
    letters = st.sampled_from(elems + [g.inverse() for g in elems])
    words = st.lists(letters, max_size=4).map(lambda ls: Word(n, ls))
    actions = draw(st.lists(st.one_of(perms, words), min_size=1, max_size=4))
    return n, actions


class TestOrbitWalk:
    @given(mixed_providers(), st.data())
    def test_matches_the_deque_reference(self, case, data):
        n, actions = case
        # words evaluated to permutations, walked over their image arrays
        perms = [a if isinstance(a, Permutation) else a.eval() for a in actions]
        i = data.draw(st.integers(0, len(actions) - 1))
        start = data.draw(st.integers(0, n - 1))
        limit = data.draw(st.integers(0, n))
        walked = orbit(perms[i], start, limit)
        assert walked == reference_orbit([actions[i]], start, limit)
        # cells of one point each: the cell closure is the same cycle walk
        assert orbit(perms[i], start, limit, Orbits(n, [])) == walked
        # cells of the other actions' group K: whole cells of the closure
        # under K and the action, in full once it fits the limit
        cells = Orbits(n, perms[:i] + perms[i + 1:])
        got = orbit(perms[i], start, limit, cells)
        full = reference_orbit(actions, start)
        assert len(set(got)) == len(got) and set(got) <= set(full)
        assert got[:cells.size[cells.root[start]]] == cells.cell(start)
        assert all(set(cells.cell(p)) <= set(got) for p in got)
        if len(full) <= limit:
            assert sorted(got) == sorted(full)
        else:
            assert len(got) > limit
        gens = GeneratorSet(n, perms)
        assert is_transitive(gens) == (len(reference_orbit(perms, 0)) == n)


class TestOrbits:
    def test_fixed_case(self):
        cells = Orbits(8, [perm(8, (3, 1, 6)), perm(8, (6, 4), (0, 7))])
        assert cells.root == [0, 1, 2, 1, 1, 5, 1, 0]
        assert [cells.size[r] for r in (0, 1, 2, 5)] == [2, 4, 1, 1]
        assert cells.size[3] == cells.first[3] == 0
        assert cells.cell(6) == cells.cell(1) and cells.cell(6)[0] == 1
        assert sorted(cells.cell(4)) == [1, 3, 4, 6]

    def test_no_generators_gives_singletons(self):
        cells = Orbits(5, [])
        assert cells.root == cells.first == cells.members == [0, 1, 2, 3, 4]
        assert cells.size == [1] * 5 and cells.degree == 5

    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(Permutation), max_size=3)
        .map(lambda gens: (n, gens))
    ))
    def test_partition_of_the_points(self, case):
        n, gens = case
        cells = Orbits(n, gens)
        roots = [r for r in range(n) if cells.size[r]]
        assert roots == sorted(set(cells.root))
        assert sum(cells.size) == n
        assert sorted(cells.members) == list(range(n))
        for r in roots:
            cell = cells.members[cells.first[r]:cells.first[r] + cells.size[r]]
            assert cell[0] == r == min(cell)
            assert sorted(cell) == (sorted(reference_orbit(gens, r)) if gens else [r])
            assert all(cells.root[p] == r for p in cell)

    @given(st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.permutations(list(range(n))).map(Permutation), max_size=3),
            st.lists(st.permutations(list(range(n))).map(Permutation), max_size=3),
        )
    ))
    def test_merged_matches_orbits_of_all(self, case):
        n, a, b = case
        old = Orbits(n, a)
        got, want = old.merged(b), Orbits(n, a + b)
        assert got.root == want.root and got.size == want.size
        assert sorted(got.members) == list(range(n))
        for r in range(n):
            if want.size[r]:
                cell = got.members[got.first[r]:got.first[r] + got.size[r]]
                assert cell[0] == r and set(cell) == set(want.cell(r))
        # the old cells are left as they were
        assert old.root == Orbits(n, a).root

    def test_merged_along_nothing(self):
        old = Orbits(8, [perm(8, (3, 1, 6)), perm(8, (6, 4), (0, 7))])
        for b in ([], [Permutation.identity(8)], [perm(8, (1, 4), (0, 7))]):
            # no permutation, or only ones that keep every cell, joins nothing
            got = old.merged(b)
            assert (got.root, got.size) == (old.root, old.size), b
            assert [sorted(got.cell(r)) for r in (0, 1, 2, 5)] == [
                [0, 7], [1, 3, 4, 6], [2], [5]
            ], b

    def test_merged_joins_whole_cells(self):
        old = Orbits(8, [perm(8, (3, 1, 6)), perm(8, (6, 4), (0, 7))])
        got = old.merged([perm(8, (2, 4)), perm(8, (7, 5))])
        assert got.root == [0, 1, 1, 1, 1, 0, 1, 0]
        # 1's cell first, then 2's, which 4 lands in
        assert got.cell(6) == [1, 6, 3, 4, 2]
        assert got.cell(5) == [0, 7, 5] and got.size[2] == got.size[5] == 0


class TestOrbitCells:
    # K is generated by the double transposition (0 1)(4 5); R is the
    # permutation walked
    K = Orbits(6, [perm(6, (0, 1), (4, 5))])
    R = perm(6, (0, 2, 4), (1, 3, 5))

    def test_whole_cells_in_reach_order(self):
        assert orbit(self.R, 0, 6, self.K) == [0, 1, 2, 3, 4, 5]
        # 3 reaches 5, whose cell comes in least point first
        assert orbit(self.R, 3, 6, self.K) == [3, 4, 5, 0, 1, 2]

    def test_no_providers_gives_the_cell(self):
        # the identity moves no point out of the start's cell
        assert orbit(Permutation.identity(6), 5, 6, self.K) == [4, 5]

    def test_limit_checked_before_walking_a_cell(self):
        # the start's cell alone passes the limit
        assert orbit(self.R, 4, 1, self.K) == [4, 5]
        # {0, 1} fits; the cell {2} reached from 0 makes 3 points
        assert orbit(self.R, 0, 2, self.K) == [0, 1, 2]

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            orbit(perm(5, (0, 1)), 0, 6, self.K)
        with pytest.raises(ValueError):
            orbit(self.R, 6, 6, self.K)
        # a negative start would index from the end
        with pytest.raises(ValueError):
            orbit(self.R, -1, 6)


class TestGeneratorSetEquality:
    def test_equal_by_degree_and_generators(self):
        gens = GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))])
        assert gens == GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))])
        assert gens != GeneratorSet(4, [perm(4, (1, 3)), perm(4, (0, 1, 2, 3))])
        assert gens != GeneratorSet(4, [perm(4, (0, 1, 2, 3))])
        assert GeneratorSet(2, [perm(2, (0, 1))]) != GeneratorSet(3, [perm(3, (0, 1))])
        assert gens != gens.generators


class TestTransitivity:
    def test_cycle_transitive(self):
        assert is_transitive(GeneratorSet(4, [perm(4, (0, 1, 2, 3))]))

    def test_small_support_not_transitive(self):
        assert not is_transitive(GeneratorSet(3, [perm(3, (0, 1))]))

    def test_degree_one(self):
        assert is_transitive(GeneratorSet(1, [Permutation.identity(1)]))


class CountedImages(tuple):
    """An image tuple that counts, in ``reads[0]``, every image read from it."""

    def __new__(cls, images, reads):
        out = super().__new__(cls, images)
        out.reads = reads
        return out

    def __getitem__(self, p):
        self.reads[0] += 1
        return tuple.__getitem__(self, p)


def counted(perms):
    """The perms as one generator set over counting image tuples, and its
    shared read counter."""
    reads = [0]
    gens = [Permutation.unchecked(CountedImages(g.images, reads)) for g in perms]
    return GeneratorSet(perms[0].degree, gens), reads


def random_cycle(points, rng):
    """One cycle through the given points, in a random order."""
    order = list(points)
    rng.shuffle(order)
    return order


def random_involution(n, points, rng):
    """An involution pairing up a random part of the given points."""
    pts = list(points)
    rng.shuffle(pts)
    pairs = pts[:2 * rng.randint(1, len(pts) // 2)]
    return Permutation.from_cycles(n, [pairs[i:i + 2] for i in range(0, len(pairs), 2)])


def fixing_0(n, rng):
    """A random involution that fixes 0, the identity at n = 2."""
    return random_involution(n, range(1, n), rng) if n > 2 else Permutation.identity(n)


class TestTransitivityWalk:
    """The cycle walk's stop rules: exactly k + n image reads, and no
    degree-sized array, when the first generator that moves 0 has an
    n-cycle and k generators come before it (so at most n - 1 + |S|); at
    most n |S| + n - 1 otherwise; and no True short of the whole orbit."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 101])
    def test_an_n_cycle_ahead_of_every_generator_moving_0(self, n):
        rng = random.Random(f"n-cycle/{n}")
        for _ in range(10):
            cycle = Permutation.from_cycles(n, [random_cycle(range(n), rng)])
            # involutions that move 0, allowed after the cycle only, and
            # involutions that fix 0, allowed anywhere
            moving = [random_involution(n, range(n), rng) for _ in range(3)]
            fixing = [random_involution(n, range(1, n), rng) for _ in range(3)] if n > 2 else []
            for perms in (
                [cycle],
                [cycle, *moving, *fixing],  # first
                [*fixing, cycle],  # last
                [*fixing[:1], cycle, *moving, *fixing[1:]],  # among involutions
            ):
                gens, reads = counted(perms)
                assert is_transitive(gens)
                assert reads[0] <= n - 1 + len(perms)

    @pytest.mark.parametrize("n", [3, 7, 16, 101])
    def test_any_generator_set_within_the_general_bound(self, n):
        rng = random.Random(f"general/{n}")
        for _ in range(20):
            # an n-cycle behind an involution that moves 0 may meet the
            # points that involution added, so only the general bound holds
            involutions = [random_involution(n, range(n), rng) for _ in range(rng.randint(1, 4))]
            cycle = Permutation.from_cycles(n, [random_cycle(range(n), rng)])
            at = rng.randint(1, len(involutions))
            for perms in (involutions, involutions[:at] + [cycle] + involutions[at:]):
                gens, reads = counted(perms)
                assert is_transitive(gens) == (len(reference_orbit(perms, 0)) == n)
                assert reads[0] <= n * len(perms) + n - 1

    @pytest.mark.parametrize("n", [3, 4, 7, 16, 101])
    def test_an_orbit_of_n_minus_1_points_is_not_transitive(self, n):
        rng = random.Random(f"short/{n}")
        for _ in range(10):
            # the orbit of 0 is every point but one, named at random
            missing = rng.randrange(1, n)
            rest = [p for p in range(n) if p != missing]
            cycle = Permutation.from_cycles(n, [random_cycle(rest, rng)])
            extra = [random_involution(n, rest, rng) for _ in range(2)]
            for perms in ([cycle], [cycle, *extra], [*extra, cycle], extra):
                gens = GeneratorSet(n, perms)
                assert len(reference_orbit(perms, 0)) <= n - 1
                assert not is_transitive(gens)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 101])
    def test_an_n_cycle_after_k_generators_fixing_0_reads_k_plus_n(self, n):
        rng = random.Random(f"k+n/{n}")
        for k in range(4):
            cycle = Permutation.from_cycles(n, [random_cycle(range(n), rng)])
            fixing = [fixing_0(n, rng) for _ in range(k)]
            moving = [random_involution(n, range(n), rng) for _ in range(2)]
            for perms in ([*fixing, cycle], [*fixing, cycle, *moving, *fixing]):
                gens, reads = counted(perms)
                assert is_transitive(gens)
                assert reads[0] == k + n

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 101])
    def test_an_n_cycle_or_a_lone_generator_builds_no_array(self, n, monkeypatch):
        def no_array(*args):
            raise AssertionError(f"bytearray{args} built")

        rng = random.Random(f"no-array/{n}")
        sets = []
        for k in range(4):
            cycle = Permutation.from_cycles(n, [random_cycle(range(n), rng)])
            moving = [random_involution(n, range(n), rng) for _ in range(2)]
            sets.append(([*(fixing_0(n, rng) for _ in range(k)), cycle, *moving], True))
            # one generator whose cycle through 0 misses a point
            sets.append(([Permutation.from_cycles(n, [random_cycle(range(n - 1), rng)])], False))
        for spec in ("cyclic(257)", "dihedral(263)"):
            gens = build(parse_spec(spec))
            sets += [(gens.generators, True), (relabel(gens, rng).generators, True)]
        monkeypatch.setattr(perm_module, "bytearray", no_array, raising=False)
        for perms, transitive in sets:
            assert is_transitive(GeneratorSet(perms[0].degree, perms)) == transitive

    @pytest.mark.parametrize("n", [3, 16, 101, 1009])
    def test_the_walked_cycle_is_not_walked_again(self, n):
        # the cycle 0 -> 1 -> ... -> n - 2 is walked in n - 1 reads; from its
        # points the fallback then reads only the transposition (n-2 n-1),
        # once per point and once more from n - 1: 2n - 1 reads in all, where
        # walking the cycle again from each of its points reads 3n - 2
        cycle = Permutation((*range(1, n - 1), 0, n - 1))
        gens, reads = counted([cycle, perm(n, (n - 2, n - 1))])
        assert is_transitive(gens)
        assert reads[0] == 2 * n - 1

    @pytest.mark.parametrize("n", [16, 101, 1009])
    @pytest.mark.parametrize("k", [1, 3])
    def test_generators_ahead_are_not_read_again_from_0(self, n, k):
        # the cycle and transposition above, behind k transpositions that fix
        # 0 and n - 1: the search for the first mover reads their images of
        # 0, so from 0 the fallback reads only the transposition, and each
        # fixer costs one read per other point of the cycle, n - 1 in all.
        # At n = 101 that is 301 reads for k = 1 and 501 for k = 3 (302 and
        # 504 when their images of 0 are read again)
        cycle = Permutation((*range(1, n - 1), 0, n - 1))
        fixing = [perm(n, (2 * j + 1, 2 * j + 2)) for j in range(k)]
        gens, reads = counted([*fixing, cycle, perm(n, (n - 2, n - 1))])
        assert is_transitive(gens)
        assert reads[0] == 2 * n - 1 + k * (n - 1)

    @pytest.mark.parametrize("n", [3, 4, 7, 16, 101])
    def test_a_first_cycle_short_of_n_falls_back_to_the_whole_walk(self, n):
        rng = random.Random(f"fallback/{n}")
        for _ in range(10):
            # the first generator moving 0 has an (n - 1)-cycle or a
            # 2-cycle through 0, and a later generator completes the orbit
            missing = rng.randrange(1, n)
            rest = [p for p in range(n) if p != missing]
            long = Permutation.from_cycles(n, [random_cycle(rest, rng)])
            joiner = perm(n, (missing, rng.choice(rest)))
            short = perm(n, (0, rng.randrange(1, n)))
            cycle = Permutation.from_cycles(n, [random_cycle(range(n), rng)])
            fixing = [fixing_0(n, rng) for _ in range(2)]
            for perms in (
                [long, joiner],
                [fixing[0], long, fixing[1], joiner],
                [short, cycle],
                [*fixing, short, joiner, cycle],
            ):
                gens, reads = counted(perms)
                assert len(reference_orbit(perms, 0)) == n
                assert is_transitive(gens)
                assert reads[0] <= n * len(perms) + n - 1


class TestValidation:
    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_generator_degree_mismatch(self):
        with pytest.raises(ValueError):
            GeneratorSet(3, [Permutation([1, 0])])

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            GeneratorSet(3, [])

    def test_bool_degree(self):
        # True == 1, so it would pass as degree 1 and be decided
        with pytest.raises(ValueError, match="degree must be an int"):
            GeneratorSet(True, [Permutation([0])])


def assert_table_ints(perms):
    # CPython caches the ints up to 256, so only degrees past 257 make an
    # identity check on every image mean something
    for g in perms:
        assert g.degree > 257
        table = point_table(g.degree)
        assert all(v is table[v] for v in g.images)


class TestPointTable:
    def test_growth_keeps_returned_tables_and_their_ints(self):
        old = point_table(300)
        size = len(old)
        new = point_table(size + 1)
        assert len(old) == size and new[:size] == old
        assert all(a is b for a, b in zip(old, new))
        assert new == list(range(len(new)))

    @pytest.mark.parametrize("fmt", ["json", "cycles"])
    def test_parsed_images_products_and_inverses_are_table_ints(self, fmt):
        gens = relabel(build(parse_spec("dihedral(1024)")), random.Random(5))
        parsed = parse_generators(emit_generators(gens, fmt)).generators
        assert parsed == gens.generators
        g, h = parsed
        assert_table_ints(parsed + [g * h, g.inverse(), (g * h).inverse()])

    def test_block_cells_are_table_ints(self):
        gens = build(parse_spec("dihedral(1024)"))
        system = blockness_test(gens, [0, 512], 0).system
        table = point_table(1024)
        assert len(system.blocks) == 512
        assert all(p is table[p] for cell in system.blocks for p in cell)

    @pytest.mark.parametrize("spec, h_updates", [("dihedral(1024)", 0), ("subsets(30,2)", 1)])
    def test_a_decision_stores_only_table_ints(self, monkeypatch, spec, h_updates):
        # the sift levels, the r-words and every sifted element, H-updates
        # included, that primitivity_main leaves on a relabelled group
        built, sifted = [], []
        real_build, real_sift = primitivity.build_point_transversal, SiftState.deep_sift

        def recording_build(*args):
            built.append(real_build(*args))
            return built[-1]

        def recording_sift(self, g):
            sifted.append(g)
            return real_sift(self, g)

        monkeypatch.setattr(primitivity, "build_point_transversal", recording_build)
        monkeypatch.setattr(SiftState, "deep_sift", recording_sift)
        gens = relabel(build(parse_spec(spec)), random.Random(0))
        verdict = primitivity.primitivity_main(gens)
        assert verdict.diagnostics.h_updates == h_updates
        [(state, rmap)] = built
        elems = [x for lv in state.levels for x in lv.elems]
        # a block found by a build-time try ends the build with no map
        assert (rmap is None) == (verdict.kind == "blocks")
        letters = [x for p in rmap.points for x in rmap.word(p).letters] if rmap else []
        assert len(sifted) > h_updates
        assert_table_ints(elems + [x._inv for x in elems if x._inv] + letters + sifted)
        table = point_table(gens.degree)
        cells = verdict.blocks.blocks if verdict.blocks else []
        assert all(p is table[p] for cell in cells for p in cell)

    @pytest.mark.parametrize(
        "images, error, message",
        [
            ([], ValueError, "degree must be at least 1"),
            ([0, -1], ValueError, "not a permutation of 0..1: (0, -1)"),
            ([0, 2], ValueError, "not a permutation of 0..1: (0, 2)"),
            ([1, 1], ValueError, "not a permutation of 0..1: (1, 1)"),
            # the container the index hit ("bytearray", now "list") is no
            # part of what the message says
            ([1.0, 0], TypeError, "indices must be integers or slices, not float"),
            ([0, 0.0], TypeError, "indices must be integers or slices, not float"),
            (["1", "0"], TypeError, "'<=' not supported between instances of 'int' and 'str'"),
            (None, TypeError, "'NoneType' object is not iterable"),
            # negatives that a table of len(images) ints gathers to a permutation
            ([-1, 0], ValueError, "not a permutation of 0..1: (-1, 0)"),
            ([1, -2], ValueError, "not a permutation of 0..1: (1, -2)"),
            ([-2, -1], ValueError, "not a permutation of 0..1: (-2, -1)"),
            ([-1], ValueError, "not a permutation of 0..0: (-1,)"),
            # inside a grown table, but not below the degree
            ([0, 3], ValueError, "not a permutation of 0..1: (0, 3)"),
            ([0, 2**63], ValueError, f"not a permutation of 0..1: (0, {2**63})"),
            # the right sum with a repeat, and with a large value and a negative
            ([1, 1, 1], ValueError, "not a permutation of 0..2: (1, 1, 1)"),
            ([3, -2], ValueError, "not a permutation of 0..1: (3, -2)"),
        ],
    )
    def test_malformed_images_raise_as_before(self, monkeypatch, images, error, message):
        # each row with a fresh table (then of exactly len(images) ints) and a grown one
        for table in ([], list(range(64))):
            monkeypatch.setattr(perm_module, "_points", table)
            with pytest.raises(error) as info:
                Permutation(images)
            assert type(info.value) is error and message in str(info.value)

    @settings(max_examples=400)
    @given(st.data())
    def test_checks_agree_with_the_reference(self, data):
        # Permutation accepts exactly what the range and set checks of
        # reference_images accept, with the same images, and otherwise
        # raises the same exception and message, from a fresh table (of n
        # ints) and from one grown to `grown` ints
        n = data.draw(st.integers(1, 40))
        grown = data.draw(st.integers(n + 1, 4 * n))
        ints = st.integers(-2 * n, 2 * n - 1)
        junk = st.booleans() | st.floats() | st.integers(2**62) | st.integers(max_value=-(2**62))
        kind = data.draw(st.sampled_from(["ints", "mixed", "one changed", "wrapped", "sum kept"]))
        if kind in ("ints", "mixed"):
            values = ints | junk if kind == "mixed" else ints
            images = data.draw(st.lists(values, min_size=n, max_size=n))
        else:
            images = data.draw(st.permutations(range(n)))
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if kind == "one changed":
            images[i] = data.draw(st.sampled_from(images) | ints | junk)
        elif kind == "wrapped":  # entries that one of the two tables gathers back
            shifts = st.sampled_from([0, n, grown])
            images = [v - data.draw(shifts) for v in images]
        elif kind == "sum kept":  # a repeat, or a negative that offsets a large value
            shift = data.draw(st.integers(-2 * n, 2 * n))
            images[i] += shift
            images[j] -= shift
        saved = perm_module._points
        try:
            for size in (0, grown):
                outcomes = []
                for check in (lambda v: Permutation(v).images, reference_images):
                    perm_module._points = list(range(size))
                    try:
                        outcomes.append(("accepted", check(images)))
                    except Exception as exc:
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1]
                if outcomes[0][0] == "accepted":
                    assert all(type(v) is int for v in outcomes[0][1])
        finally:
            perm_module._points = saved

    def test_no_python_work_per_point(self):
        # No Python-level call and no executed line runs per point: the
        # counts are the same at 16 and at 16384 points. A loop over the
        # points shows as lines, and a generator or callback over them as calls.
        def count(action):
            counts = {"call": 0, "line": 0}

            def on_call(frame, event, arg):
                counts["call"] += event == "call"

            def on_line(frame, event, arg):
                counts["line"] += event == "line"
                return on_line

            action()  # warm-up: first-call caches
            profiler, tracer = sys.getprofile(), sys.gettrace()
            sys.setprofile(on_call)
            sys.settrace(on_line)
            try:
                action()
            finally:
                sys.settrace(tracer)
                sys.setprofile(profiler)
            return counts

        def actions(n):
            images = random.Random(n).sample(range(n), n)
            text = emit_generators(GeneratorSet(n, [Permutation(images), Permutation.identity(n)]))
            assert "true" not in text and "false" not in text
            return lambda: Permutation(images), lambda: parse_generators(text)

        point_table(2 * 16384)  # no table growth inside a count
        small, large = actions(16), actions(16384)
        for a, b in zip(small, large):
            assert count(a) == count(b)

    def test_bool_images_become_ints(self):
        images = Permutation([True, False]).images
        assert images == (1, 0) and all(type(v) is int for v in images)

    def test_table_growth_races_across_threads(self, monkeypatch):
        # four threads start from an empty table at once, each building one
        # permutation per degree 1..3000 in its own order, with thread
        # switches forced every microsecond, while this thread keeps
        # dropping the table so that growths keep racing: a growth that
        # another thread's growth could misalign would store a wrong image
        monkeypatch.setattr(perm_module, "_points", [])
        start = threading.Barrier(4)
        wrong = []

        def build_all(seed):
            degrees = list(range(1, 3001))
            random.Random(seed).shuffle(degrees)
            start.wait(timeout=30)
            for n in degrees:
                images = list(range(1, n)) + [0]
                try:
                    if Permutation(images).images != tuple(images):
                        wrong.append(n)
                except ValueError:  # a misaligned table gathers a duplicate
                    wrong.append(n)

        threads = [threading.Thread(target=build_all, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
                perm_module._points = []
                time.sleep(0.001)
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


@given(shared_degree_perms(2), st.integers(0, 5))
def test_compose_is_pointwise(pair, p):
    g, h = pair
    assert (g * h).apply(p) == h.apply(g.apply(p))


@given(shared_degree_perms(3))
def test_compose_associative(triple):
    g, h, k = triple
    assert (g * h) * k == g * (h * k)


@given(shared_degree_perms(2))
def test_inverse_antihomomorphism(pair):
    g, h = pair
    assert (g * h).inverse() == h.inverse() * g.inverse()


@given(random_perms())
def test_inverse_roundtrip(g):
    assert g.inverse().inverse() == g
    assert g * g.inverse() == Permutation.identity(g.degree)


@given(random_perms())
def test_cycles_roundtrip(g):
    assert Permutation.from_cycles(g.degree, g.cycles()) == g
