from collections import deque

import pytest
from hypothesis import given, strategies as st

from blocksift.perm import (
    GeneratorSet,
    Orbits,
    Permutation,
    is_transitive,
    orbit,
)
from blocksift.words import Atom, ElementStore, Word
from conftest import perm


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
        assert (g * g.inverse()).is_identity()

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
        assert orbit([perm(4, (0, 1, 2, 3))], 0) == [0, 1, 2, 3]

    def test_identity_fixed(self):
        assert orbit([Permutation.identity(6)], 5) == [5]

    def test_two_transpositions(self):
        assert orbit([perm(4, (0, 1), (2, 3))], 0) == [0, 1]

    def test_order_independent_as_set(self):
        a, b = perm(5, (0, 1)), perm(5, (1, 2, 3))
        assert set(orbit([a, b], 0)) == set(orbit([b, a], 0))


class TestOrbitLimit:
    def test_prefix_when_orbit_is_larger(self):
        gens = [perm(10, tuple(range(10))), perm(10, (0, 5))]
        full = orbit(gens, 3)
        for limit in range(1, len(full)):
            assert orbit(gens, 3, limit) == full[: limit + 1]

    def test_whole_orbit_within_limit(self):
        gens = [perm(12, (0, 1, 2, 3)), perm(12, (2, 5))]
        full = orbit(gens, 0)
        assert sorted(full) == [0, 1, 2, 3, 5]
        assert orbit(gens, 0, len(full)) == full
        assert orbit(gens, 0, 12) == full

    def test_word_provider(self):
        store = ElementStore(9)
        x = store.add(perm(9, tuple(range(9))))
        y = store.add(perm(9, (0, 3, 6)))
        words = [Word(store, [Atom(x), Atom(y, inverted=True)]), Word(store, [Atom(y)])]
        full = orbit(words, 1)
        assert full == orbit([w.eval() for w in words], 1)
        for limit in range(1, len(full)):
            assert orbit(words, 1, limit) == full[: limit + 1]
        assert orbit(words, 1, len(full)) == full

    def test_limit_below_one_rejected(self):
        with pytest.raises(ValueError):
            orbit([perm(3, (0, 1, 2))], 0, 0)


def reference_orbit(actions, start, limit=None):
    """Closure of {start} by a deque BFS over ``apply``: the reference
    visiting order and ``limit`` cut for ``orbit``."""
    limit = actions[0].degree if limit is None else limit
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


@st.composite
def mixed_providers(draw):
    """1-4 providers of one degree, each a Permutation or a Word over a
    store of 1-3 permutations; a few fixed points make intransitive sets
    common."""
    n = draw(st.integers(1, 10))
    perms = st.permutations(list(range(n))).map(Permutation)
    store = ElementStore(n)
    for _ in range(draw(st.integers(1, 3))):
        store.add(draw(perms))
    atoms = st.builds(Atom, st.integers(0, len(store) - 1), st.booleans())
    words = st.lists(atoms, max_size=4).map(lambda a: Word(store, a))
    actions = draw(st.lists(st.one_of(perms, words), min_size=1, max_size=4))
    return n, actions


class TestOrbitWalk:
    @given(mixed_providers(), st.data())
    def test_matches_the_deque_reference(self, case, data):
        n, actions = case
        start = data.draw(st.integers(0, n - 1))
        limit = data.draw(st.one_of(st.none(), st.integers(1, n)))
        assert orbit(actions, start, limit) == reference_orbit(actions, start, limit)
        # the image arrays of the same group, walked without calls
        perms = [a if isinstance(a, Permutation) else a.eval() for a in actions]
        assert orbit(perms, start, limit) == reference_orbit(actions, start, limit)
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
            assert sorted(cell) == (sorted(orbit(gens, r)) if gens else [r])
            assert all(cells.root[p] == r for p in cell)


class TestOrbitCells:
    # K is generated by the double transposition (0 1)(4 5); the provider
    # is the 6-cycle
    K = Orbits(6, [perm(6, (0, 1), (4, 5))])
    R = perm(6, (0, 2, 4), (1, 3, 5))

    def test_whole_cells_in_reach_order(self):
        assert orbit([self.R], 0, cells=self.K) == [0, 1, 2, 3, 4, 5]
        # 3 reaches 5, whose cell comes in least point first
        assert orbit([self.R], 3, cells=self.K) == [3, 4, 5, 0, 1, 2]

    def test_no_providers_gives_the_cell(self):
        assert orbit([], 5, cells=self.K) == [4, 5]

    def test_limit_checked_before_walking_a_cell(self):
        # the start's cell alone passes the limit
        assert orbit([self.R], 4, 1, self.K) == [4, 5]
        # {0, 1} fits; the cell {2} reached from 0 makes 3 points
        assert orbit([self.R], 0, 2, self.K) == [0, 1, 2]
        assert orbit([self.R], 0, 6, self.K) == orbit([self.R], 0, cells=self.K)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            orbit([perm(5, (0, 1))], 0, cells=self.K)
        with pytest.raises(ValueError):
            orbit([self.R], 6, cells=self.K)


class TestTransitivity:
    def test_cycle_transitive(self):
        assert is_transitive(GeneratorSet(4, [perm(4, (0, 1, 2, 3))]))

    def test_small_support_not_transitive(self):
        assert not is_transitive(GeneratorSet(3, [perm(3, (0, 1))]))

    def test_degree_one(self):
        assert is_transitive(GeneratorSet(1, [Permutation.identity(1)]))


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
    assert (g * g.inverse()).is_identity()


@given(random_perms())
def test_cycles_roundtrip(g):
    assert Permutation.from_cycles(g.degree, g.cycles()) == g
