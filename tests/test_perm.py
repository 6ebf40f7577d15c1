import pytest
from hypothesis import given, strategies as st

from blocksift.perm import (
    GeneratorSet,
    Permutation,
    apply,
    compose,
    inverse,
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
        assert apply(Permutation.identity(4), 2) == 2

    def test_cycle(self):
        assert apply(Permutation([1, 2, 3, 0]), 3) == 0

    def test_double_transposition(self):
        assert apply(Permutation([1, 0, 3, 2]), 1) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply(Permutation([1, 0]), 2)


class TestCompose:
    def test_identity_right(self):
        g = Permutation([2, 0, 1])
        assert compose(g, Permutation.identity(3)) == g

    def test_image_chase(self):
        assert compose(Permutation([1, 0, 2]), Permutation([0, 2, 1])).images == (2, 0, 1)

    def test_inverse_cancels(self):
        g = Permutation([3, 1, 0, 2])
        assert compose(g, inverse(g)).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation([1, 0]), Permutation([0, 1, 2]))


class TestInverse:
    def test_identity(self):
        assert inverse(Permutation.identity(3)) == Permutation.identity(3)

    def test_cycle(self):
        assert inverse(Permutation([1, 2, 3, 0])).images == (3, 0, 1, 2)

    def test_involution(self):
        assert inverse(Permutation([1, 0])).images == (1, 0)


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
    assert apply(compose(g, h), p) == apply(h, apply(g, p))


@given(shared_degree_perms(3))
def test_compose_associative(triple):
    g, h, k = triple
    assert compose(compose(g, h), k) == compose(g, compose(h, k))


@given(shared_degree_perms(2))
def test_inverse_antihomomorphism(pair):
    g, h = pair
    assert inverse(compose(g, h)) == compose(inverse(h), inverse(g))


@given(random_perms())
def test_inverse_roundtrip(g):
    assert inverse(inverse(g)) == g
    assert compose(g, inverse(g)).is_identity()


@given(random_perms())
def test_cycles_roundtrip(g):
    assert Permutation.from_cycles(g.degree, g.cycles()) == g
