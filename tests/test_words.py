import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksift.corpus import build, parse_spec
from blocksift.perm import Permutation
from blocksift.words import WitnessMap, Word, deep_cube_orbit
from conftest import enumerate_cube, perm, relabel


@pytest.fixture
def four():
    return perm(4, (0, 1, 2, 3)), perm(4, (0, 2), (1, 3))


def same_letters(word, letters):
    """The word's letters are exactly these objects, in this order."""
    return len(word.letters) == len(letters) and all(
        a is b for a, b in zip(word.letters, letters)
    )


class TestWordApply:
    def test_empty_is_identity(self):
        assert Word(8).apply(7) == 7

    def test_square_of_cycle(self, four):
        x, _ = four
        assert Word(4, [x, x]).apply(0) == 2

    def test_inverted_letter(self, four):
        x, _ = four
        assert Word(4, [x.inverse()]).apply(0) == 3


class TestWordEval:
    def test_empty(self):
        assert Word(3).eval() == Permutation.identity(3)

    def test_singleton(self, four):
        x, _ = four
        assert Word(4, [x]).eval() == x

    def test_cancellation(self, four):
        x, _ = four
        assert Word(4, [x, x.inverse()]).eval() == Permutation.identity(4)

    @given(st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=6))
    def test_matches_pointwise_apply(self, spec):
        elems = [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))]
        w = Word(4, [elems[i].inverse() if inv else elems[i] for i, inv in spec])
        g = w.eval()
        assert all(w.apply(p) == g.apply(p) for p in range(4))


def shallow_cube(word, root):
    """The witness map of the shallow cube C(X) at ``root``, X the word's
    letters, expanded one letter at a time as a sift level grows."""
    wit = WitnessMap(word.degree, root)
    for g in word.letters:
        wit.expand(g)
    return wit


class TestCubeSetImage:
    def test_empty_cube(self):
        wit = shallow_cube(Word(5), 3)
        assert wit.points == [3]
        assert len(wit.word(3)) == 0 and wit.word(3).apply(3) == 3

    def test_single_factor(self, four):
        x, _ = four
        wit = shallow_cube(Word(4, [x]), 0)
        assert set(wit.points) == {0, 1}
        assert same_letters(wit.word(1), [x]) and wit.word(1).apply(0) == 1

    def test_two_factors_cover(self, four):
        x, y = four
        assert set(shallow_cube(Word(4, [x, y]), 0).points) == {0, 1, 2, 3}

    def test_root_out_of_range_rejected(self):
        for root in (-1, 4):
            with pytest.raises(ValueError):
                WitnessMap(4, root)

    def test_witness_contract(self, four):
        # every output point: word over an index-ordered subsequence of X,
        # length <= |X|, mapping the root to it
        x, y = four
        spec = [(x, False), (y, False), (x, False)]
        wit = shallow_cube(word_of(4, spec), 2)
        _, ref = reference_cube_set_image(spec, 2)
        for p in wit.points:
            w = wit.word(p)
            assert len(w) <= len(spec)
            assert same_letters(w, ref[p]) and w.apply(2) == p


def _letter(g, inverted):
    return g.inverse() if inverted else g


def word_of(n, spec):
    """The word of (permutation, inverted) letters."""
    return Word(n, [_letter(g, inv) for g, inv in spec])


def _letter_images(g, inverted):
    """One letter's image tuple, inverted here from the permutation."""
    if not inverted:
        return g.images
    inv = [0] * len(g.images)
    for p, q in enumerate(g.images):
        inv[q] = p
    return tuple(inv)


def reference_cube_set_image(spec, root):
    """Dict-based expansion: point -> letters of its word from ``root``,
    first discovery wins, and every letter is applied."""
    entries = {root: ()}
    order = [root]
    for g, inverted in spec:
        images = _letter_images(g, inverted)
        for p in list(order):
            q = images[p]
            if q not in entries:
                entries[q] = entries[p] + (_letter(g, inverted),)
                order.append(q)
    return order, entries


def assert_matches_reference(n, spec, root):
    wit = shallow_cube(word_of(n, spec), root)
    ref_order, ref = reference_cube_set_image(spec, root)
    assert wit.points == ref_order
    for p in wit.points:
        assert same_letters(wit.word(p), ref[p])
        assert wit.word(p).apply(root) == p
    return wit.points


SMALL_SPECS = [
    "cyclic(6)", "dihedral(8)", "symmetric(4)", "alternating(5)",
    "wreath(cyclic(2),3)", "subsets(5,2)", "product(3,2)",
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cube_set_image_matches_dict_reference(data):
    name = data.draw(st.sampled_from(SMALL_SPECS))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    gens = relabel(build(parse_spec(name)), rng, extra=1)
    n = gens.degree
    elems = gens.generators
    letter = st.tuples(st.sampled_from(elems), st.booleans())
    spec = data.draw(st.lists(letter, max_size=8))
    root = data.draw(st.integers(0, n - 1))
    assert_matches_reference(n, spec, root)
    # n rounds of every generator saturate a transitive group's cube; the
    # letters after saturation must change nothing
    rounds = [(g, inv) for _ in range(n) for g in elems for inv in (False, True)]
    assert len(assert_matches_reference(n, rounds, root)) == n


def test_saturated_expansion_matches_reference(four):
    # all 4 points are held after two letters; the other three add nothing
    x, y = four
    spec = [(x, False), (y, False), (x, True), (y, False), (x, False)]
    assert sorted(assert_matches_reference(4, spec, 0)) == [0, 1, 2, 3]


def test_witness_map_rejects_unheld_points():
    wit = shallow_cube(Word(4, [perm(4, (0, 1))]), 0)
    assert 2 not in wit and -1 not in wit and 4 not in wit
    for p in (2, -1, 4):
        with pytest.raises(KeyError):
            wit.word(p)


class TestCubeInverseList:
    def test_empty(self):
        assert Word(3).inverse_word().letters == ()

    def test_reverses_and_inverts(self, four):
        x, y = four
        inv = Word(4, [x, y]).inverse_word()
        assert same_letters(inv, [y.inverse(), x.inverse()])
        assert same_letters(inv.inverse_word(), [x, y])  # the very same objects

    def test_involution_agrees(self):
        x = perm(4, (0, 1), (2, 3))
        assert Word(4, [x]).inverse_word().eval() == Word(4, [x]).eval()

    def test_cube_of_inverse_is_inverse_cube(self, four):
        xs = list(four)
        forward = enumerate_cube(xs)
        backward = enumerate_cube([p.inverse() for p in reversed(xs)])
        assert {g.inverse() for g in forward} == backward


class TestDeepCubeOrbit:
    def test_empty(self):
        pts, rmap = deep_cube_orbit(Word(4), 0)
        assert pts == [0] and len(rmap.word(0)) == 0

    def test_transposition(self):
        pts, _ = deep_cube_orbit(Word(2, [perm(2, (0, 1))]), 0)
        assert set(pts) == {0, 1}

    def test_four_cycle_brute_force(self, four):
        # oracle: images of 0 under all four products e, x, x^-1, x^-1 x
        x, _ = four
        oracle = {g.apply(0) for g in enumerate_cube([x.inverse(), x])}
        assert oracle == {0, 1, 3}
        pts, rmap = deep_cube_orbit(Word(4, [x]), 0)
        assert set(pts) == oracle
        for p in pts:
            w = rmap.word(p)
            assert len(w) <= 2 and w.apply(0) == p


@settings(max_examples=60)
@given(st.data())
def test_tracked_doubling_matches_brute_force(data):
    # grow a cube keeping |Delta| = 2^|X|; brute-force subset products must
    # then give exactly |Delta| distinct images of the root point
    n = data.draw(st.integers(4, 10))
    root = 0
    cube = []
    delta = {root}
    for _ in range(data.draw(st.integers(1, 3))):
        g = Permutation(data.draw(st.permutations(list(range(n)))))
        if {g.images[p] for p in delta}.isdisjoint(delta):
            cube.append(g)
            delta |= {g.images[p] for p in delta}
    assert len(delta) == 2 ** len(cube)
    images = {g.apply(root) for g in enumerate_cube(cube)}
    assert images == delta


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_deep_cube_orbit_matches_eager_reference(data):
    # deep_cube_orbit builds an inverse only past a few points; its points,
    # their order and every word must be those of the expansion over
    # X*^-1, X* with every inverse built, down to the letter objects
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    n = data.draw(st.integers(2, 40))
    xs = []
    for _ in range(data.draw(st.integers(1, 3))):  # one list X_i per level
        level = []
        for _ in range(data.draw(st.integers(1, 3))):
            images = list(range(n))
            rng.shuffle(images)
            level.append(Permutation(images))
        xs = level + xs  # X* = X_l, ..., X_1
    cached = data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
    for x, c in zip(xs, cached):
        if c:
            x.inverse()
    beta = data.draw(st.integers(0, n - 1))
    pts, rmap = deep_cube_orbit(Word(n, xs), beta)
    # an element without an inverse keeps none if its step met at most 4
    # points; the held sets are replayed here on inverted image tuples
    held = [beta]
    for x, c in zip(reversed(xs), reversed(cached)):
        if not c and len(held) <= 4:
            assert x._inv is None
        images = _letter_images(x, True)
        held += [q for q in dict.fromkeys(images[p] for p in held) if q not in held]
    spec = [(x, True) for x in reversed(xs)] + [(x, False) for x in xs]
    ref_order, ref = reference_cube_set_image(spec, beta)
    assert pts == rmap.points == ref_order
    for p in pts:
        assert same_letters(rmap.word(p), ref[p])
        assert rmap.word(p).apply(beta) == p


def test_deep_cube_orbit_inverts_on_word_access():
    # beta's first two deep-cube steps map 1 and 2 points through inverses
    # not yet built: the links record the elements, and a word through
    # such a link holds the inverse the element caches from then on
    x, y = perm(8, tuple(range(8))), perm(8, (0, 2, 4, 6), (1, 3, 5, 7))
    pts, rmap = deep_cube_orbit(Word(8, [x, y]), 0)
    assert x._inv is None and y._inv is None
    assert pts[:4] == [0, 6, 7, 5]  # y^-1, then x^-1
    w = rmap.word(5)
    assert x._inv is not None and y._inv is not None  # built by the word
    assert same_letters(w, [y.inverse(), x.inverse()])
    assert same_letters(rmap.word(5), w.letters)
