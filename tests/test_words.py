import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksift.corpus import build, parse_spec
from blocksift.perm import Permutation
from blocksift.words import Atom, ElementStore, Word, cube_set_image, deep_cube_orbit
from conftest import enumerate_cube, perm, relabel


@pytest.fixture
def store4():
    s = ElementStore(4)
    x = s.add(perm(4, (0, 1, 2, 3)))
    y = s.add(perm(4, (0, 2), (1, 3)))
    return s, x, y


class TestWordApply:
    def test_empty_is_identity(self):
        s = ElementStore(8)
        assert Word(s).apply(7) == 7

    def test_square_of_cycle(self, store4):
        s, x, _ = store4
        w = Word(s, [Atom(x), Atom(x)])
        assert w.apply(0) == 2

    def test_inverted_atom(self, store4):
        s, x, _ = store4
        assert Word(s, [Atom(x, inverted=True)]).apply(0) == 3


    def test_letters_must_name_stored_elements(self, store4):
        s, *_ = store4
        with pytest.raises(ValueError):
            Atom(-1)
        with pytest.raises(IndexError):
            Word(s, [Atom(2)]).apply(0)
        with pytest.raises(IndexError):
            Word(s, [Atom(2, inverted=True)]).eval()


class TestWordEval:
    def test_empty(self):
        s = ElementStore(3)
        assert Word(s).eval().is_identity()

    def test_singleton(self, store4):
        s, x, _ = store4
        assert Word(s, [Atom(x)]).eval() == s.perm(x)

    def test_cancellation(self, store4):
        s, x, _ = store4
        assert Word(s, [Atom(x), Atom(x, True)]).eval().is_identity()

    @given(st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=6))
    def test_matches_pointwise_apply(self, spec):
        s = ElementStore(4)
        s.add(perm(4, (0, 1, 2, 3)))
        s.add(perm(4, (1, 3)))
        w = Word(s, [Atom(i, inv) for i, inv in spec])
        g = w.eval()
        assert all(w.apply(p) == g.apply(p) for p in range(4))


class TestCubeSetImage:
    def test_empty_cube(self):
        s = ElementStore(5)
        pts, wit = cube_set_image(Word(s), [3])
        assert pts == [3]
        assert len(wit.word(3)) == 0 and wit.word(3).apply(3) == 3

    def test_single_factor(self, store4):
        s, x, _ = store4
        pts, wit = cube_set_image(Word(s, [Atom(x)]), [0])
        assert set(pts) == {0, 1}
        assert wit.word(1).atoms == (Atom(x),) and wit.word(1).apply(0) == 1

    def test_two_factors_cover(self, store4):
        s, x, y = store4
        pts, _ = cube_set_image(Word(s, [Atom(x), Atom(y)]), [0])
        assert set(pts) == {0, 1, 2, 3}

    def test_empty_delta_rejected(self, store4):
        s, *_ = store4
        with pytest.raises(ValueError):
            cube_set_image(Word(s), [])

    def test_witness_contract(self, store4):
        # every output point: word over an index-ordered subsequence of X,
        # length <= |X|, mapping its source point to it
        s, x, y = store4
        cube = Word(s, [Atom(x), Atom(y), Atom(x)])
        pts, wit = cube_set_image(cube, [0, 2])
        _, ref = reference_cube_set_image(s, cube.atoms, [0, 2])
        for p in pts:
            src, letters = ref[p]
            w = wit.word(p)
            assert src in (0, 2)
            assert len(w) <= len(cube)
            assert w.atoms == letters and w.apply(src) == p


def _letter_images(store, atom):
    """One letter's image tuple, inverted here from the stored permutation."""
    images = store.perm(atom.elem).images
    if not atom.inverted:
        return images
    inv = [0] * len(images)
    for p, q in enumerate(images):
        inv[q] = p
    return tuple(inv)


def reference_cube_set_image(store, atoms, delta):
    """Dict-based expansion: point -> (source, letters), first discovery
    wins, and every letter is applied (no stop at saturation)."""
    entries = {}
    for p in delta:
        entries.setdefault(p, (p, ()))
    order = list(entries)
    for atom in atoms:
        images = _letter_images(store, atom)
        for p in list(order):
            q = images[p]
            if q not in entries:
                src, letters = entries[p]
                entries[q] = (src, letters + (atom,))
                order.append(q)
    return order, entries


def assert_matches_reference(store, atoms, delta):
    pts, wit = cube_set_image(Word(store, atoms), delta)
    ref_order, ref = reference_cube_set_image(store, atoms, delta)
    assert pts == ref_order
    assert wit.points == ref_order and len(wit.points) == len(ref)
    for p in pts:
        src, letters = ref[p]
        assert wit.word(p).atoms == letters
        assert wit.word(p).apply(src) == p
    return pts


SMALL_SPECS = [
    "cyclic(6)", "dihedral(8)", "symmetric(4)", "alternating(5)",
    "wreath(cyclic(2),3)", "subsets(5,2)", "product(3,2)",
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cube_set_image_matches_dict_reference(data):
    spec = data.draw(st.sampled_from(SMALL_SPECS))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    gens = relabel(build(parse_spec(spec)), rng, extra=1)
    n = gens.degree
    store = ElementStore(n)
    elems = [store.add(g) for g in gens.generators]
    letter = st.builds(Atom, st.sampled_from(elems), st.booleans())
    atoms = data.draw(st.lists(letter, max_size=8))
    delta = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    assert_matches_reference(store, atoms, delta)
    # n rounds of every generator saturate a transitive group's cube; the
    # letters after saturation must change nothing
    rounds = [Atom(e, inv) for _ in range(n) for e in elems for inv in (False, True)]
    assert len(assert_matches_reference(store, rounds, delta)) == n


def test_saturated_expansion_matches_reference():
    # all 4 points are held after two letters; the other three add nothing
    s = ElementStore(4)
    x = s.add(perm(4, (0, 1, 2, 3)))
    y = s.add(perm(4, (0, 2), (1, 3)))
    atoms = [Atom(x), Atom(y), Atom(x, True), Atom(y), Atom(x)]
    assert sorted(assert_matches_reference(s, atoms, [0])) == [0, 1, 2, 3]


def test_witness_map_rejects_unheld_points():
    s = ElementStore(4)
    x = s.add(perm(4, (0, 1)))
    _, wit = cube_set_image(Word(s, [Atom(x)]), [0])
    assert 2 not in wit and -1 not in wit and 4 not in wit
    for p in (2, -1, 4):
        with pytest.raises(KeyError):
            wit.word(p)


class TestCubeInverseList:
    def test_empty(self):
        s = ElementStore(3)
        assert Word(s).inverse_word().atoms == ()

    def test_reverses_and_inverts(self, store4):
        s, x, y = store4
        inv = Word(s, [Atom(x), Atom(y)]).inverse_word()
        assert inv.atoms == (Atom(y, True), Atom(x, True))

    def test_involution_agrees(self):
        s = ElementStore(4)
        x = s.add(perm(4, (0, 1), (2, 3)))
        inv = Word(s, [Atom(x)]).inverse_word()
        assert inv.eval() == Word(s, [Atom(x)]).eval()

    def test_cube_of_inverse_is_inverse_cube(self, store4):
        s, x, y = store4
        xs = [s.perm(x), s.perm(y)]
        forward = enumerate_cube(xs)
        backward = enumerate_cube([p.inverse() for p in reversed(xs)])
        assert {g.inverse() for g in forward} == backward


class TestDeepCubeOrbit:
    def test_empty(self):
        s = ElementStore(4)
        pts, rmap = deep_cube_orbit(Word(s), 0)
        assert pts == [0] and len(rmap.word(0)) == 0

    def test_transposition(self):
        s = ElementStore(2)
        x = s.add(perm(2, (0, 1)))
        pts, _ = deep_cube_orbit(Word(s, [Atom(x)]), 0)
        assert set(pts) == {0, 1}

    def test_four_cycle_brute_force(self, store4):
        # oracle: images of 0 under all four products e, x, x^-1, x^-1 x
        s, x, _ = store4
        oracle = {g.apply(0) for g in enumerate_cube([s.perm(x).inverse(), s.perm(x)])}
        assert oracle == {0, 1, 3}
        pts, rmap = deep_cube_orbit(Word(s, [Atom(x)]), 0)
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
    s = ElementStore(n)
    cube_atoms = []
    delta = {root}
    for _ in range(data.draw(st.integers(1, 3))):
        g = Permutation(data.draw(st.permutations(list(range(n)))))
        if {g.images[p] for p in delta}.isdisjoint(delta):
            idx = s.add(g)
            cube_atoms.append(Atom(idx))
            delta |= {g.images[p] for p in delta}
    assert len(delta) == 2 ** len(cube_atoms)
    images = {g.apply(root) for g in enumerate_cube([s.perm(a.elem) for a in cube_atoms])}
    assert images == delta
