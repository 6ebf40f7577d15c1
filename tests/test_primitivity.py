import hashlib
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksift.blocks import atkinson_baseline, minimal_block, validate_block_system
from blocksift.cli import cli_main
from blocksift.corpus import build, parse_spec
from blocksift.ioformats import emit_generators
from blocksift import primitivity
from blocksift.perm import GeneratorSet, Orbits, Permutation, orbit
from blocksift.primitivity import (
    Diagnostics,
    find_blocks_from_certificate,
    primitivity_main,
    primitivity_subquadratic,
    ss_primitivity,
    ss_uncapped,
)
from blocksift.sift import Certificate, SiftState
from blocksift.transversal import build_point_transversal, build_scoped_transversal
from blocksift.words import Word
from conftest import dump_state, perm, reference_orbit, relabel


A5 = GeneratorSet(5, [perm(5, (0, 1, 2, 3, 4)), perm(5, (0, 1, 2))])
C4 = GeneratorSet(4, [perm(4, (0, 1, 2, 3))])
C6 = GeneratorSet(6, [perm(6, (0, 1, 2, 3, 4, 5))])
D4 = GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))])
S3 = GeneratorSet(3, [perm(3, (0, 1)), perm(3, (1, 2))])
S4 = GeneratorSet(4, [perm(4, (0, 1, 2, 3)), perm(4, (0, 1))])


class TestSSPrimitivity:
    def test_a5_primitive(self):
        assert ss_primitivity(A5, 35).kind == "primitive"

    def test_c6_blocks(self):
        v = ss_primitivity(C6, 20)
        assert v.kind == "blocks"
        assert v.blocks.nontrivial and validate_block_system(C6, v.blocks)

    def test_s4_cap_one_partial_base(self):
        v = ss_primitivity(build(parse_spec("symmetric(4)")), 1)
        assert v.kind == "partial_base"
        assert v.certificate.entries == [(0, perm(4, (0, 1))), (1, perm(4, (1, 2, 3)))]
        # at prime degree no base is built: the cap cannot be reached
        v = ss_primitivity(S3, 1)
        assert v.kind == "primitive" and v.certificate is None

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            ss_primitivity(GeneratorSet(3, [perm(3, (0, 1))]), 5)  # intransitive
        one = GeneratorSet(1, [perm(1)])
        with pytest.raises(ValueError):
            ss_primitivity(one, 0)  # the cap is checked at every degree
        for cap in (1, 2, 3):  # degree 1 is decided like a prime degree
            v = ss_primitivity(one, cap)
            assert v.kind == "primitive" and v.diagnostics == Diagnostics()

    def test_primitive_implies_all_minimal_blocks_full(self):
        for gens in (A5, S4, S3):
            assert ss_primitivity(gens, gens.degree).kind == "primitive"
            for lam in range(1, gens.degree):
                assert minimal_block(gens, {0, lam}) == set(range(gens.degree))


class TestFindBlocksFromCertificate:
    def test_d4_second_entry_wins(self):
        cert = Certificate([(0, perm(4, (0, 1, 2, 3))), (1, perm(4, (1, 3)))])
        bs = find_blocks_from_certificate(D4, cert)
        assert bs is not None
        assert sorted(map(tuple, bs.blocks)) == [(0, 2), (1, 3)]

    def test_s3_always_none(self):
        cert = Certificate([(0, perm(3, (0, 1))), (1, perm(3, (1, 2)))])
        assert find_blocks_from_certificate(S3, cert) is None

    def test_c4_single_entry_exhausted(self):
        cert = Certificate([(0, perm(4, (0, 1, 2, 3)))])
        assert find_blocks_from_certificate(C4, cert) is None

    def test_invalid_certificate_rejected(self):
        bad = Certificate([(0, perm(3, (1, 2)))])  # entry fixes its point
        with pytest.raises(ValueError):
            find_blocks_from_certificate(S3, bad)

    def test_entries_off_the_points_rejected(self):
        # the seed pairs are closed unchecked, so the entries are checked
        # against the degree first
        for bad in (
            Certificate([(0, perm(4, (0, 1)))]),  # another degree
            Certificate([(-1, perm(3, (0, 2)))]),  # would index from the end
        ):
            with pytest.raises(ValueError, match="does not act"):
                find_blocks_from_certificate(S3, bad)


class TestCappedDrivers:
    def test_main_c6_blocks(self):
        v = primitivity_main(C6)
        assert v.kind == "blocks" and validate_block_system(C6, v.blocks)

    def test_main_a5_primitive(self):
        assert primitivity_main(A5).kind == "primitive"

    def test_main_a8_wreath_completes_under_cap(self):
        gens = build(parse_spec("wreath(alternating(8),2)"))
        v = primitivity_main(gens)
        assert v.kind == "blocks" and validate_block_system(gens, v.blocks)

    def test_subquadratic_small(self):
        assert primitivity_subquadratic(C6).kind == "blocks"
        assert primitivity_subquadratic(A5).kind == "primitive"

    def test_subquadratic_a64_wreath(self):
        gens = build(parse_spec("wreath(alternating(64),2)"))
        v = primitivity_subquadratic(gens)
        assert v.kind == "blocks" and validate_block_system(gens, v.blocks)

    def test_wreath_c2_c2(self):
        gens = build(parse_spec("wreath(cyclic(2),2)"))
        v = primitivity_main(gens)
        assert v.kind == "blocks"
        assert sorted(map(tuple, v.blocks.blocks)) == [(0, 1), (2, 3)]

    def test_degree_one_primitive_by_convention(self):
        assert primitivity_main(GeneratorSet(1, [perm(1)])).kind == "primitive"


class TestUncapped:
    def test_s4_primitive(self):
        assert ss_uncapped(S4).kind == "primitive"

    def test_d4_blocks(self):
        v = ss_uncapped(D4)
        assert v.kind == "blocks" and validate_block_system(D4, v.blocks)

    def test_matches_baseline_on_small_corpus(self, small_corpus):
        for entry in small_corpus:
            oracle = atkinson_baseline(entry.gens)
            v = ss_uncapped(entry.gens)
            assert (v.kind == "primitive") == (oracle is None), entry.name
            if v.kind == "blocks":
                assert validate_block_system(entry.gens, v.blocks), entry.name


class TestForcedCapFallback:
    def test_tiny_cap_on_wreath_recovers_blocks(self):
        gens = build(parse_spec("wreath(alternating(64),2)"))
        v = ss_primitivity(gens, 2)
        assert v.kind == "partial_base"
        assert len(v.certificate) == 3
        bs = find_blocks_from_certificate(gens, v.certificate)
        assert bs is not None and validate_block_system(gens, bs)
        assert len(bs.blocks) == 2 and len(bs.blocks[0]) == 64


def _route_and_verdict(monkeypatch, gens, cap):
    """ss_primitivity at ``cap``, with the route that capped the state:
    the point transversal, a scoped transversal, or else an H-update sift."""
    routes = []
    real_point = primitivity.build_point_transversal
    real_scoped = primitivity.build_scoped_transversal

    def point(*args):
        state, rmap = real_point(*args)
        if rmap is None:
            routes.append("point")
        return state, rmap

    def scoped(*args):
        rmap = real_scoped(*args)
        if rmap is None:
            routes.append("scoped")
        return rmap

    monkeypatch.setattr(primitivity, "build_point_transversal", point)
    monkeypatch.setattr(primitivity, "build_scoped_transversal", scoped)
    v = ss_primitivity(gens, cap)
    return (routes or ["h_update"])[0], v


class TestPartialBaseExit:
    # Every capped route leaves the loop for the one partial-base exit. The
    # relabelling seeds are the first in 0..399 under which a scoped
    # transversal passes the cap, and for subsets(12,2) also the first under
    # which it does so after an H-update, with merged H-orbit cells. The
    # expected diagnostics were recorded from the driver that returned from
    # each route separately.

    @pytest.mark.parametrize(
        "make,cap,route,base,diag",
        [
            pytest.param(
                lambda: build(parse_spec("symmetric(4)")), 1, "point", [0, 1],
                (1, 0, 0, 0, 0, 0, 2, []), id="S4-point",
            ),
            pytest.param(
                lambda: build(parse_spec("subsets(6,2)")), 3, "h_update", [0, 1, 6, 3],
                (4, 0, 1, 1, 0, 0, 5, []), id="subsets(6,2)-h_update",
            ),
            pytest.param(
                lambda: relabel(build(parse_spec("subsets(9,3)")), random.Random(59)),
                2, "scoped", [0, 1, 4],
                (6, 0, 5, 1, 4, 0, 7, []), id="subsets(9,3)-59-scoped",
            ),
            pytest.param(
                lambda: relabel(build(parse_spec("subsets(12,2)")), random.Random(13)),
                3, "scoped", [0, 4, 6, 1],
                (8, 0, 3, 1, 4, 0, 8, []), id="subsets(12,2)-13-scoped",
            ),
            pytest.param(
                lambda: relabel(build(parse_spec("subsets(12,2)")), random.Random(25)),
                3, "scoped", [0, 1, 2, 5],
                (7, 1, 16, 2, 4, 0, 8, [[2, 3]]), id="subsets(12,2)-25-scoped-after-h_update",
            ),
        ],
    )
    def test_route_ends_in_certified_partial_base(
        self, monkeypatch, make, cap, route, base, diag
    ):
        gens = make()
        got, v = _route_and_verdict(monkeypatch, gens, cap)
        assert got == route
        assert v.kind == "partial_base" and v.blocks is None
        assert len(v.certificate) == cap + 1 and v.certificate.validate()
        assert [beta for beta, _ in v.certificate.entries] == base
        keys = ("sifts", "h_updates", "candidates_closed", "candidates_tested",
                "early_tries", "early_tests", "sum_xi", "h_update_growth")
        assert v.diagnostics.as_dict() == dict(zip(keys, diag))

    def test_prime_degree_never_reaches_the_exit(self):
        # no base is built at prime degree, so no capped route exists
        v = ss_primitivity(S3, 1)
        assert v.kind == "primitive" and v.certificate is None


class TestDiagnostics:
    def test_counters_populated(self):
        v = ss_uncapped(D4)
        d = v.diagnostics
        assert d.sifts > 0 and d.sum_xi > 0
        assert set(d.as_dict()) == {
            "sifts",
            "h_updates",
            "candidates_closed",
            "candidates_tested",
            "early_tries",
            "early_tests",
            "sum_xi",
            "h_update_growth",
        }

    def test_as_dict_keys_in_cli_order(self, capsys, monkeypatch):
        keys = ["sifts", "h_updates", "candidates_closed", "candidates_tested",
                "early_tries", "early_tests", "sum_xi", "h_update_growth"]
        assert list(Diagnostics().as_dict()) == keys
        assert list(ss_uncapped(D4).diagnostics.as_dict()) == keys
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_generators(D4)))
        assert cli_main(["primitive", "--uncapped"]) == 0
        assert list(json.loads(capsys.readouterr().out)["diagnostics"]) == keys

    def test_as_dict_copies_the_growth_pairs(self):
        d = Diagnostics(sifts=3, h_updates=1, h_update_growth=[[1, 2]])
        out = d.as_dict()
        out["h_update_growth"][0].append(9)
        out["h_update_growth"].append([3, 4])
        assert d.h_update_growth == [[1, 2]]
        assert d == Diagnostics(sifts=3, h_updates=1, h_update_growth=[[1, 2]])
        assert d != Diagnostics(sifts=3, h_updates=1, h_update_growth=[[1, 3]])
        assert d != Diagnostics(sifts=3, h_update_growth=[[1, 2]])
        assert Diagnostics() == Diagnostics() and Diagnostics() != Diagnostics().as_dict()

    def test_h_update_accounting(self, small_corpus):
        # every H-update strictly grew the deep part of the data structure,
        # and there can be at most sum |X_i| of them in total
        for entry in small_corpus:
            v = ss_uncapped(entry.gens)
            d = v.diagnostics
            assert d.h_updates == len(d.h_update_growth), entry.name
            assert d.h_updates <= d.sum_xi, entry.name
            for before, after in d.h_update_growth:
                assert after > before, entry.name


DRIVERS = (primitivity_main, primitivity_subquadratic, ss_uncapped)


class TestCandidateSizeBound:
    # A candidate larger than n/p (p the smallest prime factor of n) is
    # skipped unclosed; these groups run on both sides of that bound.

    @pytest.mark.parametrize("extra", [0, 2])
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 61, 127, 257, 397])
    @pytest.mark.parametrize("family", ["cyclic", "dihedral", "symmetric", "alternating"])
    def test_prime_degree_primitive_without_blockness_tests(
        self, capsys, monkeypatch, family, p, extra
    ):
        gens = relabel(build(parse_spec(f"{family}({p})")), random.Random(p + extra), extra)
        assert atkinson_baseline(gens) is None
        # n/p = 1, so the size filter would empty the scan whatever H is:
        # every entry point answers before the point transversal, and a
        # cap, however small, is never reached
        built, closures = [], []
        real = primitivity.build_point_transversal
        monkeypatch.setattr(
            primitivity, "build_point_transversal", lambda *a: built.append(a) or real(*a)
        )
        monkeypatch.setattr(
            primitivity, "orbit", lambda *args: closures.append(args) or orbit(*args)
        )
        for driver in DRIVERS:
            v = driver(gens)
            assert v.kind == "primitive" and v.certificate is None, driver.__name__
            assert v.diagnostics.as_dict() == Diagnostics().as_dict(), driver.__name__
        for cap in ("1", "2", "3"):
            monkeypatch.setattr("sys.stdin", io.StringIO(emit_generators(gens)))
            assert cli_main(["primitive", "--cap", cap]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["verdict"] == "primitive" and doc["certificate"] is None, cap
        assert built == [] and closures == []

    @pytest.mark.parametrize("extra", [0, 2])
    @pytest.mark.parametrize(
        "spec",
        [
            "dihedral(22)",
            "cyclic(26)",
            "cyclic(33)",
            "dihedral(39)",
            "wreath(cyclic(7),3)",
            "wreath(cyclic(3),5)",
            "cyclic(49)",
            "dihedral(121)",
            "wreath(cyclic(11),11)",
            "subsets(6,2)",
            "subsets(7,2)",
            "product(5,2)",
        ],
    )
    def test_composite_degree_matches_oracle(self, spec, extra):
        gens = relabel(build(parse_spec(spec)), random.Random(len(spec) + extra), extra)
        oracle = atkinson_baseline(gens)
        for driver in DRIVERS:
            v = driver(gens)
            assert (v.kind == "primitive") == (oracle is None), (spec, driver.__name__)
            if v.kind == "blocks":
                assert v.blocks.nontrivial and validate_block_system(gens, v.blocks)

    @pytest.mark.parametrize(
        "spec,seed,routes",
        [
            pytest.param(spec, seed, routes, id=f"{spec}-{seed}")
            for spec, seed, routes in [
                ("alternating(6)", 200, {"closed"}),
                ("subsets(8,2)", 200, {"closed"}),
                ("m24", 100, {"closed"}),
                ("symmetric(12)", 100, {"closed"}),
                ("subsets(6,2)", 25, {"closed", "dropped", "passed"}),
                ("subsets(7,2)", 11, {"closed", "dropped"}),
            ]
        ],
    )
    def test_skipped_candidates_lie_in_no_proper_block(self, monkeypatch, spec, seed, routes):
        # A candidate is skipped on one of three routes: its H-orbit alone
        # holds n/p or more points and it is dropped unclosed, its closure
        # passes n/p, or its closure passed n/p in an earlier round and it
        # is not closed again. These relabellings give skipped candidates
        # with n/p < |alpha^<H, r_lam>| < n on the routes listed.
        gens = relabel(build(parse_spec(spec)), random.Random(seed))
        n = gens.degree
        omega = set(range(n))
        dmax = primitivity._largest_proper_divisor(n)
        transversals = []
        # one per scan round: the generators of H, its orbits (None while H
        # is trivial) and (lam, passed n/p) per candidate closed
        rounds = []
        skipped = []  # (route, size of the whole candidate orbit)

        def recording_transversal(*args):
            transversals.append(build_point_transversal(*args))
            rounds.append(([], None, []))  # the scan starts with H as built
            return transversals[-1]

        # a round's H-orbits are built once H is nontrivial, then joined
        # along each round's new elements of H; both start a round
        def recording_orbits(degree, hgens):
            rounds.append((list(hgens), Orbits(degree, hgens), []))
            return rounds[-1][1]

        def recording_merged(cells, added):
            (hgens,) = [h for h, c, _ in rounds if c is cells]
            rounds.append((hgens + list(added), real_merged(cells, added), []))
            return rounds[-1][1]

        real_merged = Orbits.merged

        def checked_orbit(r, start, limit, cells=None):
            delta = orbit(r, start, limit, cells)
            lam = r.apply(start)
            if rounds:  # not a try during the build
                rounds[-1][2].append((lam, len(delta) > limit))
            if len(delta) > limit:
                assert minimal_block(gens, [start, lam]) == omega
                skipped.append(("closed", len(orbit(r, start, n, cells))))
            return delta

        monkeypatch.setattr(primitivity, "build_point_transversal", recording_transversal)
        monkeypatch.setattr(primitivity, "Orbits", recording_orbits)
        monkeypatch.setattr(Orbits, "merged", recording_merged)
        monkeypatch.setattr(primitivity, "orbit", checked_orbit)
        for driver in (primitivity_main, ss_uncapped):
            transversals.clear()
            rounds.clear()
            assert driver(gens).kind == "primitive"
            ((_, rmap),) = transversals
            alpha = rmap.points[0]
            passed = set()  # lam whose closure passed n/p in an earlier round
            for hgens, horbits, closed in rounds:
                size = horbits.size if horbits else [1] * n
                # the round closes the representatives not passed before, by
                # orbit size and then least point, until a test fails
                order = sorted(
                    (lam for lam in range(n)
                     if lam != alpha and 0 < size[lam] < dmax and lam not in passed),
                    key=lambda lam: (size[lam], lam),
                )
                assert [lam for lam, _ in closed] == order[:len(closed)]
                for lam in range(n):
                    # size is 0 off the least point of each H-orbit
                    if lam == alpha or not size[lam]:
                        continue
                    if size[lam] >= dmax:
                        assert minimal_block(gens, [alpha, lam]) == omega
                        full = reference_orbit(hgens + [rmap.word(lam).eval()], alpha)
                        skipped.append(("dropped", len(full)))
                    elif lam in passed:
                        # skipped unclosed: under this round's H it still passes
                        r = rmap.word(lam).eval()
                        assert len(orbit(r, alpha, dmax, horbits)) > dmax
                        assert minimal_block(gens, [alpha, lam]) == omega
                        full = reference_orbit(hgens + [r], alpha)
                        skipped.append(("passed", len(full)))
                passed |= {lam for lam, past in closed if past}
        assert routes <= {route for route, size in skipped if size < n}


def test_h_update_growth_exported(full_corpus):
    updated = 0
    for entry in full_corpus:
        doc = primitivity_main(entry.gens).diagnostics.as_dict()
        growth = doc["h_update_growth"]
        assert len(growth) == doc["h_updates"], entry.name
        for before, after in growth:
            assert after > before, entry.name
        updated += bool(growth)
    assert updated >= 3


CELL_SPECS = [
    "symmetric(5)", "alternating(6)", "dihedral(12)", "subsets(6,2)",
    "product(3,2)", "wreath(cyclic(3),3)", "wreath(symmetric(3),2)", "m24",
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cell_closure_matches_plain_closure(data):
    # H from a real sift state: the levels below the first, which fix alpha
    spec = data.draw(st.sampled_from(CELL_SPECS))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    gens = relabel(build(parse_spec(spec)), rng, data.draw(st.integers(0, 1)))
    n = gens.degree
    alpha = data.draw(st.integers(0, n - 1))
    state, rmap = build_point_transversal(gens, alpha, n)
    hgens = state.deep_element_perms()
    cells = Orbits(n, hgens)
    r = rmap.word(data.draw(st.sampled_from(rmap.points))).eval()
    start = data.draw(st.sampled_from([alpha, rng.randrange(n)]))
    limit = data.draw(st.integers(1, n))
    full = reference_orbit(hgens + [r], start)
    got = orbit(r, start, limit, cells)
    assert len(set(got)) == len(got) and set(got) <= set(full)
    if len(full) <= limit:
        assert sorted(got) == sorted(full)
    else:
        assert len(got) > limit


@pytest.mark.parametrize("spec", ["cyclic(16)", "wreath(symmetric(3),3)", "subsets(6,2)"])
def test_candidates_close_over_evaluated_r(monkeypatch, spec):
    # Each candidate's r-word is evaluated once: the closure and the scoped
    # transversal get the same Permutation, and no word acts point by point.
    gens = relabel(build(parse_spec(spec)), random.Random(spec), 1)
    applied = []
    closed = []  # the permutation each candidate closure walks
    scoped = []  # (r passed in, r of the closure before it)
    word_apply = Word.apply

    def counting_apply(self, p):
        applied.append(p)
        return word_apply(self, p)

    def recording_orbit(r, start, limit, cells=None):
        closed.append(r)
        return orbit(r, start, limit, cells)

    def recording_scoped(state, r, targets):
        scoped.append((r, closed[-1]))
        return build_scoped_transversal(state, r, targets)

    monkeypatch.setattr(Word, "apply", counting_apply)
    monkeypatch.setattr(primitivity, "orbit", recording_orbit)
    monkeypatch.setattr(primitivity, "build_scoped_transversal", recording_scoped)
    for driver in (
        primitivity_main,
        ss_uncapped,
        lambda g: primitivity._capped_driver(g, 2, "partial_base"),
    ):
        driver(gens)
    assert applied == []
    assert closed and all(type(r) is Permutation for r in closed)
    for r, last_closed in scoped:
        assert type(r) is Permutation and r is last_closed
    if spec == "subsets(6,2)":
        assert scoped  # failed blockness tests reach the scoped transversal


def test_scoped_transversal_stops_at_the_witness_points(monkeypatch, full_corpus):
    # An H-update g = s g1 t^-1 reads two words of the scoped map, s and t,
    # taking alpha to the witness points beta and gamma, so the scoped build
    # stops once its map holds both. s and t lie in K = <H, r>, and g1 does
    # not, since it moves the K-invariant candidate alpha^K; so g lies
    # outside K and H, and each H-update still grows the deep levels.
    live = []  # per running scoped call: [targets, current map, first level]
    stats = {"calls": 0, "stopped": 0}
    real_orbit, real_sift = SiftState.level_deep_orbit, SiftState.deep_sift

    def recording_orbit(self, i):
        points, rmap = real_orbit(self, i)
        if live and i == 1:
            live[-1][1:] = [rmap, self.levels[0]]
        return points, rmap

    def checked_sift(self, g):
        if live:
            targets, rmap, _ = live[-1]
            assert not all(t in rmap for t in targets), "a sift ran after the targets were held"
        return real_sift(self, g)

    def recording_scoped(state, r, targets):
        alpha = state.levels[0].beta
        live.append([targets, None, None])
        try:
            scoped = build_scoped_transversal(state, r, targets)
        finally:
            _, _, swapped = live.pop()
        if scoped is None:
            return None
        stats["calls"] += 1
        korbit = reference_orbit([r] + state.deep_element_perms(), alpha)
        stats["stopped"] += len(scoped.points) < len(korbit)
        # letters: r and what the swapped-in first level appended, the
        # elements of the levels below the first, and the inverses they cache
        assert swapped.elems[0] is r
        elems = swapped.elems + state.deep_element_perms()
        assert all(p in scoped for p in targets)
        for p in targets:
            word = scoped.word(p)
            assert word.eval().images[alpha] == p
            assert all(any(x is e or x is e._inv for e in elems) for x in word.letters)
        return scoped

    monkeypatch.setattr(SiftState, "level_deep_orbit", recording_orbit)
    monkeypatch.setattr(SiftState, "deep_sift", checked_sift)
    monkeypatch.setattr(primitivity, "build_scoped_transversal", recording_scoped)
    for entry in full_corpus:
        for extra in (None, 0, 2):
            gens = entry.gens if extra is None else relabel(
                entry.gens, random.Random(f"{entry.name}/{extra}"), extra
            )
            for driver in DRIVERS:
                d = driver(gens).diagnostics
                assert len(d.h_update_growth) == d.h_updates
                assert all(after > before for before, after in d.h_update_growth)
    # the stop is reached before the whole K-orbit in some calls
    assert stats["calls"] and stats["stopped"], stats


def test_primitive_counters_pinned(full_corpus):
    # Tries during the build change no state when they miss, so every
    # primitive verdict keeps the sifts, H-updates and scan counts of the
    # driver without them. The digest was recorded from that driver, over
    # the corpus and one relabelled copy of each group with two extra
    # generators.
    rows = []
    for entry in full_corpus:
        for copy in range(2):
            gens = entry.gens if copy == 0 else relabel(entry.gens, random.Random(entry.name), 2)
            for driver in DRIVERS:
                v = driver(gens)
                if v.kind == "primitive":
                    d = v.diagnostics
                    rows.append([entry.name, copy, driver.__name__, d.sifts, d.h_updates,
                                 d.candidates_closed, d.candidates_tested])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert len(rows) == 162
    assert digest == "06325c2946a05f6cceebb36665cfdf6a80a7e5816ac26c150f1457f7e3d975cc"


DIFFERENTIAL_CAPS = 4
DIFFERENTIAL_FAMILIES = {
    "cyclic": [f"cyclic({2 ** k})" for k in range(2, 10)],
    "dihedral": [f"dihedral({2 ** k})" for k in range(2, 10)],
    "wreath": [
        "wreath(cyclic(2),2)", "wreath(cyclic(3),2)", "wreath(cyclic(2),8)",
        "wreath(symmetric(3),3)", "wreath(symmetric(4),2)", "wreath(dihedral(4),4)",
        "wreath(alternating(5),2)", "wreath(cyclic(16),4)",
    ],
    "primitive": [
        "symmetric(6)", "alternating(7)", "subsets(7,2)", "subsets(10,2)",
        "product(3,2)", "cyclic(31)", "dihedral(37)", "m24",
    ],
}


@pytest.mark.parametrize("family", sorted(DIFFERENTIAL_FAMILIES))
def test_entry_points_match_the_baseline(family):
    # Relabelled groups with two extra random-word generators, decided by
    # every entry point and at caps 1..DIFFERENTIAL_CAPS by the capped loop
    # alone and with the certificate fallback.
    from_build = 0
    for spec in DIFFERENTIAL_FAMILIES[family]:
        for seed in range(3):
            gens = relabel(build(parse_spec(spec)), random.Random(f"{spec}/{seed}"), 2)
            oracle = atkinson_baseline(gens)
            runs = [(driver.__name__, driver(gens)) for driver in DRIVERS]
            for cap in range(1, DIFFERENTIAL_CAPS + 1):
                runs.append((f"ss_primitivity/{cap}", ss_primitivity(gens, cap)))
                runs.append(
                    (f"capped/{cap}", primitivity._capped_driver(gens, cap, "partial_base"))
                )
            for name, v in runs:
                where = (spec, seed, name)
                if v.kind == "partial_base":
                    assert "/" in name and v.certificate.validate(), where
                    continue
                assert (v.kind == "primitive") == (oracle is None), where
                d = v.diagnostics
                if v.kind == "blocks":
                    assert v.blocks.nontrivial, where
                    assert validate_block_system(gens, v.blocks), where
                    from_build += d.early_tests > 0 and d.candidates_tested == 0
                else:
                    assert d.early_tests <= d.early_tries, where
    if family in ("cyclic", "dihedral"):
        assert from_build > 0


def test_verdicts_invariant_under_labels_and_generator_order(full_corpus):
    # primitivity is a property of the group: a relabelled copy, or the same
    # generators in reversed or rotated order, must get the baseline's kind
    # from every driver and at caps 1..3, each blocks verdict a valid system
    # of its own copy; a capped run may only escape with a valid certificate
    checked = 0
    for entry in full_corpus:
        if entry.gens.degree > 128:
            continue
        gens = entry.gens
        primitive = atkinson_baseline(gens) is None
        rng = random.Random(entry.name)
        copies = []
        for copy in (gens, relabel(gens, rng), relabel(gens, rng, 1)):
            order = copy.generators
            copies += [copy, GeneratorSet(copy.degree, order[::-1]),
                       GeneratorSet(copy.degree, order[1:] + order[:1])]
        for copy in copies:
            assert (atkinson_baseline(copy) is None) == primitive, entry.name
            runs = [primitivity_main(copy), ss_uncapped(copy)]
            runs += [primitivity._capped_driver(copy, cap, "partial_base") for cap in (1, 2, 3)]
            for i, v in enumerate(runs):
                if v.kind == "partial_base":
                    assert i >= 2 and v.certificate.validate(), entry.name
                    continue
                assert v.kind == ("primitive" if primitive else "blocks"), entry.name
                if v.kind == "blocks":
                    assert v.blocks.nontrivial and validate_block_system(copy, v.blocks)
                checked += 1
    assert checked > 1500


@pytest.mark.parametrize("k", range(6, 15))
def test_dihedral_groups_answer_from_the_build(k):
    # Relabelled dihedral(2^k), with two extra random-word generators on odd
    # seeds. Once the first level holds two reflections, their product is a
    # rotation whose cycle through alpha is a block, so the build answers
    # and the scan never runs.
    spec = f"dihedral({2 ** k})"
    for seed in range(6):
        gens = relabel(build(parse_spec(spec)), random.Random(f"{spec}/{seed}"), 2 * (seed % 2))
        v = primitivity_main(gens)
        d = v.diagnostics
        assert v.kind == "blocks" and validate_block_system(gens, v.blocks), seed
        assert d.early_tests >= 1 and d.candidates_tested == 0, seed


@pytest.mark.parametrize("spec, seed", [("dihedral(64)", 2), ("dihedral(128)", 4)])
def test_build_misses_answer_from_the_scan(spec, seed):
    # Relabelled dihedral(2^k) with two extra generators whose build-time
    # tries all miss: every cycle through alpha they walk has 2 points (n/2
    # translates per generator, past the budget) or n points (past n/2),
    # and a second level opens before any is tested, so the full build and
    # scan find the block.
    gens = relabel(build(parse_spec(spec)), random.Random(f"{spec}/{seed}"), 2)
    v = primitivity_main(gens)
    d = v.diagnostics
    assert v.kind == "blocks" and validate_block_system(gens, v.blocks)
    assert d.early_tests == 0 and d.candidates_tested >= 1


def test_cyclic_decisions_build_no_inverse(monkeypatch):
    # Relabelled cyclic(2^k) answers from the build, and no word it builds
    # holds an inverted letter: the deep cube maps its few points through
    # inverses by searching image tuples, so no inverse is ever built.
    built = []
    real = Permutation.inverse

    def spy(g):
        if g._inv is None:
            built.append(g)
        return real(g)

    monkeypatch.setattr(Permutation, "inverse", spy)
    for k in range(8, 15):
        spec = f"cyclic({2 ** k})"
        gens = relabel(build(parse_spec(spec)), random.Random(f"{spec}/0"))
        v = primitivity_main(gens)
        assert v.kind == "blocks" and validate_block_system(gens, v.blocks), spec
        assert built == [], spec


def test_build_time_tests_get_divisor_sized_candidates(monkeypatch, full_corpus):
    # Block sizes divide the degree, so a build-time blockness test, which
    # is run only for its hit, never gets a candidate of any other size, nor
    # a single point, as a product x y that fixes alpha would be.
    sizes = []  # (degree, candidate size) of each build-time test
    in_build = False
    real_test = primitivity.blockness_test
    real_build = primitivity.build_point_transversal

    def recording_test(gens, delta, alpha):
        if in_build:
            sizes.append((gens.degree, len(delta)))
        return real_test(gens, delta, alpha)

    def flagged_build(*args):
        nonlocal in_build
        in_build = True
        try:
            return real_build(*args)
        finally:
            in_build = False

    monkeypatch.setattr(primitivity, "blockness_test", recording_test)
    monkeypatch.setattr(primitivity, "build_point_transversal", flagged_build)
    groups = [e.gens for e in full_corpus]
    groups += [
        relabel(build(parse_spec(spec)), random.Random(f"{spec}/{seed}"), 2)
        for spec in ("subsets(5,2)", "symmetric(12)", "symmetric(128)", "dihedral(96)",
                     "wreath(cyclic(3),4)")
        for seed in range(4)
    ]
    for gens in groups:
        primitivity_main(gens)
    assert sizes
    assert all(1 < size < n and n % size == 0 for n, size in sizes)


def test_smallest_escaping_subsets_group():
    # S_87 on 2-subsets (degree 3741) is primitive, and the smallest
    # subsets(m,2) with 81 <= m <= 100 that primitivity_main does not
    # decide: the capped loop passes its cap and no certificate entry
    # seeds a proper block. The family's verdict is the oracle, since the
    # baseline is quadratic here.
    gens = build(parse_spec("subsets(87,2)"))
    cap = math.ceil(5 * math.log2(gens.degree))
    v = primitivity_main(gens)
    assert v.kind == "all_primitive_actions_large" and v.blocks is None
    assert len(v.certificate) == cap + 1 and v.certificate.validate()
    assert find_blocks_from_certificate(gens, v.certificate) is None
    assert ss_uncapped(gens).kind == "primitive"
    assert primitivity_main(build(parse_spec("subsets(86,2)"))).kind == "primitive"


def test_missed_tries_leave_the_state_alone(monkeypatch, full_corpus):
    # The driver's own hook, wrapped: every try that answers False must
    # leave the sift state exactly as it found it, failed blockness tests
    # included.
    failed = []  # one entry per failed blockness test
    failed_in_misses = 0
    real_test = primitivity.blockness_test

    def recording_test(*args):
        res = real_test(*args)
        if res.kind != "is_block":
            failed.append(args)
        return res

    def checked_transversal(gens, alpha, cap, on_sift):
        def hook(state, outcome):
            nonlocal failed_in_misses
            before, failures = dump_state(state), len(failed)
            hit = on_sift(state, outcome)
            if not hit:
                assert dump_state(state) == before
                failed_in_misses += len(failed) - failures
            return hit

        return build_point_transversal(gens, alpha, cap, hook)

    monkeypatch.setattr(primitivity, "blockness_test", recording_test)
    monkeypatch.setattr(primitivity, "build_point_transversal", checked_transversal)
    groups = [e.gens for e in full_corpus if e.gens.degree <= 256]
    groups += [
        relabel(build(parse_spec(spec)), random.Random(f"{spec}/{seed}"), 2)
        for spec in ("cyclic(64)", "dihedral(64)", "dihedral(256)", "subsets(10,2)")
        for seed in range(4)
    ]
    for gens in groups:
        for driver in DRIVERS:
            driver(gens)
    assert failed_in_misses > 0
