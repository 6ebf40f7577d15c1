import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksift.blocks import atkinson_baseline, minimal_block, validate_block_system
from blocksift.cli import cli_main
from blocksift.corpus import build, parse_spec, spec_order
from blocksift.ioformats import emit_generators
from blocksift import primitivity
from blocksift.perm import GeneratorSet, Orbits, orbit
from blocksift.primitivity import (
    Diagnostics,
    find_blocks_from_certificate,
    primitivity_main,
    primitivity_subquadratic,
    ss_primitivity,
    ss_uncapped,
)
from blocksift.sift import Certificate
from blocksift.transversal import build_point_transversal
from conftest import perm, relabel


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
        with pytest.raises(ValueError):
            ss_primitivity(GeneratorSet(1, [perm(1)]), 5)  # degenerate

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
        assert bs.num_blocks == 2 and bs.block_size == 64


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
    # transversal passes the cap. The expected diagnostics were recorded
    # from the driver that returned from each route separately.

    @pytest.mark.parametrize(
        "make,cap,route,base,diag",
        [
            pytest.param(
                lambda: build(parse_spec("symmetric(4)")), 1, "point", [0, 1],
                (1, 0, 0, 0, 2, []), id="S4-point",
            ),
            pytest.param(
                lambda: build(parse_spec("subsets(6,2)")), 3, "h_update", [0, 1, 6, 3],
                (4, 0, 1, 1, 5, []), id="subsets(6,2)-h_update",
            ),
            pytest.param(
                lambda: relabel(build(parse_spec("subsets(9,3)")), random.Random(3)),
                2, "scoped", [0, 1, 2],
                (7, 0, 2, 1, 8, []), id="subsets(9,3)-3-scoped",
            ),
            pytest.param(
                lambda: relabel(build(parse_spec("subsets(12,2)")), random.Random(9)),
                3, "scoped", [0, 2, 9, 15],
                (9, 1, 4, 2, 8, [[2, 3]]), id="subsets(12,2)-9-scoped",
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
                "sum_xi", "h_update_growth")
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
            "sum_xi",
            "h_update_growth",
        }

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
                ("subsets(6,2)", 25, {"closed", "dropped"}),
                ("subsets(7,2)", 11, {"closed", "dropped"}),
            ]
        ],
    )
    def test_skipped_candidates_lie_in_no_proper_block(self, monkeypatch, spec, seed, routes):
        # A candidate is skipped on one of two routes: its H-orbit alone
        # holds n/p or more points and it is dropped unclosed, or its
        # closure passes n/p. These relabellings give skipped candidates
        # with n/p < |alpha^<H, r_lam>| < n on the routes listed.
        gens = relabel(build(parse_spec(spec)), random.Random(seed))
        n = gens.degree
        omega = set(range(n))
        dmax = primitivity._largest_proper_divisor(n)
        transversals, scans = [], []
        skipped = []  # (route, size of the whole candidate orbit)

        def recording_transversal(*args):
            transversals.append(build_point_transversal(*args))
            return transversals[-1]

        def recording_orbits(degree, hgens):
            scans.append((list(hgens), Orbits(degree, hgens)))
            return scans[-1][1]

        def checked_orbit(actions, start, limit=None, cells=None):
            delta = orbit(actions, start, limit, cells)
            if limit is not None and len(delta) > limit:
                lam = actions[-1].apply(start)  # the r-word comes last
                assert minimal_block(gens, [start, lam]) == omega
                skipped.append(("closed", len(orbit(actions, start, cells=cells))))
            return delta

        monkeypatch.setattr(primitivity, "build_point_transversal", recording_transversal)
        monkeypatch.setattr(primitivity, "Orbits", recording_orbits)
        monkeypatch.setattr(primitivity, "orbit", checked_orbit)
        for driver in (primitivity_main, ss_uncapped):
            transversals.clear()
            scans.clear()
            assert driver(gens).kind == "primitive"
            ((_, rmap),) = transversals
            alpha = rmap.points[0]
            for hgens, horbits in scans:
                for lam in range(n):
                    # size is 0 off the least point of each H-orbit
                    if lam != alpha and horbits.size[lam] >= dmax:
                        assert minimal_block(gens, [alpha, lam]) == omega
                        full = orbit(hgens + [rmap.word(lam)], alpha)
                        skipped.append(("dropped", len(full)))
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
    r = rmap.word(data.draw(st.sampled_from(rmap.points)))
    start = data.draw(st.sampled_from([alpha, rng.randrange(n)]))
    limit = data.draw(st.integers(1, n))
    full = orbit(hgens + [r], start)
    got = orbit([r], start, limit, cells)
    assert len(set(got)) == len(got) and set(got) <= set(full)
    if len(full) <= limit:
        assert sorted(got) == sorted(full)
    else:
        assert len(got) > limit
