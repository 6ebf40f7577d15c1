"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line.

The lines are echoed both into the captured output and into the terminal
summary (see conftest.pytest_terminal_summary), so a plain ``pytest -v`` run
ends with the verdict table.
"""

import math
import random
import time

import conftest
from blocksift.blocks import atkinson_baseline, minimal_block, validate_block_system
from blocksift.corpus import build, parse_spec
from blocksift.primitivity import (
    find_blocks_from_certificate,
    primitivity_main,
    primitivity_subquadratic,
    ss_primitivity,
    ss_uncapped,
)
from blocksift.sift import SiftState
from blocksift.transversal import build_point_transversal
from conftest import (
    base_points,
    enumerate_deep_cube,
    invariant_partitions,
    random_element,
    reconstruct,
    validate_state,
)


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_oracle_equivalence(full_corpus):
    t0 = time.perf_counter()
    assert len(full_corpus) >= 40
    assert all(2 <= e.gens.degree <= 512 for e in full_corpus)
    escapes = mismatches = bad_systems = 0
    for entry in full_corpus:
        oracle_primitive = atkinson_baseline(entry.gens) is None
        for driver in (ss_uncapped, primitivity_main, primitivity_subquadratic):
            v = driver(entry.gens)
            if v.kind not in ("primitive", "blocks"):
                escapes += 1
                continue
            if (v.kind == "primitive") != oracle_primitive:
                mismatches += 1
            if v.kind == "blocks" and not validate_block_system(entry.gens, v.blocks):
                bad_systems += 1
    elapsed = time.perf_counter() - t0
    ok = escapes == 0 and mismatches == 0 and bad_systems == 0 and elapsed < 60
    report(
        1,
        ok,
        f"{len(full_corpus)} groups x 3 drivers vs baseline: "
        f"{mismatches} mismatches, {escapes} escapes, {bad_systems} invalid systems, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_minimal_block_brute_force(full_corpus):
    t0 = time.perf_counter()
    groups = [e for e in full_corpus if e.gens.degree <= 10]
    assert groups
    checked = violations = 0
    for entry in groups:
        gens = entry.gens
        n = gens.degree
        parts = invariant_partitions(gens)
        for a in range(n):
            for b in range(a + 1, n):
                want = min(
                    (c for p in parts for c in p if a in c and b in c), key=len
                )
                checked += 1
                if minimal_block(gens, {a, b}) != set(want):
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120
    report(
        2,
        ok,
        f"{checked} seed pairs across {len(groups)} groups (n<=10) vs partition "
        f"enumeration: {violations} violations, {elapsed:.1f}s (budget 120s)",
    )


SIFT_GROUPS = [
    "cyclic(6)", "cyclic(12)", "cyclic(16)", "dihedral(8)", "dihedral(12)",
    "symmetric(4)", "symmetric(5)", "alternating(5)", "alternating(6)",
    "wreath(cyclic(2),2)", "wreath(symmetric(3),2)", "wreath(cyclic(4),3)",
    "subsets(5,2)", "product(3,2)",
]


def test_criterion_3_deep_sift_invariants():
    rng = random.Random(20260826)
    groups = [(t, build(parse_spec(t))) for t in SIFT_GROUPS]
    sifts = violations = 0
    target = 100_000
    while sifts < target:
        name, gens = groups[sifts % len(groups)]
        n = gens.degree
        seed = next(g for g in gens.generators if g.images[0] != 0)
        state = SiftState(n, n, seed, 0)
        for _ in range(40):
            g = random_element(gens, rng)
            out = state.deep_sift(g)
            sifts += 1
            try:
                validate_state(state)  # |delta_i| = 2^|X_i|, |X_i| <= ceil(log2 n), words
                assert reconstruct(out) == g
                assert state.certificate().validate()
            except AssertionError:
                violations += 1
    ok = violations == 0 and sifts >= target
    report(3, ok, f"{sifts} randomized sifts, {violations} invariant violations")


def test_criterion_4_word_length_bounds(full_corpus):
    checked_words = violations = 0
    groups = [e for e in full_corpus if e.order is not None]
    for entry in groups:
        gens = entry.gens
        state, rmap = build_point_transversal(gens, 0, gens.degree)
        assert rmap is not None
        total = state.sum_xi()
        if total > math.ceil(math.log2(entry.order)):
            violations += 1
        for p in rmap.points:
            w = rmap.word(p)
            checked_words += 1
            if len(w) > 2 * total or w.apply(0) != p:
                violations += 1
    ok = violations == 0
    report(
        4,
        ok,
        f"{checked_words} r-words across {len(groups)} known-order groups: "
        f"{violations} bound violations",
    )


def test_criterion_5_lemma_checks_small():
    rng = random.Random(5)
    small = [
        "cyclic(6)", "cyclic(8)", "dihedral(4)", "dihedral(6)",
        "symmetric(3)", "symmetric(4)", "alternating(4)", "alternating(5)",
        "wreath(cyclic(2),2)", "wreath(cyclic(2),3)",
    ]
    groups = [build(parse_spec(t)) for t in small]
    checked = violations = 0
    while checked < 1000:
        gens = groups[rng.randrange(len(groups))]
        n = gens.degree
        seed = next(g for g in gens.generators if g.images[0] != 0)
        state = SiftState(n, n, seed, 0)
        for _ in range(12):
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
            checked += 1
            cube = enumerate_deep_cube(xstar)
            if g not in cube:  # the sifted element must lie in the deep cube
                violations += 1
            pts, _ = state.level_deep_orbit(entry + 1)
            if lam not in pts:  # its base-point image must enter Omega_i
                violations += 1
    ok = violations == 0 and checked >= 1000
    report(5, ok, f"{checked} brute-force deep-cube checks, {violations} violations")


def test_criterion_6_fallback_path():
    t0 = time.perf_counter()
    problems = []
    for text in ("wreath(alternating(8),2)", "wreath(alternating(64),2)"):
        gens = build(parse_spec(text))
        v = primitivity_main(gens)
        if v.kind != "blocks" or not validate_block_system(gens, v.blocks):
            problems.append(f"{text}: {v.kind}")
    gens = build(parse_spec("wreath(alternating(64),2)"))
    v = ss_primitivity(gens, 2)
    if v.kind != "partial_base":
        problems.append(f"forced cap: {v.kind}")
    else:
        bs = find_blocks_from_certificate(gens, v.certificate)
        if bs is None or not validate_block_system(gens, bs) or not bs.nontrivial:
            problems.append("forced cap: certificate gave no proper block")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30
    report(
        6,
        ok,
        f"wreath fallback end-to-end in {elapsed:.1f}s (budget 30s)"
        + (f"; problems: {problems}" if problems else ""),
    )


def test_criterion_7_dihedral_scaling():
    times = {}
    from_build = 0  # sizes whose verdict came from the build, not the scan
    for k in range(8, 17):
        n = 2 ** k
        gens = build(parse_spec(f"dihedral({n})"))
        # best of 3 at every size, so each ratio compares like with like
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            v = primitivity_main(gens)
            best = min(best, time.perf_counter() - t0)
            assert v.kind == "blocks"
        d = v.diagnostics
        from_build += d.early_tests > 0 and d.candidates_tested == 0
        times[n] = best
    worst = 0.0
    for k in range(8, 15):
        ratio = times[2 ** (k + 2)] / times[2 ** k]
        worst = max(worst, ratio)
    table = ", ".join(f"n={n}: {t * 1000:.1f}ms" for n, t in times.items())
    ok = worst <= 10
    report(
        7,
        ok,
        f"dihedral t(4n)/t(n) worst ratio {worst:.2f} (gate 10); {table}; "
        f"{from_build} of {len(times)} sizes answered from the build",
    )


def test_criterion_8_h_update_accounting(full_corpus):
    violations = runs = 0
    for entry in full_corpus:
        v = ss_uncapped(entry.gens)
        d = v.diagnostics
        runs += 1
        if d.h_updates > d.sum_xi or d.h_updates != len(d.h_update_growth):
            violations += 1
        if any(after <= before for before, after in d.h_update_growth):
            violations += 1
    ok = violations == 0
    report(
        8,
        ok,
        f"{runs} corpus runs: h_updates <= sum|X_i| and strictly growing, "
        f"{violations} violations",
    )
