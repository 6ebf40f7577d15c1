"""Entry-point behaviour shared by the drivers and the CLI: rejection of
intransitive input at every exit, the one capped decision path, and
internal faults (exit 3), which must not depend on ``assert``."""

import io
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import blocksift
from blocksift import blocks, primitivity
from blocksift.blocks import InternalError, validate_block_system
from blocksift.cli import cli_main
from blocksift.corpus import build, parse_spec
from blocksift.ioformats import emit_generators
from blocksift.perm import GeneratorSet, Permutation
from blocksift.primitivity import (
    _capped_driver,
    find_blocks_from_certificate,
    primitivity_main,
    primitivity_subquadratic,
    ss_primitivity,
    ss_uncapped,
)
from blocksift.sift import Certificate, SiftState
from blocksift.transversal import build_point_transversal
from conftest import perm, relabel

DRIVERS = (primitivity_main, primitivity_subquadratic, ss_uncapped)

# (0 1)(2 3): two orbits of size 2
INTRANSITIVE = GeneratorSet(4, [perm(4, (0, 1), (2, 3))])


def run_cli(capsys, monkeypatch, argv, gens):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_generators(gens, fmt="json")))
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "driver", [primitivity_main, primitivity_subquadratic, ss_uncapped]
)
def test_intransitive_rejected_by_every_driver(driver):
    with pytest.raises(ValueError, match="transitive"):
        driver(INTRANSITIVE)


@pytest.mark.parametrize(
    "argv",
    [["primitive", "--cap", "2"], ["primitive", "--uncapped"],
     ["primitive", "--law", "five-thirds"], ["sift-trace"]],
)
def test_intransitive_exits_2_in_the_cli(capsys, monkeypatch, argv):
    code, out, err = run_cli(capsys, monkeypatch, argv, INTRANSITIVE)
    assert code == 2 and out == "" and "transitive" in err


def count_transitivity_checks(monkeypatch) -> list:
    """Record every ``is_transitive`` call made by the drivers and by
    ``blocks``."""
    calls = []
    real = primitivity.is_transitive

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(primitivity, "is_transitive", counted)
    monkeypatch.setattr(blocks, "is_transitive", counted)
    return calls


def test_transitivity_checked_once_per_decision(monkeypatch):
    # at composite degree the decision proves transitivity from its own
    # work, with no orbit walk: a block's translates cover every point, or
    # the closed point transversal holds alpha^G
    calls = count_transitivity_checks(monkeypatch)
    # wreath(symmetric(4),2) runs two blockness tests and an H-update
    v = primitivity_main(build(parse_spec("wreath(symmetric(4),2)")))
    assert v.kind == "blocks" and v.diagnostics.candidates_tested == 2
    # dihedral(16) is answered by a block tried during the build
    v = primitivity_main(build(parse_spec("dihedral(16)")))
    assert v.kind == "blocks" and v.diagnostics.candidates_tested == 0
    assert v.diagnostics.early_tests >= 1
    v = primitivity_main(build(parse_spec("subsets(6,2)")))
    assert v.kind == "primitive" and v.diagnostics.h_updates == 2
    assert calls == []
    # at prime degree nothing is built, so one orbit walk checks it
    v = primitivity_main(build(parse_spec("cyclic(7)")))
    assert v.kind == "primitive" and len(calls) == 1


def test_certificate_fallback_checks_transitivity_once(monkeypatch):
    # cap 3 ends subsets(30,2) in a partial base of 4 entries, none of which
    # seeds a proper block. Its build passes the cap before alpha's orbit is
    # closed, so the driver walks the orbit once, and its fallback trusts it
    calls = count_transitivity_checks(monkeypatch)
    gens = build(parse_spec("subsets(30,2)"))
    v = _capped_driver(gens, 3, "partial_base")
    assert v.kind == "partial_base" and len(v.certificate) == 4
    assert len(calls) == 1
    # the public fallback checks once for all its entries
    calls.clear()
    assert find_blocks_from_certificate(gens, v.certificate) is None
    assert len(calls) == 1
    # subsets(6,2) passes cap 3 in its first H-update, after its closed
    # point transversal proved transitivity: no orbit walk at all
    calls.clear()
    v = _capped_driver(build(parse_spec("subsets(6,2)")), 3, "partial_base")
    assert v.kind == "partial_base" and v.diagnostics.candidates_tested == 1
    assert calls == []


def with_fixed_points(gens: GeneratorSet, k: int) -> GeneratorSet:
    """The same group acting on k more points, all of them fixed."""
    n = gens.degree
    fixed = tuple(range(n, n + k))
    return GeneratorSet(n + k, [Permutation(g.images + fixed) for g in gens.generators])


# One intransitive group of composite degree per exit of ss_primitivity.
# (1 2 3) on 4 points fixes alpha, so no transversal can be built
FIXES_ALPHA = GeneratorSet(4, [perm(4, (1, 2, 3))])
# two 8-cycles on 16 points: a cycle tried during the build is a block of
# the first, whose translates cover 8 points
TWO_CYCLES = GeneratorSet(16, [perm(16, tuple(range(8)), tuple(range(8, 16)))])
# D8 on the first 8 of 16 points, a reflection first
D8_OF_16 = GeneratorSet(16, [perm(16, (1, 7), (2, 6), (3, 5)), perm(16, tuple(range(8)))])
# subsets(10,2) on 45 of 48 points: its builds pass caps 1, 2 and 3
CAPPED_BUILD = with_fixed_points(build(parse_spec("subsets(10,2)")), 3)

INTRANSITIVE_EXITS = [
    (FIXES_ALPHA, "fixed alpha"),
    (INTRANSITIVE, "closed orbit"),
    (TWO_CYCLES, "early try"),
    (D8_OF_16, "early try"),
    (CAPPED_BUILD, "capped build"),
]

CLI_DECISIONS = (
    ["primitive"], ["primitive", "--uncapped"], ["primitive", "--law", "five-thirds"],
    ["primitive", "--cap", "1"], ["primitive", "--cap", "2"], ["primitive", "--cap", "3"],
)


def rejection_exit(monkeypatch, gens: GeneratorSet, cap: int) -> str:
    """Run ``ss_primitivity`` on an intransitive group and name the exit
    that rejected it."""
    walks, builds, tests = [], [], []
    with monkeypatch.context() as m:
        for name, record in (
            ("is_transitive", walks), ("build_point_transversal", builds),
            ("blockness_test", tests),
        ):
            real = getattr(primitivity, name)
            m.setattr(
                primitivity, name, lambda *a, real=real, record=record: record.append(a) or real(*a)
            )
        with pytest.raises(ValueError, match="transitive") as exc:
            ss_primitivity(gens, cap)
    if not builds:
        return "fixed alpha"
    if walks:
        return "capped build"
    if "translates miss" in str(exc.value):
        assert tests, "an early try raised without a blockness test"
        return "early try"
    return "closed orbit"


def assert_rejected_everywhere(capsys, monkeypatch, gens: GeneratorSet) -> None:
    for cap in (1, 2, 3):
        with pytest.raises(ValueError, match="transitive"):
            _capped_driver(gens, cap, "partial_base")
    for driver in DRIVERS:
        with pytest.raises(ValueError, match="transitive"):
            driver(gens)
    for argv in CLI_DECISIONS:
        code, out, err = run_cli(capsys, monkeypatch, argv, gens)
        assert code == 2 and out == "" and "transitive" in err, argv
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "gens, exit_name", INTRANSITIVE_EXITS, ids=[e for _, e in INTRANSITIVE_EXITS]
)
def test_every_exit_rejects_intransitive_input(capsys, monkeypatch, gens, exit_name):
    for cap in (1, 2, 3):
        assert rejection_exit(monkeypatch, gens, cap) == exit_name
    assert_rejected_everywhere(capsys, monkeypatch, gens)


@pytest.mark.parametrize("seed", range(4))
def test_relabelled_intransitive_input_rejected(capsys, monkeypatch, seed):
    # relabelling moves alpha, so a copy may leave by another exit than
    # its original; every exit must reject it
    rng = random.Random(seed)
    for gens, _ in INTRANSITIVE_EXITS:
        assert_rejected_everywhere(capsys, monkeypatch, relabel(gens, rng, extra=2))


def test_fixed_alpha_names_transitivity():
    # without the check the build would report "alpha is fixed by every
    # generator", which says nothing about the input being at fault
    for cap in (1, 5):
        with pytest.raises(ValueError, match="requires a transitive group"):
            ss_primitivity(FIXES_ALPHA, cap)


def test_certificate_fallback_rejects_intransitive_before_block_work(monkeypatch):
    work = []
    monkeypatch.setattr(primitivity, "minimal_block", lambda *a: work.append(a))
    monkeypatch.setattr(primitivity, "blockness_test", lambda *a: work.append(a))
    cert = Certificate([(0, perm(4, (0, 1), (2, 3)))])
    assert cert.validate()
    with pytest.raises(ValueError, match="transitive"):
        find_blocks_from_certificate(INTRANSITIVE, cert)
    assert work == []


# (0 1 2 3 4 5 6) on 11 points: prime degree, four fixed points
PRIME_INTRANSITIVE = GeneratorSet(11, [perm(11, (0, 1, 2, 3, 4, 5, 6))])


def test_intransitive_prime_degree_still_rejected(capsys, monkeypatch):
    for driver in DRIVERS:
        with pytest.raises(ValueError, match="transitive"):
            driver(PRIME_INTRANSITIVE)
    for cap in (1, 2, 3):
        with pytest.raises(ValueError, match="transitive"):
            ss_primitivity(PRIME_INTRANSITIVE, cap)
    for argv in CLI_DECISIONS:
        code, out, err = run_cli(capsys, monkeypatch, argv, PRIME_INTRANSITIVE)
        assert code == 2 and out == "" and "transitive" in err, argv


def test_cap_blocks_from_certificate_match_the_library(capsys, monkeypatch):
    # cap 1 stops the loop with a partial base; the certificate yields blocks
    gens = build(parse_spec("wreath(symmetric(3),3)"))
    assert ss_primitivity(gens, 1).kind == "partial_base"
    lib = _capped_driver(gens, 1, "partial_base")
    assert lib.kind == "blocks" and validate_block_system(gens, lib.blocks)
    code, out, _ = run_cli(capsys, monkeypatch, ["primitive", "--cap", "1"], gens)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "blocks"
    assert doc["blocks"] == lib.blocks.blocks
    assert doc["certificate"] is None
    assert doc["diagnostics"] == lib.diagnostics.as_dict()


def test_cap_without_blocks_answers_partial_base(capsys, monkeypatch):
    s4 = build(parse_spec("symmetric(4)"))
    code, out, _ = run_cli(capsys, monkeypatch, ["primitive", "--cap", "1"], s4)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "partial_base"
    assert [e["point"] for e in doc["certificate"]] == [0, 1]
    # at prime degree the answer comes before any base is built
    s3 = GeneratorSet(3, [perm(3, (0, 1)), perm(3, (1, 2))])
    code, out, _ = run_cli(capsys, monkeypatch, ["primitive", "--cap", "1"], s3)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "primitive" and doc["certificate"] is None


@pytest.mark.parametrize("cap", [2.5, 3.0, True, 0])
def test_cap_is_an_int_of_at_least_one(cap):
    # cap 2.5 once ran subsets(30,2) to a partial base and then raised
    # InternalError, a library fault for a caller's mistake; True would
    # pass as cap 1. Every entry point rejects it before any work
    gens = build(parse_spec("subsets(30,2)"))
    for decide in (
        lambda: ss_primitivity(gens, cap),
        lambda: ss_primitivity(PRIME_INTRANSITIVE, cap),
        lambda: _capped_driver(gens, cap, "partial_base"),
        lambda: build_point_transversal(gens, 0, cap),
    ):
        with pytest.raises(ValueError, match="cap must be"):
            decide()


# subsets(5,2) is primitive after one H-update
H_UPDATE_GROUP = "subsets(5,2)"


@pytest.fixture
def no_op_h_update(monkeypatch):
    """Once the first scoped transversal is built, ``SiftState.deep_sift``
    does nothing, so the H-update that follows cannot enlarge H."""
    real = primitivity.build_scoped_transversal

    def scoped_then_break(*args):
        res = real(*args)
        monkeypatch.setattr(SiftState, "deep_sift", lambda self, g: None)
        return res

    monkeypatch.setattr(primitivity, "build_scoped_transversal", scoped_then_break)


def test_failed_h_update_raises_internal_error(no_op_h_update):
    with pytest.raises(InternalError, match="H-update"):
        primitivity_main(build(parse_spec(H_UPDATE_GROUP)))


def test_failed_h_update_exits_3_in_the_cli(capsys, monkeypatch, no_op_h_update):
    gens = build(parse_spec(H_UPDATE_GROUP))
    code, out, err = run_cli(capsys, monkeypatch, ["primitive"], gens)
    assert code == 3 and out == ""
    assert err.startswith("error: internal: ") and "Traceback" not in err


def test_failed_blockness_of_a_minimal_block_raises(monkeypatch):
    monkeypatch.setattr(
        primitivity, "blockness_test", lambda *a: blocks.BlocknessResult("not_block")
    )
    with pytest.raises(InternalError, match="blockness"):
        _capped_driver(build(parse_spec("wreath(symmetric(3),3)")), 1, "partial_base")


def test_internal_checks_survive_python_dash_o():
    script = textwrap.dedent(f"""
        import sys
        from blocksift import primitivity
        from blocksift.blocks import InternalError
        from blocksift.corpus import build, parse_spec
        from blocksift.sift import SiftState

        assert False, "assert statements must be stripped"
        real = primitivity.build_scoped_transversal

        def scoped_then_break(*args):
            res = real(*args)
            SiftState.deep_sift = lambda self, g: None
            return res

        primitivity.build_scoped_transversal = scoped_then_break
        try:
            primitivity.primitivity_main(build(parse_spec({H_UPDATE_GROUP!r})))
        except InternalError as exc:
            print("InternalError:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    proc = run_dash_o(script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("InternalError: H-update")


def test_state_validation_survives_python_dash_o():
    # validate_state lives in tests/conftest.py; its checks are explicit
    # raises, so a corrupted state is still caught with asserts stripped
    tests = Path(__file__).resolve().parent
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(tests)!r})
        from blocksift.corpus import build, parse_spec
        from blocksift.transversal import build_point_transversal
        from conftest import validate_state

        assert False, "assert statements must be stripped"
        state, _ = build_point_transversal(build(parse_spec("dihedral(16)")), 0, 20)
        validate_state(state)
        level = state.levels[0]
        level.elems.append(level.elems[-1])  # X_1 holds one element twice
        try:
            validate_state(state)
        except AssertionError as exc:
            print("AssertionError:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    proc = run_dash_o(script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("AssertionError: ")


def run_dash_o(script: str) -> subprocess.CompletedProcess:
    """Run a script under ``python -O`` with this package importable."""
    src = Path(blocksift.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
