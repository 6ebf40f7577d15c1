"""Entry-point behaviour shared by the drivers and the CLI: the transitivity
check at the boundary, the one capped decision path, and internal faults
(exit 3), which must not depend on ``assert``."""

import io
import json
import os
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
from blocksift.perm import GeneratorSet
from blocksift.primitivity import (
    _capped_driver,
    find_blocks_from_certificate,
    primitivity_main,
    primitivity_subquadratic,
    ss_primitivity,
    ss_uncapped,
)
from blocksift.sift import Certificate, SiftState
from conftest import perm

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
     ["primitive", "--law", "five-thirds"]],
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
    # wreath(symmetric(4),2) runs two blockness tests and an H-update
    gens = build(parse_spec("wreath(symmetric(4),2)"))
    calls = count_transitivity_checks(monkeypatch)
    v = primitivity_main(gens)
    assert v.kind == "blocks" and v.diagnostics.candidates_tested == 2
    assert len(calls) == 1


def test_certificate_fallback_checks_transitivity_once(monkeypatch):
    # cap 3 ends in a partial base of 4 entries, none of which seeds a
    # proper block: one check in the driver, one for the whole fallback
    gens = build(parse_spec("subsets(30,2)"))
    calls = count_transitivity_checks(monkeypatch)
    v = _capped_driver(gens, 3, "partial_base")
    assert v.kind == "partial_base" and len(v.certificate) == 4
    assert len(calls) == 2


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
    for argv in (
        ["primitive"], ["primitive", "--uncapped"], ["primitive", "--law", "five-thirds"],
        ["primitive", "--cap", "1"], ["primitive", "--cap", "2"], ["primitive", "--cap", "3"],
    ):
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
    script = textwrap.dedent("""
        import sys
        from blocksift.corpus import build, parse_spec
        from blocksift.transversal import build_point_transversal

        assert False, "assert statements must be stripped"
        state, _ = build_point_transversal(build(parse_spec("dihedral(16)")), 0, 20)
        state.validate()
        level = state.levels[0]
        level.elems.append(level.elems[-1])  # X_1 holds one element twice
        try:
            state.validate()
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
