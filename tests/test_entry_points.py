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
    primitivity_main,
    primitivity_subquadratic,
    ss_primitivity,
    ss_uncapped,
)
from blocksift.sift import SiftState
from conftest import perm

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


def test_transitivity_checked_once_per_decision(monkeypatch):
    # wreath(symmetric(4),2) runs two blockness tests and an H-update
    gens = build(parse_spec("wreath(symmetric(4),2)"))
    calls = []
    real = primitivity.is_transitive

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(primitivity, "is_transitive", counted)
    monkeypatch.setattr(blocks, "is_transitive", counted)
    v = primitivity_main(gens)
    assert v.kind == "blocks" and v.diagnostics.candidates_tested == 2
    assert len(calls) == 1


def test_cap_blocks_from_certificate_match_the_library(capsys, monkeypatch):
    # cap 1 stops the loop with a partial base; the certificate yields blocks
    gens = build(parse_spec("wreath(symmetric(3),3)"))
    assert ss_primitivity(gens, 0, 1).kind == "partial_base"
    lib = _capped_driver(gens, 1, "partial_base")
    assert lib.kind == "blocks" and validate_block_system(gens, lib.blocks)
    code, out, _ = run_cli(capsys, monkeypatch, ["primitive", "--cap", "1"], gens)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "blocks"
    assert doc["blocks"] == lib.blocks.blocks
    assert doc["certificate"] is None
    assert doc["diagnostics"] == lib.diagnostics.as_dict()


def test_cap_without_blocks_answers_partial_base(capsys, monkeypatch):
    s3 = GeneratorSet(3, [perm(3, (0, 1)), perm(3, (1, 2))])
    code, out, _ = run_cli(capsys, monkeypatch, ["primitive", "--cap", "1"], s3)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "partial_base"
    assert [e["point"] for e in doc["certificate"]] == [0, 1]


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
        state = build_point_transversal(build(parse_spec("dihedral(16)")), 0, 20).state
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
