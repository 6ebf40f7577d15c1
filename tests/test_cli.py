import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocksift
from blocksift.cli import cli_main


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


C6_JSON = '{"degree":6,"generators":[[1,2,3,4,5,0]]}'
A5_JSON = '{"degree":5,"generators":[[1,2,3,4,0],[1,2,0,3,4]]}'
ONE_JSON = '{"degree":1,"generators":[[0]]}'


class TestPrimitive:
    def test_blocks_verdict_json(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["primitive"], stdin=C6_JSON)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "blocks"
        assert sorted(len(b) for b in doc["blocks"]) in ([2, 2, 2], [3, 3])
        assert {
            "sifts", "h_updates", "candidates_closed", "candidates_tested", "sum_xi"
        } <= set(doc["diagnostics"])
        assert doc["time_ms"] >= 0

    def test_primitive_verdict(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["primitive"], stdin=A5_JSON)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "primitive" and doc["blocks"] is None

    def test_five_thirds_law(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["primitive", "--law", "five-thirds"], stdin=C6_JSON
        )
        assert code == 0 and json.loads(out)["verdict"] == "blocks"

    def test_uncapped(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["primitive", "--uncapped"], stdin=A5_JSON)
        assert code == 0 and json.loads(out)["verdict"] == "primitive"

    def test_cap_override_reports_certificate(self, capsys, monkeypatch):
        # S3 with cap 1 ends in a partial base; certificate is surfaced
        code, out, _ = run(
            capsys, monkeypatch, ["primitive", "--cap", "1"],
            stdin='{"degree":3,"generators":[[1,0,2],[0,2,1]]}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"] is not None or doc["verdict"] in ("blocks", "primitive")

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(C6_JSON)
        code, out, _ = run(capsys, monkeypatch, ["primitive", "--in", str(f)])
        assert code == 0 and json.loads(out)["verdict"] == "blocks"

    def test_missing_file_exits_2(self, capsys, monkeypatch, tmp_path):
        code, _, err = run(
            capsys, monkeypatch, ["primitive", "--in", str(tmp_path / "nope")]
        )
        assert code == 2 and "error" in err

    def test_malformed_input_exits_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["primitive"], stdin="(1 2)(2 3)")
        assert code == 2 and "error" in err

    def test_intransitive_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, monkeypatch, ["primitive"],
            stdin='{"degree":3,"generators":[[1,0,2]]}',
        )
        assert code == 2

    def test_cap_below_one_exits_2_at_every_degree(self, capsys, monkeypatch):
        for stdin in (ONE_JSON, A5_JSON):
            code, _, err = run(capsys, monkeypatch, ["primitive", "--cap", "0"], stdin=stdin)
            assert code == 2 and "cap" in err

    def test_bool_degree_exits_2(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["primitive"], stdin='{"degree":true,"generators":[[0]]}'
        )
        assert code == 2 and "parse error" in err


    def test_bool_images_exit_2(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["primitive"],
            stdin='{"degree":2,"generators":[[true,false]]}',
        )
        assert code == 2 and out == "" and "parse error" in err

    def test_h_update_growth_in_json(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["gen", "--family", "subsets", "--m", "6", "--k", "2"]
        )
        code, out, _ = run(capsys, monkeypatch, ["primitive"], stdin=out)
        diag = json.loads(out)["diagnostics"]
        assert code == 0 and diag["h_updates"] == len(diag["h_update_growth"]) > 0
        assert all(after > before for before, after in diag["h_update_growth"])
        # every blockness test follows a closure
        assert diag["candidates_closed"] >= diag["candidates_tested"] >= diag["h_updates"]


class TestBaseline:
    def test_degree_one_primitive(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["baseline"], stdin=ONE_JSON)
        assert code == 0 and json.loads(out)["verdict"] == "primitive"

    def test_imprimitive(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["baseline"], stdin=C6_JSON)
        assert code == 0 and json.loads(out)["verdict"] == "blocks"

    def test_primitive(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["baseline"], stdin=A5_JSON)
        assert code == 0 and json.loads(out)["verdict"] == "primitive"


class TestMinblock:
    def test_proper_block(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["minblock", "--seed", "0,3"], stdin=C6_JSON
        )
        assert code == 0 and json.loads(out)["block"] == [0, 3]

    def test_bad_seed_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, monkeypatch, ["minblock", "--seed", "0,x"], stdin=C6_JSON
        )
        assert code == 2


class TestGeneratorPipeline:
    def test_gen_then_primitive(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["gen", "--family", "wreath", "--inner", "alternating(8)", "--d", "2"],
        )
        assert code == 0
        code, out, _ = run(capsys, monkeypatch, ["primitive"], stdin=out)
        assert code == 0 and json.loads(out)["verdict"] == "blocks"

    def test_gen_cycle_format(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["gen", "--family", "cyclic", "--n", "4", "--format", "cycles"],
        )
        assert code == 0 and "(1 2 3 4)" in out

    def test_gen_missing_params_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["gen", "--family", "cyclic"])
        assert code == 2


class TestSiftTrace:
    def test_prints_levels(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["sift-trace"], stdin=C6_JSON)
        assert code == 0 and "level" in out.lower()


    def test_degree_one_empty_trace(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["sift-trace"], stdin=ONE_JSON)
        assert code == 0
        doc = json.loads(out)
        assert doc["orbit"] == [0] and doc["trace"] == []
        assert doc["final"]["levels"] == []

    def test_cap_below_one_exits_2_at_every_degree(self, capsys, monkeypatch):
        for stdin in (ONE_JSON, A5_JSON):
            code, _, err = run(capsys, monkeypatch, ["sift-trace", "--cap", "0"], stdin=stdin)
            assert code == 2 and "cap" in err


class TestBench:
    def test_csv_shape(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["bench", "--family", "dihedral", "--sizes", "8,16", "--runs", "1"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,n,|S|,time_ms,sifts,h_updates,sum_Xi"
        assert len(lines) == 3
        assert lines[1].startswith("dihedral,8,") and lines[2].startswith("dihedral,16,")


def test_no_subcommand_is_usage_error(capsys, monkeypatch):
    assert run(capsys, monkeypatch, [])[0] == 2


def test_python_dash_m_runs_the_cli():
    src = Path(blocksift.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "blocksift", "baseline"],
        input=C6_JSON, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "blocks"
