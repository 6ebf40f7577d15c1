import argparse
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blocksift
from blocksift import cli
from blocksift.cli import cli_main
from blocksift.corpus import build, parse_spec
from blocksift.ioformats import emit_generators, parse_generators
from blocksift.transversal import build_point_transversal
from conftest import base_points, relabel


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
            "sifts", "h_updates", "candidates_closed", "candidates_tested",
            "early_tries", "early_tests", "sum_xi", "h_update_growth",
        } == set(doc["diagnostics"])
        # C6's first level-1 append is the square of the 6-cycle, whose
        # cycle through 0 is a block: the build answers before the scan
        diag = doc["diagnostics"]
        assert (diag["early_tries"], diag["early_tests"], diag["candidates_tested"]) == (1, 1, 0)
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

    def test_degree_above_maxsize_exits_2(self, capsys, monkeypatch):
        for text in ("n=99999999999999999999999; (1 2)", "(1 99999999999999999999999)"):
            code, out, err = run(capsys, monkeypatch, ["primitive"], stdin=text)
            assert code == 2 and out == "" and "parse error" in err, text

    @pytest.mark.parametrize(
        "command", [["primitive"], ["baseline"], ["minblock", "--seed", "0,1"], ["sift-trace"]]
    )
    @pytest.mark.parametrize("text", ["n=9223372036854775807; (1 2)", "n=1000; (1 2 3)"])
    def test_declared_degree_above_points_named_exits_2(
        self, capsys, monkeypatch, command, text
    ):
        # a point no cycle names is fixed, so the group is intransitive; it
        # is rejected before any permutation of the declared degree is built
        built = []
        monkeypatch.setattr(
            blocksift.perm.Permutation, "__init__",
            lambda self, images: built.append(len(images)),
        )
        code, out, err = run(capsys, monkeypatch, command, stdin=text)
        assert code == 2 and out == "" and "intransitive" in err
        assert built == []

    def test_deeply_nested_json_exits_2(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"degree":2,"generators":' + "[" * 200_000)
        code, out, err = run(capsys, monkeypatch, ["primitive", "--in", str(path)])
        assert code == 2 and out == "" and "nested too deeply" in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--uncapped", "--cap", "1", "--law", "five-thirds"],
        ["--uncapped", "--cap", "1"],
        ["--cap", "2", "--law", "main"],
        ["--law", "five-thirds", "--uncapped"],
    ])
    def test_cap_selectors_exclude_each_other(self, capsys, monkeypatch, flags):
        code, out, err = run(capsys, monkeypatch, ["primitive", *flags], stdin=C6_JSON)
        assert code == 2 and out == "" and "not allowed with" in err

    def test_h_update_growth_in_json(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "subsets(6,2)"])
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

    def test_out_of_range_seed_exits_2(self, capsys, monkeypatch):
        c4 = '{"degree":4,"generators":[[1,2,3,0]]}'
        for seed in ("0,9", "-1"):
            code, out, err = run(capsys, monkeypatch, ["minblock", "--seed", seed], stdin=c4)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "out of range" in err


class TestGeneratorPipeline:
    def test_gen_then_primitive(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "wreath(alternating(8),2)"])
        assert code == 0
        code, out, _ = run(capsys, monkeypatch, ["primitive"], stdin=out)
        assert code == 0 and json.loads(out)["verdict"] == "blocks"

    def test_gen_cycle_format(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "cyclic(4)", "--format", "cycles"])
        assert code == 0 and "(1 2 3 4)" in out

    @pytest.mark.parametrize("fmt", ["json", "cycles"])
    def test_gen_emits_every_corpus_group(self, capsys, monkeypatch, full_corpus, fmt):
        # the corpus names a group of every family, so each family's row goes
        # through gen and back through the parser
        for entry in full_corpus:
            code, out, err = run(capsys, monkeypatch, ["gen", entry.name, "--format", fmt])
            assert code == 0 and err == "", entry.name
            gens = parse_generators(out)
            assert gens.degree == entry.gens.degree, entry.name
            assert [g.images for g in gens] == [g.images for g in entry.gens], entry.name

    def test_gen_missing_params_exits_2(self, capsys, monkeypatch):
        # an arity error and an unknown family
        for spec in ("cyclic", "froz(3)"):
            code, out, err = run(capsys, monkeypatch, ["gen", spec])
            assert code == 2 and out == "" and err.startswith("error:"), spec

    def test_gen_deeply_nested_spec_exits_2(self, capsys, monkeypatch):
        spec = "wreath(" * 1200 + "cyclic(2)" + ",2)" * 1200
        code, out, err = run(capsys, monkeypatch, ["gen", spec])
        assert code == 2 and out == "" and "nested too deeply" in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_gen_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(blocksift.corpus, "build", exhausted)
        code, out, err = run(capsys, monkeypatch, ["gen", "cyclic(4)"])
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_gen_huge_cyclic_exits_2_under_a_memory_limit(self):
        # the 512 MB address-space limit makes the build fail fast, and
        # keeps the child from taking the machine's memory
        resource = pytest.importorskip("resource")
        limit = 512 * 1024 * 1024
        proc = subprocess.run(
            [sys.executable, "-m", "blocksift", "gen", "cyclic(100000000000)"],
            capture_output=True, text=True, env=_package_env(), timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")

    @pytest.mark.parametrize("spec", [
        "subsets(70,35)",
        "symmetric(99999999999999999999)",
        "alternating(99999999999999999999)",
        "subsets(99999999999999999999,1)",
        "cyclic(99999999999999999999)",
        "wreath(cyclic(2),99999999999999999999)",
        "product(2,99999999999999999999)",
        pytest.param("wreath(" * 62 + "cyclic(2)" + ",2)" * 62, id="wreath-62-deep"),  # 2**63
    ])
    def test_gen_past_maxsize_exits_2_before_any_constructor(self, capsys, monkeypatch, spec):
        # each constructor would overflow or run for hours on these; the
        # spies make a constructor call fail at once
        def refuse(*args):
            raise AssertionError(f"a constructor ran for {spec}")

        for name, family in blocksift.corpus._FAMILIES.items():
            monkeypatch.setitem(
                blocksift.corpus._FAMILIES, name, dataclasses.replace(family, make=refuse)
            )
        with pytest.raises(ValueError, match="more than sys.maxsize points"):
            build(parse_spec(spec))
        code, out, err = run(capsys, monkeypatch, ["gen", spec])
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1

    def test_gen_takes_no_family_flags(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["gen", "--family", "cyclic", "--n", "4"])
        assert code == 2 and out == "" and "usage:" in err


class TestSiftTrace:
    def test_prints_levels(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["sift-trace"], stdin=C6_JSON)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"result", "orbit", "trace", "final"}
        assert doc["trace"] and all(
            set(entry) == {"outcome", "strip_steps", "base", "delta_sizes"}
            for entry in doc["trace"]
        )
        assert set(doc["final"]) == {"cap", "sifts", "base", "delta_sizes"}

    def test_degree_one_empty_trace(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["sift-trace"], stdin=ONE_JSON)
        assert code == 0
        doc = json.loads(out)
        assert doc["orbit"] == [0] and doc["trace"] == []
        assert doc["final"]["base"] == []

    @pytest.mark.parametrize("spec", ["dihedral(64)", "subsets(10,2)"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_summary_explains_each_sift(self, capsys, monkeypatch, spec, seed):
        gens = relabel(build(parse_spec(spec)), random.Random(f"{spec}/{seed}"), 2)
        code, out, _ = run(capsys, monkeypatch, ["sift-trace"], stdin=emit_generators(gens))
        assert code == 0
        doc = json.loads(out)
        trace, final = doc["trace"], doc["final"]
        # a point transversal build never strips a sift to the identity: an
        # element that strips lies in the deep cube, and every element the
        # build sifts maps 0 outside the deep cube's orbit
        assert {e["outcome"] for e in trace} == {"appended", "new_base_point"}
        # the state before the first sift: the seed's level, Delta {0, 0^seed}
        base, sizes = [0], [2]
        for entry in trace:
            new_base, new_sizes = entry["base"], entry["delta_sizes"]
            # each strip step clears one level, deeper than the last
            assert entry["strip_steps"] <= len(base)
            if entry["outcome"] == "appended":
                assert new_base == base
                grown = [k for k, (a, b) in enumerate(zip(sizes, new_sizes)) if a != b]
                assert len(grown) == 1 and new_sizes[grown[0]] == 2 * sizes[grown[0]]
            elif entry["outcome"] == "new_base_point":
                assert new_base[:-1] == base and new_base[-1] not in base
                assert new_sizes == sizes + [2]
            else:
                assert (new_base, new_sizes) == (base, sizes)
            base, sizes = new_base, new_sizes
        assert len(trace) == final["sifts"]
        state, rmap = build_point_transversal(gens, 0, gens.degree)
        assert final == {
            "cap": gens.degree,
            "sifts": state.sift_count,
            "base": base_points(state),
            "delta_sizes": [len(lv.points) for lv in state.levels],
        }
        assert (final["base"], final["delta_sizes"]) == (base, sizes)
        assert doc["result"] == "transversal" and doc["orbit"] == rmap.points

    def test_cap_below_one_exits_2_at_every_degree(self, capsys, monkeypatch):
        for stdin in (ONE_JSON, A5_JSON):
            code, _, err = run(capsys, monkeypatch, ["sift-trace", "--cap", "0"], stdin=stdin)
            assert code == 2 and "cap" in err


def test_no_subcommand_is_usage_error(capsys, monkeypatch):
    assert run(capsys, monkeypatch, [])[0] == 2


def test_documented_subcommands_are_the_parsers():
    # the README's CLI synopsis and the module docstring's "Subcommands:"
    # sentence name exactly the subcommands the parser takes
    (subparsers,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    choices = set(subparsers.choices)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    assert {line.split()[1] for line in synopsis.splitlines()} == choices
    sentence = re.search(r"Subcommands:(.*?)\.\s", cli.__doc__, re.S).group(1)
    assert set(re.findall(r"``([a-z][a-z-]*)``", sentence)) == choices


def _package_env() -> dict:
    """The environment with this package's source tree first on the path."""
    src = Path(blocksift.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "blocksift", "baseline"],
        input=C6_JSON, capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "blocks"
