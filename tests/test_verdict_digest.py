"""Smoke test of ``tools/verdict_digest.py``, run as a script the way a
change that must keep every verdict the same runs it."""

import hashlib
import importlib.util
import json
import random
import re
import subprocess
import sys
from pathlib import Path

from blocksift.blocks import BlockSystem, atkinson_baseline
from blocksift.corpus import build, parse_spec
from blocksift.primitivity import Verdict
from conftest import relabel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_digest.py"


def run_tool(*flags: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(TOOL), *flags], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def load_tool():
    spec = importlib.util.spec_from_file_location("verdict_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_covers_one_record_per_case():
    match = re.fullmatch(r"([0-9a-f]{64})  \((\d+) cases\)\n", run_tool())
    assert match, "the digest line is a sha256 and a case count"
    digest, count = match.group(1), int(match.group(2))
    cases = run_tool("--cases")
    lines = cases.splitlines()
    assert len(lines) == count > 0
    assert all(json.loads(line)["kind"] for line in lines)
    # the digest hashes exactly the records --cases prints, one line each
    assert hashlib.sha256(cases.encode()).hexdigest() == digest


def test_oracle_counts_no_mismatch_and_catches_one():
    out = run_tool("--oracle").splitlines()
    assert out[0] + "\n" == run_tool()  # the digest line comes first, unchanged
    assert re.fullmatch(r"0 oracle mismatches in \d+ cases", out[1])
    tool = load_tool()
    c6, s3 = build(parse_spec("cyclic(6)")), build(parse_spec("symmetric(3)"))
    blocks = atkinson_baseline(c6)
    assert not tool.oracle_mismatch(c6, Verdict("blocks", blocks=blocks), blocks)
    assert tool.oracle_mismatch(c6, Verdict("primitive"), blocks)
    assert tool.oracle_mismatch(s3, Verdict("blocks", blocks=blocks), None)
    # a system of the right shape that the group does not preserve
    moved = BlockSystem(6, [[0, 1], [2, 3], [4, 5]])
    assert tool.oracle_mismatch(c6, Verdict("blocks", blocks=moved), blocks)
    assert not tool.oracle_mismatch(c6, Verdict("partial_base"), blocks)


def test_tool_relabels_as_the_tests_do(full_corpus):
    # the tool keeps its own copy of the tests' relabelling, so that it runs
    # in older checkouts; at its seeds both copies must draw the same groups
    groups = dict(load_tool().groups())
    assert len(groups) == 4 * len(full_corpus)
    for entry in full_corpus:
        for extra in (0, 1, 2):
            rng = random.Random(f"{entry.name}/{extra}")
            name = f"{entry.name}/relabel+{extra}"
            assert groups[name] == relabel(entry.gens, rng, extra), name


def test_compare_counts_the_cases_and_fields_that_moved(tmp_path):
    saved = tmp_path / "cases.jsonl"
    cases = run_tool("--cases")
    saved.write_text(cases)
    count = len(cases.splitlines())
    digest = run_tool()
    assert run_tool("--compare", str(saved)) == digest + f"0 of {count} cases differ\n"
    # one saved case closed one candidate more, and another answered otherwise
    lines = cases.splitlines()
    first, second = json.loads(lines[0]), json.loads(lines[1])
    first["diagnostics"]["candidates_closed"] += 1
    kind = second["kind"]
    second["kind"] = "partial_base" if kind != "partial_base" else "primitive"
    lines[0], lines[1] = (json.dumps(r, sort_keys=True) for r in (first, second))
    saved.write_text("\n".join(lines) + "\n")
    assert run_tool("--compare", str(saved)).splitlines() == [
        digest.rstrip("\n"),
        f"2 of {count} cases differ",
        "diagnostics.candidates_closed: 1 (1 lower, 0 higher)",
        "kind: 1",
        # the case whose kind moved, by group and driver, saved kind first
        f"  {second['group']} {second['driver']}: {second['kind']} -> {kind}",
    ]


def test_compare_reports_unmatched_cases():
    tool = load_tool()
    a = {"group": "g", "driver": "main", "kind": "primitive", "blocks": None,
         "certificate": None, "diagnostics": {"sifts": 3, "h_updates": 1}}
    b = dict(a, driver="uncapped")
    moved = dict(a, diagnostics={"sifts": 2, "h_updates": 2})
    old = [json.dumps(r) for r in (a, b)]
    assert tool.compare(old, [json.dumps(moved)]) == [
        "1 of 1 cases differ",
        "1 cases only in the old file, 0 only in this tree",
        "diagnostics.h_updates: 1 (0 lower, 1 higher)",
        "diagnostics.sifts: 1 (1 lower, 0 higher)",
    ]


def test_compare_names_each_case_whose_kind_moved():
    tool = load_tool()
    a = {"group": "g", "driver": "main", "kind": "partial_base", "blocks": None,
         "certificate": None, "diagnostics": {"sifts": 3}}
    b = dict(a, driver="cap3", kind="primitive")
    old = [json.dumps(r) for r in (a, b)]
    new = [json.dumps(dict(a, kind="primitive")), json.dumps(dict(b, kind="blocks"))]
    assert tool.compare(old, new) == [
        "2 of 2 cases differ",
        "kind: 2",
        "  g main: partial_base -> primitive",
        "  g cap3: primitive -> blocks",
    ]
