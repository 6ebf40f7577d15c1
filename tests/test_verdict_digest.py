"""Smoke test of ``tools/verdict_digest.py``, run as a script the way a
change that must keep every verdict the same runs it."""

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from blocksift.blocks import BlockSystem, atkinson_baseline
from blocksift.corpus import build, parse_spec
from blocksift.primitivity import Verdict

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_digest.py"


def run_tool(*flags: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(TOOL), *flags], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    spec = importlib.util.spec_from_file_location("verdict_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    c6, s3 = build(parse_spec("cyclic(6)")), build(parse_spec("symmetric(3)"))
    blocks = atkinson_baseline(c6)
    assert not tool.oracle_mismatch(c6, Verdict("blocks", blocks=blocks), blocks)
    assert tool.oracle_mismatch(c6, Verdict("primitive"), blocks)
    assert tool.oracle_mismatch(s3, Verdict("blocks", blocks=blocks), None)
    # a system of the right shape that the group does not preserve
    moved = BlockSystem.from_blocks(6, [[0, 1], [2, 3], [4, 5]])
    assert tool.oracle_mismatch(c6, Verdict("blocks", blocks=moved), blocks)
    assert not tool.oracle_mismatch(c6, Verdict("partial_base"), blocks)
