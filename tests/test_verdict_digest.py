"""Smoke test of ``tools/verdict_digest.py``, run as a script the way a
change that must keep every verdict the same runs it."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

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
