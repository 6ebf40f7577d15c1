"""One sha256 over the verdicts of every driver on a fixed set of groups.

Run from the repository root::

    python tools/verdict_digest.py           # the digest
    python tools/verdict_digest.py --cases   # one JSON line per case instead
    python tools/verdict_digest.py --oracle  # also check against the baseline
    python tools/verdict_digest.py --compare OLD_CASES.jsonl

Each case is a group and a driver: ``primitivity_main``, ``ss_uncapped``,
``primitivity_subquadratic`` (the five-thirds cap law, with its own escape
kind) and ``_capped_driver`` at caps 1, 2 and 3 (escape ``partial_base``).
The groups are ``standard_corpus()`` and, for each member, three seeded
relabellings with 0, 1 and 2 extra random-word generators. A case's record
holds the verdict kind, the blocks, the certificate and
``diagnostics.as_dict()``, so two trees print the same digest exactly when
every driver answers every group the same way, down to its counters. A
change meant to keep verdicts identical is checked by running this before
and after it: copy this one file into a checkout of the older commit and
run it there too. For that it needs nothing but the standard library and
the package under ``src`` next to it, so it keeps its own copy of the
tests' relabelling.

A change that moves the digest on purpose shows what moved with
``--compare``: given a ``--cases`` output saved at the older commit, it
prints after the digest line how many cases differ and, per record field
(each diagnostics counter a field of its own), in how many, with how many
went lower and how many higher where both values are numbers, and then
one line per case whose verdict kind moved: its group, its driver and
the old and new kind. Cases are matched by group and driver. It shows
with ``--oracle`` that the verdicts are still right: every ``primitive``
or ``blocks`` kind is compared with ``atkinson_baseline`` on its group,
and every block system is validated against the generators. The last
line gives the number of mismatches, and the exit status is 1 if there
is any. Escape and partial-base kinds claim no answer, so the baseline
cannot judge them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blocksift.blocks import atkinson_baseline, validate_block_system  # noqa: E402
from blocksift.corpus import standard_corpus  # noqa: E402
from blocksift.perm import GeneratorSet, Permutation  # noqa: E402
from blocksift.primitivity import (  # noqa: E402
    _capped_driver,
    primitivity_main,
    primitivity_subquadratic,
    ss_uncapped,
)

DRIVERS = [
    ("main", primitivity_main),
    ("uncapped", ss_uncapped),
    ("subquadratic", primitivity_subquadratic),
] + [
    (f"cap{cap}", lambda gens, cap=cap: _capped_driver(gens, cap, "partial_base"))
    for cap in (1, 2, 3)
]


def relabel(gens: GeneratorSet, rng: random.Random, extra: int) -> GeneratorSet:
    """The same group under a random point relabelling, with ``extra``
    generators appended, each a random word of up to 12 letters."""
    n = gens.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for g in gens.generators:
        images = [0] * n
        for p, q in enumerate(g.images):
            images[sigma[p]] = sigma[q]
        out.append(Permutation(images))
    base = list(out)
    for _ in range(extra):
        g = Permutation.identity(n)
        for _ in range(rng.randint(0, 12)):
            s = rng.choice(base)
            g = g * (s.inverse() if rng.random() < 0.5 else s)
        out.append(g)
    return GeneratorSet(n, out)


def groups():
    for entry in standard_corpus():
        yield entry.name, entry.gens
        for extra in (0, 1, 2):
            rng = random.Random(f"{entry.name}/{extra}")
            yield f"{entry.name}/relabel+{extra}", relabel(entry.gens, rng, extra)


def record(group: str, driver: str, v) -> dict:
    cert = v.certificate
    return {
        "group": group,
        "driver": driver,
        "kind": v.kind,
        "blocks": v.blocks.blocks if v.blocks else None,
        "certificate": [[beta, list(g.images)] for beta, g in cert.entries] if cert else None,
        "diagnostics": v.diagnostics.as_dict(),
    }


def oracle_mismatch(gens: GeneratorSet, v, baseline) -> bool:
    """True if a ``primitive`` or ``blocks`` verdict disagrees with the
    baseline's answer, or its block system is not one of the group."""
    if v.kind == "primitive":
        return baseline is not None
    if v.kind == "blocks":
        return baseline is None or not validate_block_system(gens, v.blocks)
    return False


def fields(rec: dict) -> dict:
    """A case record's fields, with each diagnostics counter its own field."""
    out = {k: v for k, v in rec.items() if k != "diagnostics"}
    out.update({f"diagnostics.{k}": v for k, v in rec["diagnostics"].items()})
    return out


def compare(old_lines, new_lines) -> list[str]:
    """Report of how two ``--cases`` outputs differ: the cases that differ,
    then per field the cases it differs in, lower and higher from old to
    new where both values are numbers, then each case whose kind moved."""
    old, new = ({(r["group"], r["driver"]): fields(r) for r in map(json.loads, lines)}
                for lines in (old_lines, new_lines))
    shared = [key for key in new if key in old]
    counts: dict[str, list[int]] = {}  # field -> [cases, lower, higher]
    differ = 0
    kinds = []  # one line per case whose kind moved
    for key in shared:
        a, b = old[key], new[key]
        moved = [f for f in a.keys() | b.keys() if a.get(f) != b.get(f)]
        differ += bool(moved)
        if a["kind"] != b["kind"]:
            kinds.append(f"  {key[0]} {key[1]}: {a['kind']} -> {b['kind']}")
        for f in moved:
            c = counts.setdefault(f, [0, 0, 0])
            c[0] += 1
            x, y = a.get(f), b.get(f)
            if isinstance(x, (int, float)) and isinstance(y, (int, float)):
                c[1] += y < x
                c[2] += y > x
    out = [f"{differ} of {len(shared)} cases differ"]
    if len(shared) < len(old) or len(shared) < len(new):
        out.append(f"{len(old) - len(shared)} cases only in the old file, "
                   f"{len(new) - len(shared)} only in this tree")
    for f, (cases, lower, higher) in sorted(counts.items()):
        moves = f" ({lower} lower, {higher} higher)" if lower + higher else ""
        out.append(f"{f}: {cases}{moves}")
    return out + kinds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", action="store_true",
                        help="print one JSON record per case instead of the digest")
    parser.add_argument("--oracle", action="store_true",
                        help="also check every verdict against atkinson_baseline")
    parser.add_argument("--compare", metavar="OLD_CASES.jsonl",
                        help="also count the cases and fields that differ "
                             "from a saved --cases output")
    args = parser.parse_args()
    digest = hashlib.sha256()
    count = mismatches = 0
    lines = []
    for name, gens in groups():
        baseline = atkinson_baseline(gens) if args.oracle else None
        for driver, decide in DRIVERS:
            v = decide(gens)
            line = json.dumps(record(name, driver, v), sort_keys=True)
            if args.cases:
                print(line)
            digest.update(line.encode() + b"\n")
            lines.append(line)
            count += 1
            if args.oracle and oracle_mismatch(gens, v, baseline):
                mismatches += 1
                print(f"oracle mismatch: {name} {driver} {v.kind}", file=sys.stderr)
    if not args.cases:
        print(f"{digest.hexdigest()}  ({count} cases)")
    if args.compare:
        with open(args.compare) as fh:
            print("\n".join(compare(fh.read().splitlines(), lines)))
    if args.oracle:
        print(f"{mismatches} oracle mismatches in {count} cases")
        sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
