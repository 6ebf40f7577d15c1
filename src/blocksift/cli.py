"""Command-line front end.

Subcommands: ``primitive`` (capped drivers / uncapped), ``baseline``
(quadratic oracle), ``minblock``, ``sift-trace`` and ``gen`` (emits the
generators of a group spec such as ``wreath(alternating(8),2)``).
Generator input comes from ``--in FILE`` or stdin, in either
serialization format; results are JSON on stdout. Exit status is 0 for
any verdict, 2 for input errors (an unparsable or intransitive group, a
cap below 1, a group too large to build in memory), and 3 for an internal
fault: a failed invariant of the library, reported as ``error: internal:
...`` without a traceback. Input errors are ``ValueError``s and
``MemoryError``s, reported in one place, ``cli_main``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import corpus
from .blocks import InternalError, atkinson_baseline, minimal_block
from .ioformats import ParseError, emit_generators, parse_generators
from .perm import GeneratorSet, is_transitive
from .primitivity import (
    Verdict,
    _capped_driver,
    primitivity_main,
    primitivity_subquadratic,
    ss_uncapped,
)
from .sift import check_cap
from .transversal import build_point_transversal


def _read_gens(args) -> GeneratorSet:
    """The input generators, from ``--in`` or stdin (``parse_generators``)."""
    if args.infile:
        try:
            with open(args.infile) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.infile}: {exc.strerror}") from exc
    else:
        text = sys.stdin.read()
    return parse_generators(text)


def _verdict_json(v: Verdict, elapsed_ms: float) -> dict:
    return {
        "verdict": v.kind,
        "blocks": [list(b) for b in v.blocks.blocks] if v.blocks else None,
        "certificate": (
            [{"point": beta, "witness": list(g.images)} for beta, g in v.certificate.entries]
            if v.certificate
            else None
        ),
        "diagnostics": v.diagnostics.as_dict(),
        "time_ms": elapsed_ms,
    }


def _cmd_primitive(args) -> int:
    gens = _read_gens(args)
    start = time.perf_counter()
    if args.uncapped:
        verdict = ss_uncapped(gens)
    elif args.cap is not None:
        verdict = _capped_driver(gens, args.cap, "partial_base")
    elif args.law == "five-thirds":
        verdict = primitivity_subquadratic(gens)
    else:
        verdict = primitivity_main(gens)
    elapsed = (time.perf_counter() - start) * 1000
    print(json.dumps(_verdict_json(verdict, elapsed)))
    return 0


def _cmd_baseline(args) -> int:
    gens = _read_gens(args)
    start = time.perf_counter()
    system = atkinson_baseline(gens)
    elapsed = (time.perf_counter() - start) * 1000
    out = {
        "verdict": "blocks" if system else "primitive",
        "blocks": [list(b) for b in system.blocks] if system else None,
        "certificate": None,
        "diagnostics": None,
        "time_ms": elapsed,
    }
    print(json.dumps(out))
    return 0


def _cmd_minblock(args) -> int:
    gens = _read_gens(args)
    try:
        seed = [int(s) for s in args.seed.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --seed value: {args.seed!r}") from exc
    start = time.perf_counter()
    block = minimal_block(gens, seed)
    elapsed = (time.perf_counter() - start) * 1000
    print(json.dumps({"block": sorted(block), "time_ms": elapsed}))
    return 0


def _level_summary(levels) -> dict:
    """Each level's base point and the size of its Delta, in level order."""
    return {
        "base": [lv.beta for lv in levels],
        "delta_sizes": [len(lv.points) for lv in levels],
    }


def _cmd_sift_trace(args) -> int:
    gens = _read_gens(args)
    cap = args.cap if args.cap is not None else gens.degree
    check_cap(cap)
    if not is_transitive(gens):
        raise ValueError("sift-trace requires a transitive group")
    if gens.degree == 1:
        # primitive, as in the drivers: the orbit is {0} and nothing is sifted
        final = {"cap": cap, "sifts": 0, **_level_summary([])}
        print(json.dumps({"result": "transversal", "orbit": [0], "trace": [], "final": final}))
        return 0
    trace: list[dict] = []

    def on_sift(state, outcome):
        # the level a sift changed is the one whose Delta grew or opened
        trace.append(
            {"outcome": outcome.kind, "strip_steps": len(outcome.chain),
             **_level_summary(state.levels)}
        )

    state, rmap = build_point_transversal(gens, 0, cap, on_sift=on_sift)
    final = {"cap": cap, "sifts": state.sift_count, **_level_summary(state.levels)}
    print(
        json.dumps(
            {
                "result": "partial_base" if rmap is None else "transversal",
                "orbit": None if rmap is None else rmap.points,
                "trace": trace,
                "final": final,
            }
        )
    )
    return 0


def _cmd_gen(args) -> int:
    print(emit_generators(corpus.build(corpus.parse_spec(args.spec)), fmt=args.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksift",
        description="Primitivity testing and block systems for transitive permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--in", dest="infile", metavar="FILE", default=None,
                       help="read generators from FILE instead of stdin")

    p = sub.add_parser("primitive", help="run the capped primitivity driver")
    add_input(p)
    # one cap selector at most: a conflict is a usage error (exit 2)
    cap_choice = p.add_mutually_exclusive_group()
    cap_choice.add_argument("--law", choices=["main", "five-thirds"], default=None,
                            help="cap law (default main)")
    cap_choice.add_argument("--cap", type=int, default=None, help="override the base-size cap L")
    cap_choice.add_argument("--uncapped", action="store_true",
                            help="run with cap n (always decides)")

    p = sub.add_parser("baseline", help="run the quadratic baseline test")
    add_input(p)

    p = sub.add_parser("minblock", help="smallest block containing a seed set")
    add_input(p)
    p.add_argument("--seed", required=True, metavar="P,Q,...",
                   help="comma-separated 0-based seed points")

    p = sub.add_parser("sift-trace", help="summarize each sift of the point transversal build")
    add_input(p)
    p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("gen", help="emit the generators of a group spec")
    p.add_argument("spec", help="group spec, e.g. 'wreath(alternating(8),2)'")
    p.add_argument("--format", choices=["json", "cycles"], default="json")

    return parser


_COMMANDS = {
    "primitive": _cmd_primitive,
    "baseline": _cmd_baseline,
    "minblock": _cmd_minblock,
    "sift-trace": _cmd_sift_trace,
    "gen": _cmd_gen,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a group too large for this machine, such as gen 'cyclic(10**11)'
        print("error: out of memory", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())
