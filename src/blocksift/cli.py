"""Command-line front end.

Subcommands: ``primitive`` (capped drivers / uncapped), ``baseline``
(quadratic oracle), ``minblock``, ``sift-trace``, ``gen`` (corpus group
emitter), and ``bench``. Generator input comes from ``--in FILE`` or
stdin, in either serialization format; results are JSON on stdout. Exit
status is 0 for any verdict, 2 for input errors (an unparsable or
intransitive group, a cap below 1), and 3 for an internal fault: a failed
invariant of the library, reported as ``error: internal: ...`` without a
traceback.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from . import corpus
from .blocks import InternalError, atkinson_baseline, minimal_block
from .ioformats import ParseError, emit_generators, parse_generators
from .perm import GeneratorSet
from .primitivity import (
    Verdict,
    _capped_driver,
    primitivity_main,
    primitivity_subquadratic,
    ss_uncapped,
)


class InputError(Exception):
    pass


def _read_gens(args) -> GeneratorSet:
    if args.infile:
        try:
            with open(args.infile) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.infile}: {exc.strerror}") from exc
    else:
        text = sys.stdin.read()
    try:
        return parse_generators(text)
    except ParseError as exc:
        raise InputError(f"parse error: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _verdict_json(v: Verdict, elapsed_ms: float) -> dict:
    return {
        "verdict": v.kind,
        "blocks": [list(b) for b in v.blocks.blocks] if v.blocks else None,
        "certificate": (
            [{"point": beta, "witness": list(g.images)} for beta, g in v.certificate.entries]
            if v.certificate
            else None
        ),
        "diagnostics": v.diagnostics.as_dict() if v.diagnostics else None,
        "time_ms": elapsed_ms,
    }


def _cmd_primitive(args) -> int:
    gens = _read_gens(args)
    start = time.perf_counter()
    try:
        if args.uncapped:
            verdict = ss_uncapped(gens)
        elif args.cap is not None:
            verdict = _capped_driver(gens, args.cap, "partial_base")
        elif args.law == "five-thirds":
            verdict = primitivity_subquadratic(gens)
        else:
            verdict = primitivity_main(gens)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    elapsed = (time.perf_counter() - start) * 1000
    print(json.dumps(_verdict_json(verdict, elapsed)))
    return 0


def _cmd_baseline(args) -> int:
    gens = _read_gens(args)
    start = time.perf_counter()
    try:
        system = atkinson_baseline(gens)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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
        raise InputError(f"bad --seed value: {args.seed!r}") from exc
    start = time.perf_counter()
    try:
        block = minimal_block(gens, seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    elapsed = (time.perf_counter() - start) * 1000
    print(json.dumps({"block": sorted(block), "time_ms": elapsed}))
    return 0


def _cmd_sift_trace(args) -> int:
    from .transversal import build_point_transversal

    gens = _read_gens(args)
    cap = args.cap if args.cap is not None else gens.degree
    if cap < 1:
        raise InputError("cap must be at least 1")
    if gens.degree == 1:
        # primitive, as in the drivers: the orbit is {0} and nothing is sifted
        final = {"degree": 1, "cap": cap, "levels": [], "sifts": 0}
        print(json.dumps({"result": "transversal", "orbit": [0], "trace": [], "final": final}))
        return 0
    trace: list[dict] = []

    def on_sift(state, outcome):
        snap = state.debug_dump()
        snap["outcome"] = outcome.kind
        trace.append(snap)

    try:
        result = build_point_transversal(gens, 0, cap, on_sift=on_sift)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(
        json.dumps(
            {
                "result": result.kind,
                "orbit": result.orbit,
                "trace": trace,
                "final": result.state.debug_dump(),
            }
        )
    )
    return 0


def _spec_from_flags(args) -> corpus.GroupSpec:
    family = args.family.lower().replace("-", "_")
    if family in ("wreath", "wreath_imprimitive"):
        if not args.inner or args.d is None:
            raise InputError("wreath needs --inner SPEC and --d D")
        inner = corpus.parse_spec(args.inner)
        return corpus.GroupSpec("wreath", inner=inner, d=args.d)
    parts = []
    if family in ("cyclic", "dihedral"):
        if args.n is None:
            raise InputError(f"{family} needs --n N")
        parts = [str(args.n)]
    elif family in ("symmetric", "alternating"):
        if args.m is None:
            raise InputError(f"{family} needs --m M")
        parts = [str(args.m)]
    elif family == "subsets":
        if args.m is None or args.k is None:
            raise InputError("subsets needs --m M and --k K")
        parts = [str(args.m), str(args.k)]
    elif family == "product":
        if args.m is None or args.d is None:
            raise InputError("product needs --m M and --d D")
        parts = [str(args.m), str(args.d)]
    elif family == "m24":
        parts = []
    else:
        raise InputError(f"unknown family {args.family!r}")
    text = family if not parts else f"{family}({','.join(parts)})"
    return corpus.parse_spec(text)


def _cmd_gen(args) -> int:
    try:
        spec = _spec_from_flags(args)
        gens = corpus.build(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(emit_generators(gens, fmt=args.format))
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise InputError(f"bad --sizes value: {args.sizes!r}") from exc
    family = args.family.lower().replace("-", "_")
    print("family,n,|S|,time_ms,sifts,h_updates,sum_Xi")
    for size in sizes:
        try:
            spec = corpus.parse_spec(f"{family}({size})")
            gens = corpus.build(spec)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        times = []
        verdict = None
        for _ in range(args.runs):
            start = time.perf_counter()
            verdict = primitivity_main(gens)
            times.append((time.perf_counter() - start) * 1000)
        d = verdict.diagnostics
        print(
            f"{family},{gens.degree},{len(gens)},"
            f"{statistics.median(times):.3f},{d.sifts},{d.h_updates},{d.sum_xi}"
        )
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
    p.add_argument("--law", choices=["main", "five-thirds"], default="main")
    p.add_argument("--cap", type=int, default=None, help="override the base-size cap L")
    p.add_argument("--uncapped", action="store_true", help="run with cap n (always decides)")

    p = sub.add_parser("baseline", help="run the quadratic baseline test")
    add_input(p)

    p = sub.add_parser("minblock", help="smallest block containing a seed set")
    add_input(p)
    p.add_argument("--seed", required=True, metavar="P,Q,...",
                   help="comma-separated 0-based seed points")

    p = sub.add_parser("sift-trace", help="dump the sifting structure's evolution")
    add_input(p)
    p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("gen", help="emit a corpus group's generators")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--inner", help="compact inner-group spec, e.g. 'cyclic(2)'")
    p.add_argument("--format", choices=["json", "cycles"], default="json")

    p = sub.add_parser("bench", help="timing table for a one-parameter family")
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True, metavar="N1,N2,...")
    p.add_argument("--runs", type=int, default=5)

    return parser


_COMMANDS = {
    "primitive": _cmd_primitive,
    "baseline": _cmd_baseline,
    "minblock": _cmd_minblock,
    "sift-trace": _cmd_sift_trace,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())
