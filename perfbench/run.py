"""blocksift benchmark: decide seeded, relabelled groups from one regime.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload primitive_prime --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout and nowhere else.
One caller in one process decides instances in a closed loop: a *round*
decides every instance of one variant of the workload once with one entry
point, and each call gets a freshly built ``GeneratorSet``. The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed as speed_mod
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 11
ENTRIES = ("main", "uncapped", "baseline")
# ss_uncapped runs the same code as primitivity_main with a higher cap, so it
# decides the instances of every second variant only; its time is printed,
# not reported as a metric.
UNCAPPED_EVERY = 2
MAX_MEASURE_S = 120.0
DIAG_FIELDS = ("sifts", "h_updates", "candidates_tested")
MAX_REPORTED_FAILURES = 10


class PackageMissing(Exception):
    pass


def load_package() -> SimpleNamespace:
    """Import (or re-import, from scratch) blocksift from ``src/``."""
    if not (SRC / "blocksift" / "__init__.py").is_file():
        raise PackageMissing(f"no blocksift package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "blocksift" or m.startswith("blocksift.")]:
        del sys.modules[name]
    pkg = importlib.import_module("blocksift")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise PackageMissing(f"blocksift imported from {pkg.__file__}, not {SRC}")
    mods = {
        m: importlib.import_module(f"blocksift.{m}")
        for m in ("perm", "words", "sift", "transversal", "blocks", "primitivity", "ioformats")
    }
    return SimpleNamespace(
        GeneratorSet=pkg.GeneratorSet, Permutation=pkg.Permutation, **mods
    )


def measure_setup(instances, trace, speed):
    """Import the package and parse every instance, SETUP_REPS times.

    Returns the last import, the parsed generator images per instance, the
    set-up times at the reference speed and, when tracing, the parse times
    of each repetition.
    """
    setup_s, parse_ms = [], []
    speed.sample()
    for _ in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        bs = load_package()
        parse = bs.ioformats.parse_generators
        if trace:
            tracer = tracing.Tracer(bs)
            parse = tracer.span("ioformats.parse", parse)
        parsed = [parse(inst.text) for inst in instances]
        took = perf_counter() - start
        speed.sample()
        setup_s.append(speed.scaled(start, took))
        if trace:
            parse_ms.append(sum(s[2] - s[1] for s in tracer.spans) * tracing.MS)
    images = [[g.images for g in gens.generators] for gens in parsed]
    return bs, images, setup_s, parse_ms


class Checker:
    """Counts decisions and failures against the expected and oracle verdicts.

    Each decision is checked at once against the family's verdict and, for
    block systems, with ``validate_block_system``. The oracle is the
    baseline's verdict on the same instance; ``finish`` also fails every
    other decision that matched the family but not a disagreeing oracle.
    """

    def __init__(self, bs, instances):
        self.bs = bs
        self.instances = instances
        self.oracle: list[str | None] = [None] * len(instances)
        self.agreeing = [0] * len(instances)  # passed non-baseline decisions
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def verdict(entry: str, result):
        if entry == "baseline":
            return ("primitive", None) if result is None else ("blocks", result)
        return result.kind, result.blocks

    def problem(self, entry, i, gens, result, exc) -> str | None:
        if exc is not None:
            return "raised " + "".join(traceback.format_exception_only(exc)).strip()
        try:
            kind, system = self.verdict(entry, result)
        except AttributeError as e:
            return f"unreadable verdict {result!r}: {e}"
        if entry == "baseline":
            self.oracle[i] = kind
        expected = self.instances[i].expected
        if kind != expected:
            return f"verdict {kind!r}, family says {expected!r}"
        if kind == "blocks" and not (
            system.nontrivial and self.bs.blocks.validate_block_system(gens, system)
        ):
            return "block system fails validation"
        return None

    def record(self, entry, i, gens, result, exc=None) -> bool:
        self.attempted += 1
        problem = self.problem(entry, i, gens, result, exc)
        if problem is None:
            if entry != "baseline":
                self.agreeing[i] += 1
            return True
        self.fail(f"{entry} on {self.instances[i].spec} #{i}: {problem}")
        return False

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {message}", file=sys.stderr)

    def finish(self) -> None:
        for i, inst in enumerate(self.instances):
            if self.agreeing[i] and self.oracle[i] not in (None, inst.expected):
                self.fail(
                    f"{self.agreeing[i]} decisions on {inst.spec} #{i}: "
                    f"oracle says {self.oracle[i]!r}",
                    self.agreeing[i],
                )


class Variants:
    """Round ``r`` of an entry point decides variant ``r mod count``."""

    def __init__(self, per_variant: int, count: int):
        self.per_variant = per_variant
        self.count = count

    def round(self, r: int) -> range:
        v = r % self.count
        return range(v * self.per_variant, (v + 1) * self.per_variant)


def timed_round(fn, entry, bs, images, indices, checker, around=None, speed=None):
    """Decide the given instances once each; returns (times, scaled,
    results, passed). With a speedometer, calibration passes run between
    the decisions, and ``scaled`` holds the times at the reference speed."""
    gens_list = [
        bs.GeneratorSet(len(images[i][0]), [bs.Permutation(g) for g in images[i]])
        for i in indices
    ]
    gc.collect()
    starts, times, results, passed = [], [], [], []
    for i, gens in zip(indices, gens_list):
        if speed is not None:
            speed.maybe()
        result = exc = None
        with around() if around else nullcontext():
            start = perf_counter()
            try:
                result = fn(gens)
            except Exception as e:  # counted as a failed decision
                exc = e
            end = perf_counter()
        starts.append(start)
        times.append(end - start)
        results.append(result)
        passed.append(checker.record(entry, i, gens, result, exc))
    scaled = times
    if speed is not None:
        speed.sample()
        scaled = [speed.scaled(s, t) for s, t in zip(starts, times)]
    return times, scaled, results, passed


def oracle_top_up(entries, bs, images, checker):
    """Untimed baseline decisions on instances the timed rounds missed."""
    missing = [i for i, o in enumerate(checker.oracle) if o is None]
    if missing:
        timed_round(entries["baseline"], "baseline", bs, images, missing, checker)


def middle_mean(values) -> float:
    """Mean of the middle half of ``values``: a quarter is cut off each end."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut:len(values) - cut])


def typical_round(samples: dict[int, list[float]], variants) -> float:
    """Sum over the workload's specs of the mean of the middle half, over
    the variants decided, of the instance's median decision time.

    The cost of one spec depends on the labelling several-fold, with a
    long upper tail, so only the middle of its spread over variants is
    averaged: that keeps the seed's draw of labellings out.
    """
    size = variants.count * variants.per_variant
    total = 0.0
    for s in range(variants.per_variant):
        total += middle_mean(
            statistics.median(samples[i])
            for i in range(s, size, variants.per_variant)
            if i in samples
        )
    return total


def _quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def measure_end_to_end(entries, bs, images, variants, checker, seconds, speed):
    """One pass over the variants, in which primitivity_main and the
    baseline decide every variant and ss_uncapped every second one, then
    primitivity_main alone until ``seconds`` have passed. Returns the
    typical round time of primitivity_main at the reference speed (see
    ``speed.py``); the other two are only printed."""
    samples = {k: defaultdict(list) for k in ENTRIES}  # instance -> scaled times
    raw_rounds = {k: [] for k in ENTRIES}
    main_calls: list[float] = []

    def decide(entry, r):
        indices = variants.round(r)
        times, scaled, _, _ = timed_round(
            entries[entry], entry, bs, images, indices, checker, speed=speed
        )
        raw_rounds[entry].append(sum(times))
        for i, t in zip(indices, scaled):
            samples[entry][i].append(t)
        if entry == "main":
            main_calls.extend(scaled)

    start = perf_counter()
    for v in range(variants.count):
        decide("main", v)
        decide("baseline", v)
        if v % UNCAPPED_EVERY == 0:
            decide("uncapped", v)
    r = variants.count
    while perf_counter() - start < seconds:
        decide("main", r)
        r += 1

    for k in ENTRIES:
        q = _quartiles(raw_rounds[k])
        print(
            f"{k} rounds: {len(raw_rounds[k])}, unscaled round time quartiles "
            f"{q[0]:.4f} {q[1]:.4f} {q[2]:.4f} s, typical round at reference "
            f"speed {typical_round(samples[k], variants):.4f} s"
        )
    q = _quartiles(speed.took)
    print(
        f"calibration passes: {len(speed.took)}, quartiles {q[0] * tracing.MS:.3f} "
        f"{q[1] * tracing.MS:.3f} {q[2] * tracing.MS:.3f} ms, reference "
        f"{speed_mod.REF_S * tracing.MS:.3f} ms"
    )
    if len(main_calls) >= 100:
        p90 = statistics.quantiles(main_calls, n=10, method="inclusive")[-1]
        beyond = sum(t > p90 for t in main_calls)
        print(
            f"main calls: {len(main_calls)}, p90 at reference speed "
            f"{p90 * tracing.MS:.2f} ms, {beyond} beyond it"
        )
    return {"main_round_s": (typical_round(samples["main"], variants), "s")}


def _diag(result):
    return result.kind, tuple(getattr(result.diagnostics, f) for f in DIAG_FIELDS)


def measure_traced(entries, bs, images, variants, checker, seconds, tracer):
    """Alternate untraced and traced main rounds on the same variant; the
    layer metrics are medians over traced rounds."""
    main = entries["main"]
    traced_main = tracer.span("primitivity.main", main)
    plain, traced, per_round_ids = [], [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        full_passes = len(traced) >= variants.count and len(traced) % variants.count == 0
        if (elapsed >= seconds and full_passes) or elapsed >= MAX_MEASURE_S:
            break
        indices = variants.round(len(traced))
        times, _, reference, ref_ok = timed_round(main, "main", bs, images, indices, checker)
        plain.append(sum(times))
        first = tracer.decisions
        times, _, results, ok = timed_round(
            traced_main, "main", bs, images, indices, checker, around=tracer.traced
        )
        traced.append(sum(times))
        per_round_ids.append(range(first, tracer.decisions))
        for i, ref, ref_good, res, good in zip(indices, reference, ref_ok, results, ok):
            if ref_good and good and _diag(res) != _diag(ref):
                checker.fail(
                    f"traced main on {checker.instances[i].spec} #{i}: "
                    f"{_diag(res)} != untraced {_diag(ref)}"
                )
    per_decision = tracer.per_decision()
    rounds = []
    for ids in per_round_ids:
        total = Counter()
        for d in ids:
            total.update(per_decision.get(d, {}))
        rounds.append(tracing.round_metrics(total))
    metrics = tracing.median_metrics(rounds)
    traced_med, plain_med = statistics.median(traced), statistics.median(plain)
    metrics["trace.main_round_ms"] = traced_med * tracing.MS
    metrics["trace.overhead_frac"] = traced_med / plain_med - 1
    print(f"traced rounds: {len(traced)}, untraced rounds: {len(plain)}")
    return metrics


def run(workload, seed, seconds, trace, specs=None, wrap_entry=None):
    """One benchmark run; returns the result object printed as the last line.

    ``specs`` replaces the workload's instance list and ``wrap_entry(name,
    fn)`` wraps an entry point; both exist for the self-test.
    """
    bs = load_package()
    bs.corpus = importlib.import_module("blocksift.corpus")  # inputs only, not set-up
    pool = workloads.generate(bs, workload, seed, specs)
    instances = [inst for row in pool for inst in row]
    variants = Variants(len(pool[0]), len(pool))
    speed = speed_mod.Speedometer()
    bs, images, setup_s, parse_ms = measure_setup(instances, trace, speed)
    entries = {
        "main": bs.primitivity.primitivity_main,
        "uncapped": bs.primitivity.ss_uncapped,
        "baseline": bs.blocks.atkinson_baseline,
    }
    if wrap_entry is not None:
        entries = {k: wrap_entry(k, fn) for k, fn in entries.items()}
    checker = Checker(bs, instances)
    if trace:
        tracer = tracing.Tracer(bs)
        values = measure_traced(entries, bs, images, variants, checker, seconds, tracer)
        values["ioformats.parse_ms"] = statistics.median(parse_ms)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
    else:
        values = measure_end_to_end(entries, bs, images, variants, checker, seconds, speed)
    oracle_top_up(entries, bs, images, checker)
    checker.finish()
    if not trace:
        values["ok_frac"] = (1 - checker.failed / checker.attempted, "ratio")
        values["setup_s"] = (statistics.median(setup_s), "s")
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_yield", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except PackageMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
