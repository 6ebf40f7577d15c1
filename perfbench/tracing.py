"""Outside-in layer trace of one process.

The tracer wraps the package's functions at the names their callers look
up (``orbit`` as imported into ``primitivity``, ``deep_cube_orbit`` as
imported into ``sift``, methods on their classes) and records a span per
call: name, start, end, parent span and decision id. Calls too frequent
for a span (``Word.apply``, ``Permutation.__init__``) are only counted.
Spans stay in memory and are written out once, at the end of a run.

Everything is patched only for the duration of one traced decision and
restored afterwards, so untraced calls in the same process run the
package's own code.
"""

from __future__ import annotations

import gc
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MS = 1e3


class Tracer:
    def __init__(self, bs):
        self.bs = bs
        # (name, start, end, parent span index or -1, decision id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.decision = -1
        self.decisions = 0  # ids handed out so far
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._cells: list[tuple[str, list[int]]] = []
        self._gc_start = 0.0

    # -- recording -----------------------------------------------------

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so every call records a span; ``hook(result, counts)``
        turns the result into counts at the same boundary."""
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.decision)
            if hook is not None:
                hook(result, tracer.counts[tracer.decision])
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so every call only bumps a count; the count moves to
        the decision when it ends."""
        cell = [0]
        self._cells.append((name, cell))

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            c = self.counts[self.decision]
            c["runtime.gc_collections"] += 1
            c["runtime.gc_s"] += perf_counter() - self._gc_start

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        c = self.counts[self.decision]
        for name, cell in self._cells:
            c[name] += cell[0]
        self._cells.clear()

    def _install(self):
        bs = self.bs
        prim, blocks, sift = bs.primitivity, bs.blocks, bs.sift
        Word, Permutation, SiftState = bs.words.Word, bs.perm.Permutation, sift.SiftState

        def on_sift(outcome, c):
            c[f"sift.{outcome.kind}"] += 1
            c["sift.strip_steps"] += len(outcome.chain)

        def on_blockness(res, c):
            c["blocks.blockness_hits"] += res.kind == "is_block"

        def on_cube(res, c):
            c["words.cube_points"] += len(res[0])

        spans = [
            (prim, "ss_primitivity", "primitivity.ss_primitivity", None),
            (prim, "orbit", "primitivity.candidate_bfs", None),
            (prim, "is_transitive", "perm.is_transitive", None),
            (blocks, "is_transitive", "perm.is_transitive", None),
            (prim, "build_point_transversal", "transversal.point", None),
            (prim, "build_scoped_transversal", "transversal.scoped", None),
            (prim, "blockness_test", "blocks.blockness", on_blockness),
            (prim, "minimal_block", "blocks.minimal_block", None),
            (prim, "find_blocks_from_certificate", "primitivity.certificate_fallback", None),
            (SiftState, "deep_sift", "sift.deep_sift", on_sift),
            (sift, "deep_cube_orbit", "words.deep_cube_orbit", on_cube),
            (Word, "eval", "words.eval", None),
        ]
        for owner, attr, name, hook in spans:
            self._patch(owner, attr, self.span(name, getattr(owner, attr), hook))
        self._patch(Word, "apply", self.counter("words.apply_calls", Word.apply))
        self._patch(
            Permutation, "__init__", self.counter("perm.perms_built", Permutation.__init__)
        )

    @contextmanager
    def traced(self):
        """Trace one decision under the next id: patch, collect GC time,
        restore."""
        self.decision = self.decisions
        self.decisions += 1
        self._install()
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._restore()
            self.decision = -1

    # -- derived numbers -----------------------------------------------

    def per_decision(self) -> dict[int, dict[str, float]]:
        """Per decision: span time, self time and count by name, the counts
        of spans by (name, parent name), and the boundary counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for idx, (name, start, end, parent, dec) in enumerate(self.spans):
            c = out[dec]
            dur = end - start
            c[f"{name}.s"] += dur
            c[f"{name}.self_s"] += dur - child_time[idx]
            c[f"{name}.n"] += 1
            if parent >= 0:
                c[f"{name}.n@{self.spans[parent][0]}"] += 1
        for dec, counts in self.counts.items():
            out[dec].update(counts)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "decision"]}))
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(c: Counter) -> dict[str, float]:
    """Per-layer metrics of one primitivity_main round from summed counts."""
    sift_calls = c["sift.deep_sift.n"]
    scan = c["primitivity.candidate_bfs.n"]
    tested = c["blocks.blockness.n@primitivity.ss_primitivity"]
    blockness = c["blocks.blockness.n"]
    return {
        "primitivity.scan_orbits": scan,
        "primitivity.candidate_bfs_ms": c["primitivity.candidate_bfs.s"] * MS,
        "primitivity.candidates_tested": tested,
        "primitivity.candidate_yield": _ratio(tested, scan),
        "primitivity.self_ms": (
            c["primitivity.main.self_s"] + c["primitivity.ss_primitivity.self_s"]
        ) * MS,
        "primitivity.h_updates": c["sift.deep_sift.n@primitivity.ss_primitivity"],
        "transversal.point_ms": c["transversal.point.s"] * MS,
        "transversal.point_self_ms": c["transversal.point.self_s"] * MS,
        "transversal.scoped_calls": c["transversal.scoped.n"],
        "transversal.scoped_ms": c["transversal.scoped.s"] * MS,
        "words.cube_orbit_calls": c["words.deep_cube_orbit.n"],
        "words.cube_orbit_ms": c["words.deep_cube_orbit.s"] * MS,
        "words.cube_points": c["words.cube_points"],
        "words.eval_calls": c["words.eval.n"],
        "words.eval_ms": c["words.eval.s"] * MS,
        "words.apply_calls": c["words.apply_calls"],
        "sift.calls": sift_calls,
        "sift.self_ms": c["sift.deep_sift.self_s"] * MS,
        "sift.appended": c["sift.appended"],
        "sift.new_base": c["sift.new_base_point"],
        "sift.to_identity": c["sift.sifted_to_identity"],
        "sift.useful_ratio": _ratio(
            c["sift.appended"] + c["sift.new_base_point"], sift_calls
        ),
        "sift.strip_steps": c["sift.strip_steps"],
        "blocks.blockness_calls": blockness,
        "blocks.blockness_ms": c["blocks.blockness.s"] * MS,
        "blocks.blockness_hit_ratio": _ratio(c["blocks.blockness_hits"], blockness),
        "perm.is_transitive_calls": c["perm.is_transitive.n"],
        "perm.is_transitive_ms": c["perm.is_transitive.s"] * MS,
        "perm.perms_built": c["perm.perms_built"],
        "runtime.gc_ms": c["runtime.gc_s"] * MS,
        "runtime.gc_collections": c["runtime.gc_collections"],
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
