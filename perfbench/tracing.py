"""Spans and work counters around the public functions of each fdsic layer.

The benchmark measures the package from outside: it replaces the names the
callers look up with wrappers. ``fdsic.harness`` binds its imports by name,
so most wrappers go into the ``fdsic.harness`` namespace; ``theory`` calls
``estimate_fourth_moment`` through its own module globals, and ``cli`` calls
``run_experiment`` through its own.

A wrapper always updates the work counters, which read only the call's
arguments and result. A timed recorder also opens a span per call: the
span's name, start, end, process CPU time, parent span and run id. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    run_id: str
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0


class Recorder:
    """Spans and counters of one run; ``timed=False`` keeps only counters."""

    def __init__(self, run_id: str, timed: bool):
        self.run_id = run_id
        self.timed = timed
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[Span] = []

    def call(self, name: str, layer: str, fn, args, kwargs):
        if not self.timed:
            return fn(*args, **kwargs)
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, layer, self.run_id,
                    start=time.perf_counter(), cpu_start=time.process_time())
        self.spans.append(span)
        self._open.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.cpu_end = time.process_time()
            self._open.pop()

    def span_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _count_signal(counts, args, kwargs, result):
    counts["signals.samples"] += len(result.samples)


def _count_render(counts, args, kwargs, result):
    counts["transceiver.samples_rendered"] += len(result.d.samples)


def _count_batch(counts, args, kwargs, result):
    trials = result.final_weights.shape[0]
    counts["cancellers.trial_steps"] += trials * result.n_steps
    counts["cancellers.loop_steps"] += result.n_steps
    counts["cancellers.diverged_trials"] += int(result.diverged.sum())


def _count_fourth_moment(counts, args, kwargs, result):
    rows, dim = args[0].shape
    counts["theory.fourth_moment_rows"] += rows
    # y = x kron x* has dim^2 entries; y^T conj(y) costs dim^4 complex
    # multiply-adds per row, 8 real flops each.
    counts["theory.fourth_moment_flop"] += 8 * dim ** 4 * rows


def _count_file(counts, args, kwargs, result):
    counts["io.files"] += 1
    counts["io.bytes"] += os.path.getsize(result)


# (module, attribute, layer, counter). The span name is "<layer>.<attribute>".
TARGETS = (
    ("fdsic.cli", "run_experiment", "harness", None),
    ("fdsic.harness", "gen_proper_gaussian", "signals", _count_signal),
    ("fdsic.harness", "gen_ofdm_waveform", "signals", _count_signal),
    ("fdsic.harness", "synthesize_channels", "transceiver", None),
    ("fdsic.harness", "render_observation", "transceiver", _count_render),
    ("fdsic.harness", "run_batch", "cancellers", _count_batch),
    ("fdsic.harness", "regressor_matrix", "cancellers", None),
    ("fdsic.harness", "anclms_ms_analysis", "theory", None),
    ("fdsic.theory", "estimate_fourth_moment", "theory", _count_fourth_moment),
    ("fdsic.harness", "anclms_transient", "theory", None),
    ("fdsic.harness", "condition_number", "theory", None),
    ("fdsic.harness", "line_plot", "io", _count_file),
    ("fdsic.harness", "heatmap", "io", _count_file),
    ("fdsic.harness", "write_csv", "io", _count_file),
)


def wrap(recorder: Recorder, name: str, layer: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = recorder.call(name, layer, fn, args, kwargs)
        if counter is not None:
            counter(recorder.counts, args, kwargs, result)
        return result
    return wrapper


def install(recorder: Recorder):
    """Replace every name in TARGETS with its wrapper (for this process)."""
    for module, attr, layer, counter in TARGETS:
        mod = importlib.import_module(module)
        setattr(mod, attr, wrap(recorder, f"{layer}.{attr}", layer,
                                getattr(mod, attr), counter))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its child spans cover.

    One thread makes every call, so the children of a span run one after
    another inside it and the time they cover is the sum of their durations.
    """
    covered: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}
