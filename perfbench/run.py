"""fdsic benchmark: desk-scale CLI experiments, timed from outside the package.

    python3 perfbench/run.py --workload bias|sweep-long|convergence
                             [--seed 17] [--seconds 25] [--trace 0|1]

Each run of a workload is a fresh interpreter (``child.py``) that imports
``fdsic`` from the checkout's ``src`` and calls ``fdsic.cli.main`` with the
workload's arguments, ``--seed <seed>`` and a temporary ``--out`` directory.
Runs follow each other in one process tree, one at a time, so the load never
has more threads than the BLAS library starts on its own.

``--trace 0`` repeats untraced runs for ``--seconds`` and reports medians of
the end-to-end metrics. ``--trace 1`` alternates untraced and traced runs
(at least one of each) and reports the per-layer metrics of the traced runs.
Every run passes through the correctness gate: raised exception, an exit
code that disagrees with the check verdicts, a failed check (but see below),
non-finite CSV values, CSV SHA-256 and exact work counts against the first
run of the set.

Three checks compare a Monte Carlo estimate with theory at a fixed threshold
that allows nothing for the estimate's own error (``SEED_SENSITIVE_CHECKS``).
The acceptance tests validate them at seed 17; at other desk-scale seeds
they fail by chance, so on the seed given to the benchmark they are reported
by name and counted (``harness.checks_failed``) but do not fail the run.
Instead each set also needs a run of its workload at seed 17 with every
check gated, made once per source tree and kept in
``.perfbench/acceptance-<workload>-<digest>.json``.

The last line of standard output is the JSON result; the full record, with
the seed, the environment and every span, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
PROFILE = "type2"
DEFAULT_SEED = 17
ACCEPTANCE_SEED = 17     # the seed the acceptance tests check the experiments at
DEFAULT_SECONDS = 25
HARD_LIMIT_S = 170.0     # a run of this script must end within 180 s
MIN_SETUPS = 6           # set-up samples per set, from runs and set-up probes
MAX_SETUPS = 12

# Seed-sensitive checks and how often they failed on random seeds at the
# workloads' scale: the ALMS per-tap bias within 10% on about one seed in
# six, the whitened run reaching 1 dB of steady state 1.8x sooner than the
# raw one on about half, and the SINR sweep within 0.5 dB of theory on one in
# 88. Every other check is gated on every run.
SEED_SENSITIVE_CHECKS = frozenset(
    {"alms_bias_10pct", "whitening_speedup", "sinr_theory_gap_0.5dB"})

# Every workload is a CLI experiment at the desk scale of 50 trials, run
# with --check on the type2 profile.
WORKLOADS = {
    # Four canceller jobs over one shared 50 x 30k batch and no fourth-moment
    # theory: the LMS loop (run_batch) is most of the wall time.
    "bias": ["bias", "--trials", "50", "--iterations", "30000"],
    # At 15 dBm the slow-mode rule asks for ~411k ANCLMS iterations, so the
    # trials split into chunks of 48 and 2 and the loop runs twice; rendering
    # is a quarter of the time. 10 dBm is left out: alone it runs 4 x 1.4M
    # loop steps (about 200 s).
    "sweep-long": ["sinr-sweep", "--trials", "50", "--tx-grid", "15,25"],
    # The 200k-regressor fourth-moment estimate, a whitened run, the
    # condition-number heatmap and plots: the only workload using theory.
    "convergence": ["convergence", "--trials", "50", "--iterations", "20000"],
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_frac", "frac"))

PER_LAYER = (
    ("cli.self_s", "s"),
    ("harness.self_s", "s"),
    ("harness.checks_failed", "count"),
    ("signals.gen_s", "s"),
    ("signals.samples", "count"),
    ("signals.ns_per_sample", "ns"),
    ("transceiver.render_s", "s"),
    ("transceiver.channels_s", "s"),
    ("transceiver.samples_rendered", "count"),
    ("transceiver.ns_per_sample", "ns"),
    ("cancellers.run_batch_s", "s"),
    ("cancellers.regressor_s", "s"),
    ("cancellers.ns_per_trial_step", "ns"),
    ("cancellers.trial_steps", "count"),
    ("cancellers.loop_steps", "count"),
    ("cancellers.lockstep_width", "trials"),
    ("cancellers.diverged_trials", "count"),
    ("theory.ms_analysis_s", "s"),
    ("theory.fourth_moment_s", "s"),
    ("theory.fourth_moment_rows", "count"),
    ("theory.fourth_moment_gflops", "GFLOP/s"),
    ("theory.transient_s", "s"),
    ("theory.condition_s", "s"),
    ("theory.cpu_per_wall", "ratio"),
    ("io.write_s", "s"),
    ("io.bytes", "bytes"),
    ("io.files", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
)

LAYERS = ("cli", "harness", "signals", "transceiver", "cancellers", "theory", "io")

# Printed next to a metric that is derived rather than timed or counted.
NOTES = {"theory.fourth_moment_gflops":
         "(computed: 8 * dim^4 * rows flop / theory.fourth_moment_s)"}

_CHECK_LINE = re.compile(r"^check\[(.+)\] = (pass|FAIL)\b")
_ITERATIONS_LINE = "anclms_iterations = "


class SetupError(RuntimeError):
    """The benchmark cannot run here (no sources, or fdsic fails to import)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child(mode: str, extra: list[str], run_dir: Path, deadline: float) -> float:
    """Run child.py to completion; return its set-up time (spawn to 'ready')."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), PROFILE,
           mode, *extra]
    err_path = run_dir / "stderr.txt"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(deadline - time.monotonic(), 0.0))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            pass  # killed below; the run then has no result file
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if line.strip() != "ready":
        tail = err_path.read_text()[-2000:]
        raise SetupError(f"child did not get ready ({mode}): {tail}")
    return setup


def _finite(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def inspect_outputs(out: Path) -> dict:
    """CSV digests, non-finite CSVs, check verdicts and work lines of one run."""
    digests, nonfinite, checks, meta = {}, [], {}, {}
    for path in sorted(out.glob("*.csv")):
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        rows = data.decode().splitlines()[1:]
        if not all(_finite(v) for row in rows for v in row.split(",")):
            nonfinite.append(path.name)
    meta_path = out / "meta.txt"
    if meta_path.is_file():
        for line in meta_path.read_text().splitlines():
            match = _CHECK_LINE.match(line)
            if match:
                checks[match[1]] = match[2] == "pass"
            elif line.startswith(_ITERATIONS_LINE):
                meta["meta.anclms_iterations"] = line[len(_ITERATIONS_LINE):]
    return {"csv_sha256": digests, "nonfinite_csv": nonfinite,
            "checks": checks, "meta_work": meta}


def run_once(workload: str, seed: int, traced: bool, index: int | str,
             tmp: Path, deadline: float) -> dict:
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp))
    try:
        out, result_path = run_dir / "out", run_dir / "result.json"
        argv = [*WORKLOADS[workload], "--profile", PROFILE, "--check",
                "--seed", str(seed), "--out", str(out)]
        run_id = f"{workload}-seed{seed}-run{index}"
        t0 = time.perf_counter()
        setup = _child("trace" if traced else "count",
                       [str(result_path), run_id, "--", *argv], run_dir, deadline)
        if result_path.is_file():
            rep = json.loads(result_path.read_text())
        else:
            rep = {"run_id": run_id, "rc": None, "counts": {}, "spans": [],
                   "error": "no result: " + (run_dir / "stderr.txt").read_text()[-2000:]}
        rep.update(inspect_outputs(out))
        rep.update(setup_s=setup, traced=traced, elapsed_s=time.perf_counter() - t0)
        return rep
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def setup_probe(tmp: Path, deadline: float) -> float:
    run_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=tmp))
    try:
        return _child("setup", [], run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# correctness gate and metrics
# ---------------------------------------------------------------------------

def work_counts(rep: dict) -> dict:
    """Exact work done by one run; must repeat bit-for-bit within a set."""
    return {**rep["counts"], **rep["meta_work"]}


def failed_checks(rep: dict) -> list[str]:
    return [name for name, ok in rep["checks"].items() if not ok]


def run_reasons(rep: dict, every_check: bool) -> list[str]:
    """Named reasons one run fails on its own (empty when it passes)."""
    reasons = []
    if rep.get("error"):
        reasons.append("exception")
    elif rep.get("rc") != (3 if failed_checks(rep) else 0):
        reasons.append(f"exit_code_{rep.get('rc')}")
    if not rep["checks"]:
        reasons.append("no_checks_reported")
    reasons += [f"check_failed:{name}" for name in failed_checks(rep)
                if every_check or name not in SEED_SENSITIVE_CHECKS]
    if not rep["csv_sha256"]:
        reasons.append("no_csv_written")
    reasons += [f"nonfinite_csv:{name}" for name in rep["nonfinite_csv"]]
    return reasons


def gate(reps: list[dict]):
    """Attach to each run of a set the named reasons it fails."""
    ref = reps[0]
    for rep in reps:
        reasons = run_reasons(rep, every_check=False)
        for name in sorted(set(ref["csv_sha256"]) | set(rep["csv_sha256"])):
            if ref["csv_sha256"].get(name) != rep["csv_sha256"].get(name):
                reasons.append(f"csv_sha256_differs:{name}")
        ref_work, work = work_counts(ref), work_counts(rep)
        for name in sorted(set(ref_work) | set(work)):
            if ref_work.get(name) != work.get(name):
                reasons.append(f"work_count_differs:{name}")
        rep["reasons"] = reasons


def source_digest(workload: str) -> str:
    """SHA-256 of the sources under src/, the workload and the check seed."""
    h = hashlib.sha256(json.dumps([WORKLOADS[workload], PROFILE,
                                   ACCEPTANCE_SEED]).encode())
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def acceptance(workload: str, tmp: Path, deadline: float) -> dict:
    """Verdict of ``workload`` at ACCEPTANCE_SEED with every check gated.

    A passing verdict is kept and reused until the sources change: the CSVs
    are byte-identical for a fixed (config, seed), so it holds for the
    source tree it was made on.
    """
    path = WORK / f"acceptance-{workload}-{source_digest(workload)[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    rep = run_once(workload, ACCEPTANCE_SEED, False, "acceptance", tmp, deadline)
    verdict = {"seed": ACCEPTANCE_SEED, "checks": rep["checks"],
               "reasons": run_reasons(rep, every_check=True)}
    if not verdict["reasons"]:
        path.write_text(json.dumps(verdict, indent=1))
    return verdict


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(rep: dict) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time of one traced run."""
    spans = rep["spans"]
    own = self_times(spans)
    by_name, by_layer = Counter(), Counter()
    for s in spans:
        by_name[s["name"]] += own[s["id"]]
        by_layer[s["layer"]] += own[s["id"]]
    root = next(s for s in spans if s["parent"] is None)
    theory_top = [s for s in spans if s["layer"] == "theory"
                  and spans[s["parent"]]["layer"] != "theory"]
    theory_wall = sum(s["end"] - s["start"] for s in theory_top)
    theory_cpu = sum(s["cpu_end"] - s["cpu_start"] for s in theory_top)
    c = Counter(rep["counts"])
    gen_s = by_name["signals.gen_proper_gaussian"] + by_name["signals.gen_ofdm_waveform"]
    render_s = by_name["transceiver.render_observation"]
    batch_s = by_name["cancellers.run_batch"]
    fourth_s = by_name["theory.estimate_fourth_moment"]
    metrics = {
        "cli.self_s": by_name["cli.main"],
        "harness.self_s": by_name["harness.run_experiment"],
        "signals.gen_s": gen_s,
        "signals.samples": c["signals.samples"],
        "signals.ns_per_sample": _ratio(gen_s, c["signals.samples"], 1e9),
        "transceiver.render_s": render_s,
        "transceiver.channels_s": by_name["transceiver.synthesize_channels"],
        "transceiver.samples_rendered": c["transceiver.samples_rendered"],
        "transceiver.ns_per_sample": _ratio(render_s, c["transceiver.samples_rendered"], 1e9),
        "cancellers.run_batch_s": batch_s,
        "cancellers.regressor_s": by_name["cancellers.regressor_matrix"],
        "cancellers.ns_per_trial_step": _ratio(batch_s, c["cancellers.trial_steps"], 1e9),
        "cancellers.trial_steps": c["cancellers.trial_steps"],
        "cancellers.loop_steps": c["cancellers.loop_steps"],
        "cancellers.lockstep_width": _ratio(c["cancellers.trial_steps"],
                                            c["cancellers.loop_steps"]),
        "cancellers.diverged_trials": c["cancellers.diverged_trials"],
        "theory.ms_analysis_s": by_name["theory.anclms_ms_analysis"],
        "theory.fourth_moment_s": fourth_s,
        "theory.fourth_moment_rows": c["theory.fourth_moment_rows"],
        "theory.fourth_moment_gflops": _ratio(c["theory.fourth_moment_flop"], fourth_s, 1e-9),
        "theory.transient_s": by_name["theory.anclms_transient"],
        "theory.condition_s": by_name["theory.condition_number"],
        "theory.cpu_per_wall": _ratio(theory_cpu, theory_wall),
        "io.write_s": by_layer["io"],
        "io.bytes": c["io.bytes"],
        "io.files": c["io.files"],
        "trace.wall_s": root["end"] - root["start"],
    }
    return metrics, {layer: by_layer[layer] for layer in LAYERS}


def fmt(value: float) -> str:
    """Whole numbers (counts) in full, other values to six digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(reps: list[dict], accepted: dict, setups: list[float],
              trace: int) -> dict:
    failed = sum(1 for r in reps if r["reasons"])
    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    result = {"correct": failed == 0 and not accepted["reasons"],
              "attempted": len(reps), "failed": failed}
    if trace == 0:
        values = {
            "setup_s": _median(setups),
            "wall_s": _median([r["wall_s"] for r in plain]),
            "cpu_s": _median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "pass_frac": (len(reps) - failed) / len(reps),
        }
        units = dict(END_TO_END)
        result["layers"] = {}
    else:
        traced = [layer_metrics(r) for r in timed if r["traced"] and r["spans"]]
        values = {name: _median([m[name] for m, _ in traced])
                  for name, _ in PER_LAYER
                  if name not in ("harness.checks_failed", "trace.overhead_frac")}
        values["harness.checks_failed"] = len(failed_checks(reps[0]))
        values["trace.overhead_frac"] = _ratio(
            _median([r["wall_s"] for r in timed if r["traced"]]),
            _median([r["wall_s"] for r in plain])) - 1.0
        units = dict(PER_LAYER)
        result["layers"] = {layer: _median([lay[layer] for _, lay in traced])
                            for layer in LAYERS}
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    return result


# ---------------------------------------------------------------------------
# environment, one set of runs, printing
# ---------------------------------------------------------------------------

def environment(reps: list[dict]) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    first = reps[0] if reps else {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas": first.get("openblas"),
        "blas_threads": first.get("blas_threads"),
    }


def run_set(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Runs of one workload for ``seconds``, gated and summarized."""
    if not (ROOT / "src" / "fdsic" / "__init__.py").is_file():
        raise SetupError(f"no fdsic sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=WORK))
    reps, probes = [], []
    hard = time.monotonic() + HARD_LIMIT_S
    try:
        accepted = acceptance(workload, tmp, hard)
        start = time.monotonic()
        soft = start + seconds
        # trace 0: untraced runs only; trace 1: untraced, traced, untraced, ...
        while True:
            traced = trace == 1 and len(reps) % 2 == 1
            reps.append(run_once(workload, seed, traced, len(reps), tmp, hard))
            longest = max(r["elapsed_s"] for r in reps)
            if len(reps) >= (2 if trace else 1) and time.monotonic() + longest > soft:
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) + len(probes) < MAX_SETUPS:
            if len(setups) + len(probes) >= MIN_SETUPS and (
                    time.monotonic() + max(setups + probes) > soft):
                break
            probes.append(setup_probe(tmp, hard))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    gate(reps)
    result = summarize(reps, accepted, setups + probes, trace)
    result.update(workload=workload, seed=seed, trace=trace, seconds=seconds,
                  acceptance=accepted,
                  argv=WORKLOADS[workload], env=environment(reps),
                  setups=setups + probes, reps=reps,
                  elapsed_s=time.monotonic() - start)
    return result


def record(result: dict) -> Path:
    """Write the full record of a set (seed, environment, runs, spans)."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / (f"{stamp}-{result['workload']}-seed{result['seed']}"
                      f"-trace{result['trace']}-{os.getpid()}.json")
    path.write_text(json.dumps(result, indent=1))
    return path


def describe(result: dict) -> list[str]:
    """Human-readable lines: environment, gate, every metric, layer table."""
    env = result["env"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"runs {result['attempted']}  failed {result['failed']} "
        f"(fail_frac {result['failed'] / result['attempted']:.3g})  "
        f"set-ups {len(result['setups'])}  "
        f"elapsed {result['elapsed_s']:.1f} s",
        "env " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    accepted = result["acceptance"]
    lines.append(f"gate acceptance at seed {accepted['seed']} (every check gated): "
                 + ("ok" if not accepted["reasons"]
                    else "FAIL " + " ".join(accepted["reasons"])))
    for rep in result["reps"]:
        kind = "traced" if rep["traced"] else "untraced"
        verdict = "ok" if not rep["reasons"] else "FAIL " + " ".join(rep["reasons"])
        wall = f"{rep['wall_s']:.3f} s" if "wall_s" in rep else "n/a"
        lines.append(f"gate {rep['run_id']} ({kind}, wall {wall}): {verdict}")
    checks = result["reps"][0]["checks"]
    lines.append(f"checks at seed {result['seed']} (* = seed-sensitive, reported, "
                 "not gated): " + " ".join(
                     f"{n}{'*' if n in SEED_SENSITIVE_CHECKS else ''}="
                     f"{'pass' if ok else 'FAIL'}" for n, ok in checks.items()))
    for name, m in result["metrics"].items():
        note = NOTES.get(name, "")
        lines.append(f"metric {name} = {fmt(m['value'])} {m['unit']} {note}".rstrip())
    return lines + layer_table(result)


def layer_table(result: dict) -> list[str]:
    """Self time and share of the traced wall time per layer, largest first."""
    layers = result["layers"]
    if not layers:
        return []
    wall = result["metrics"]["trace.wall_s"]["value"]
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {t:>10.4f} {_ratio(t, wall, 100):>6.1f}%")
    lines.append(f"{'sum':<12} {sum(layers.values()):>10.4f}  (traced wall_s {wall:.4f})")
    lines.append(f"largest layer on {result['workload']}: "
                 f"{max(layers, key=layers.get)}")
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run_set(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = record(result)
    for line in describe(result):
        print(line)
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
