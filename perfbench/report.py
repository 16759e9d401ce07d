"""Print every metric of every workload by name and unit, and the layer table.

    python3 perfbench/report.py [--seed 17] [--seconds 25] [--workload NAME ...]

Each workload runs one untraced set (end-to-end metrics) and one traced set
(per-layer metrics), as ``run.py --trace 0`` and ``--trace 1`` would. The
layer table gives each layer's self time as a share of the traced wall time
and names the largest layer of each workload, the one to speed up next.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS),
                        help="repeat to pick several (default: all)")
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    args = parser.parse_args(argv)
    names = args.workload or list(run.WORKLOADS)

    results = {}
    try:
        for name in names:
            for trace in (0, 1):
                result = run.run_set(name, args.seed, args.seconds, trace)
                run.record(result)
                results[name, trace] = result
    except run.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    first = results[names[0], 0]
    print(f"seed {args.seed}  seconds {args.seconds:g}")
    print("env " + "  ".join(f"{k}={v}" for k, v in first["env"].items()))
    width = max(len(n) for n, _ in run.END_TO_END + run.PER_LAYER)
    print(f"{'metric':<{width}} {'unit':<8}" + "".join(f" {n:>14}" for n in names))
    for trace, metrics in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        for metric, unit in metrics:
            cells = "".join(f" {run.fmt(results[n, trace]['metrics'][metric]['value']):>14}"
                            for n in names)
            print(f"{metric:<{width}} {unit:<8}{cells} {run.NOTES.get(metric, '')}".rstrip())
    for name in names:
        print()
        accepted = results[name, 0]["acceptance"]
        print(f"{name} acceptance at seed {accepted['seed']}: "
              + (" ".join(accepted["reasons"]) or "ok"))
        for trace in (0, 1):
            result = results[name, trace]
            failed = [f"{r['run_id']}: {' '.join(r['reasons'])}"
                      for r in result["reps"] if r["reasons"]]
            print(f"{name} trace {trace}: {result['attempted']} runs, "
                  f"{result['failed']} failed" + "".join(f"\n  {f}" for f in failed))
        print("\n".join(run.layer_table(results[name, 1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
