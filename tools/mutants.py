"""Mutation audit: does tier-1 catch each of a fixed list of one-line faults?

Usage: python tools/mutants.py [--timeout SECONDS]

Each mutant is an exact ``(file, old, new)`` triple against the source as
it stands: a triple whose ``old`` text is not found exactly once in its
file is an error (exit 2, before anything runs), so the list cannot go
stale unseen. For each mutant, the checkout is copied to a temporary
directory (without ``.git`` and caches), the mutant is applied there, and
tier-1 runs there (``python -m pytest -q -x`` with that copy's ``src`` on
``PYTHONPATH``) under the time limit, 600 s by default. One JSON object is printed: each mutant's result, ``caught`` (a
test failed), ``survived`` (every test passed), ``timeout`` or ``error``
(pytest exited with another status), the first failing test and the
seconds taken. The exit status is 1 if any mutant survived.

Standard library only, and not part of tier-1: a survivor runs all of it.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file, old, new)
MUTANTS = {
    "diverged-factor-1e4": (
        "src/fdsic/harness.py",
        "run.peak_residual > 1e3 * run.d_power",
        "run.peak_residual > 1e4 * run.d_power"),
    "image-power-1dB": (
        "src/fdsic/transceiver.py",
        "target = db_to_lin(-irr_db) *",
        "target = db_to_lin(1.0 - irr_db) *"),
    "alms-high-imd-3x": (
        "src/fdsic/theory.py",
        "(mu * M * noise * s2 + 4.0 * imd) / denom",
        "(mu * M * noise * s2 + 3.0 * imd) / denom"),
    "alms-low-half-step": (
        "src/fdsic/theory.py",
        "return (1.0 - mu * s2) * point.sigma_v2 / denom",
        "return (1.0 - mu * s2 / 2) * point.sigma_v2 / denom"),
    "alms-mean-bound-1.9": (
        "src/fdsic/theory.py",
        "return 2.0 / sigma_x2",
        "return 1.9 / sigma_x2"),
    "whitened-no-trace-scaling": (
        "src/fdsic/harness.py",
        "mu_white = mu_opt * np.trace(r_opt) / len(r_opt)",
        "mu_white = mu_opt"),
    "reach-tolerance-1.5dB": (
        "src/fdsic/harness.py",
        "~(curve >= steady - 1.0)",
        "~(curve >= steady - 1.5)"),
    "reach-window-last-fifth": (
        "src/fdsic/harness.py",
        "curve[-max(len(curve) // 10, 1):]",
        "curve[-max(len(curve) // 5, 1):]"),
}

_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                     ".hypothesis", ".perfbench", "out")


def stale() -> list[str]:
    """The mutants whose ``old`` text is not in their file exactly once."""
    return [name for name in MUTANTS
            if (ROOT / MUTANTS[name][0]).read_text().count(MUTANTS[name][1]) != 1]


def run_mutant(name: str, timeout: float) -> dict:
    """Apply mutant ``name`` to a copy of the checkout and run tier-1 there."""
    file, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="fdsic-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
        target = copy / file
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH")))))
        started = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"file": file, "result": "timeout", "first_failure": None,
                    "seconds": round(time.perf_counter() - started, 1)}
    seconds = round(time.perf_counter() - started, 1)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    result = {0: "survived", 1: "caught"}.get(done.returncode, "error")
    return {"file": file, "result": result,
            "first_failure": failed.group(1) if failed else None, "seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds allowed to each mutant's tier-1 run")
    args = parser.parse_args(argv)
    missing = stale()
    if missing:
        print(f"mutant text not found exactly once: {', '.join(missing)}", file=sys.stderr)
        return 2
    results = {name: run_mutant(name, args.timeout) for name in MUTANTS}
    counts = {kind: sum(r["result"] == kind for r in results.values())
              for kind in ("caught", "survived", "timeout", "error")}
    print(json.dumps({"mutants": results, **counts}, indent=2))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
