"""One run of a workload, in a fresh interpreter started by ``run.py``.

    python3 perfbench/child.py SRC PROFILE setup
    python3 perfbench/child.py SRC PROFILE count|trace RESULT RUN_ID -- ARGS...

The child imports ``fdsic`` from SRC, resolves PROFILE and prints ``ready``;
the parent times the set-up up to that line. In the ``count`` and ``trace``
modes it then installs the wrappers of ``tracing.py`` (counters only, or
counters and spans), calls ``fdsic.cli.main(ARGS)`` and writes the call's
wall time, process CPU time, peak RSS, exit code, counters and spans to the
JSON file RESULT.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_info() -> dict:
    """OpenBLAS build string and thread count of numpy's bundled library."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        return {"openblas": config().decode().strip(), "blas_threads": threads()}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": None}


def main() -> int:
    src, profile, mode = sys.argv[1:4]
    sys.path.insert(0, src)
    import fdsic
    import fdsic.cli
    from fdsic.harness import resolve_profile
    if not Path(fdsic.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"fdsic imported from {fdsic.__file__}, not from {src}", file=sys.stderr)
        return 2
    resolve_profile(profile)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    result_path, run_id = sys.argv[4:6]
    argv = sys.argv[sys.argv.index("--") + 1:]
    recorder = tracing.Recorder(run_id, timed=(mode == "trace"))
    tracing.install(recorder)
    entry = tracing.wrap(recorder, "cli.main", "cli", fdsic.cli.main)

    printed = io.StringIO()
    rc, error = None, None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            rc = entry(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # the run's failure is a result to report, not a crash
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    result = {
        "run_id": run_id,
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": dict(recorder.counts),
        "spans": recorder.span_dicts(),
        "printed": printed.getvalue()[-4000:],
        **blas_info(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
