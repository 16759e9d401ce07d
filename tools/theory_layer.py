"""Time the fourth-moment theory engine, layer by layer, in one process.

Usage: PYTHONPATH=<checkout>/src python tools/theory_layer.py

Times the ``fdsic`` on the path, so the one script times any checkout whose
engine has the same public API. It times ``anclms_ms_analysis``, the first
read of its ``bound``, ``anclms_transient`` (convergence's 200-point
overlay grid) and ``anclms_exact_steady_mse`` (at half the bound) at
M, N = 5, 4 and 8, 6, at convergence's operating point (type2 at 15 dBm,
the optimal reference power, mu 0.005 of the mean bound, a cold start).
Each figure is the minimum of ``CALLS`` calls in milliseconds, on one BLAS
thread. Prints one JSON object.
"""

import json
import os
import time

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from fdsic import theory  # noqa: E402
from fdsic.transceiver import (builtin_profile, compute_noise_budget,  # noqa: E402
                               synthesize_channels)

SHAPES = ((5, 4), (8, 6))
CALLS = 20


def _min_ms(call) -> float:
    best = float("inf")
    for _ in range(CALLS):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return round(1e3 * best, 4)


def main() -> None:
    prof = builtin_profile("type2").with_tx_power(15.0)
    k = prof.k_tiq
    s_opt = theory.optimal_sigma_x2(k)
    budget = compute_noise_budget(prof)
    noise = budget.sigma_v2 + budget.sigma_q2
    iters = np.arange(50, 20_000, 100)
    timings = {}
    for m, n in SHAPES:
        mu = 0.005 * theory.anclms_mean_bound(s_opt, k, m, n)
        w0_error = -synthesize_channels(prof, m, n, seed=17, sigma_x2=s_opt).stacked_nonlinear()
        ana = theory.anclms_ms_analysis(s_opt, k, m, n)
        # a fresh analysis per read, as the bound is kept once read
        bound_reads = iter([theory.anclms_ms_analysis(s_opt, k, m, n) for _ in range(CALLS)])
        timings[f"M{m}_N{n}"] = {
            "ms_analysis_ms": _min_ms(lambda: theory.anclms_ms_analysis(s_opt, k, m, n)),
            "bound_ms": _min_ms(lambda: next(bound_reads).bound),
            "transient_ms": _min_ms(
                lambda: theory.anclms_transient(ana, noise, mu, w0_error, iters)),
            "exact_steady_mse_ms": _min_ms(
                lambda: theory.anclms_exact_steady_mse(ana, noise, 0.5 * ana.bound)),
        }
    print(json.dumps({"numpy": np.__version__, "calls": CALLS, "timings": timings},
                     indent=1))


if __name__ == "__main__":
    main()
