"""Time the native kernel's three layers on each build, for two or more
checkouts, alternating in one process.

Usage: python tools/kernel_layers.py CHECKOUT [CHECKOUT ...] [--calls K] [--rounds R]

Loads ``src/fdsic/_native.py`` of each checkout on its own and builds its
``_lms.c`` three ways: the default flags, ``-mno-avx512f`` (four lanes
where the CPU has AVX2 and FMA) and ``-mno-avx2`` (one lane). The default
build is the checkout's own cached library; each narrower build compiles
from a temporary copy of the sources, so its deletion of superseded
``_lms-*.so`` reaches nothing of the checkout's. It times three layers:

- lms: ``lms_raw`` on 16 jobs of 30,000 steps at M = 5, 8 ALMS and 8 ANCLMS
  with N = 4, one per trial of 8, in ns per job-step;
- draw: ``normals_complex`` (the call under ``NormalStream.fill_complex``)
  of 30,005 complex samples, in ns per normal;
- render: ``render`` of 2 points (M = 5, N = 4) of 30,005 samples, in ms.

Each round times every layer of every build; the checkouts take turns call
by call, the first of them changing from round to round, so the calls of
one layer follow each other and each figure is the minimum of K calls.
Prints one JSON object: each round's minima and their median, by checkout,
build and layer, and the host's x86 flags. Run it with the machine
otherwise idle; it is not part of the test suite.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BUILDS = {"default": None, "no-avx512f": "-mno-avx512f", "no-avx2": "-mno-avx2"}
M, N, TRIALS, STEPS, SAMPLES, SEED = 5, 4, 8, 30_000, 30_005, 17


def _native(checkout: Path, index: int):
    """The checkout's ``_native`` module, loaded under a name of its own."""
    path = checkout / "src" / "fdsic" / "_native.py"
    spec = importlib.util.spec_from_file_location(f"_native_{index}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library(native, flag: str | None, scratch: Path) -> ctypes.CDLL:
    """The library of ``native``'s kernel built with the extra ``flag``
    (none: the checkout's default build), from a copy in ``scratch``."""
    if flag:
        source = native._KERNEL_SOURCE
        root = scratch / f"{native.__name__}{flag}"
        root.mkdir()
        for path in (source, *source.parent.glob("*.h")):
            shutil.copyfile(path, root / path.name)
        native._KERNEL_SOURCE = root / source.name
        native._CFLAGS = (*native._CFLAGS, flag)
    native.library.cache_clear()
    return native.library()


def _aligned(shape, dtype=complex) -> np.ndarray:
    """A zeroed array whose data starts on a 64-byte line, so that every
    checkout's rows meet the cache alike."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.zeros(size + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(shape)


def _layers(native, lib: ctypes.CDLL) -> dict:
    """A call per layer of ``lib``, each with its own inputs, and the
    figure its time in seconds converts to."""
    rng = np.random.default_rng(SEED)
    # the source and observation rows of the trials, long enough for either
    zs, ds = _aligned((TRIALS, SAMPLES)), _aligned((TRIALS, SAMPLES))
    zs[:] = (rng.standard_normal((TRIALS, SAMPLES))
             + 1j * rng.standard_normal((TRIALS, SAMPLES))) / 2
    ds[:] = 0.5 * zs + 0.01 * rng.standard_normal((TRIALS, SAMPLES))
    weights = [_aligned(2 * (M + nimd)) for nimd in (0, N) for _ in range(2 * TRIALS)]
    runs = [native.Run(STEPS, len(w), STEPS // 2, 0.002, 1.0, zs[t % TRIALS].ctypes.data,
                       ds[t % TRIALS].ctypes.data, w.ctypes.data, w_accum.ctypes.data,
                       None, 0, None, 1, None, None, 0.0, 0.0, 0.0, -1)
            for t, (w, w_accum) in enumerate(zip(weights[::2], weights[1::2]))]
    runs = (native.Run * len(runs))(*runs)
    start = native.NormalStream(SEED).state
    state, normals = start.copy(), _aligned(SAMPLES)
    taps = [0.1 * (rng.standard_normal(k) + 1j * rng.standard_normal(k)) for k in (M, M, N, N)]
    noise = np.array([1e-3, 1e-3, 1e-3])
    obs = [_aligned(SAMPLES) for _ in range(2)]
    points = (native.Point * 2)(*[native.Point(M, N, scale, 0.1,
                                               *(a.ctypes.data for a in (*taps, noise)),
                                               d.ctypes.data, None)
                                  for scale, d in zip((1.0, 0.5), obs)])
    def lms():
        for w in weights:
            w[:] = 0
        lib.lms_raw(M, 0.1, len(runs), runs)

    def draw():
        state[:] = start
        lib.normals_complex(state.ctypes.data, SAMPLES, normals.ctypes.data)

    def render():
        state[:] = start
        lib.render(SAMPLES, zs[0].ctypes.data, state.ctypes.data, 2, points)

    # the rows the structs hold only by address, alive through every call
    lms.rows, render.rows = (ds, weights), (taps, noise, obs)

    return {"lms_ns_per_job_step": (lms, 1e9 / (len(runs) * STEPS)),
            "draw_ns_per_normal": (draw, 1e9 / (2 * SAMPLES)),
            "render_ms": (render, 1e3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--calls", type=int, default=60)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    natives = [_native(c.resolve(), i) for i, c in enumerate(args.checkouts)]
    minima = {str(c): {b: {} for b in BUILDS} for c in args.checkouts}
    with tempfile.TemporaryDirectory(prefix="kernel-layers-") as scratch:
        layers = {}
        for build, flag in BUILDS.items():
            for native in natives:
                source, flags = native._KERNEL_SOURCE, native._CFLAGS
                layers[build, native.__name__] = _layers(native, _library(native, flag,
                                                                          Path(scratch)))
                native._KERNEL_SOURCE, native._CFLAGS = source, flags
        for r in range(args.rounds):
            order = list(zip(args.checkouts, natives))
            order = order[r % len(order):] + order[:r % len(order)]
            for build in BUILDS:
                for layer, (_call, unit) in layers[build, natives[0].__name__].items():
                    best = dict.fromkeys(args.checkouts, float("inf"))
                    for _ in range(args.calls):
                        for checkout, native in order:
                            call = layers[build, native.__name__][layer][0]
                            started = time.perf_counter()
                            call()
                            best[checkout] = min(best[checkout], time.perf_counter() - started)
                    for checkout, elapsed in best.items():
                        minima[str(checkout)][build].setdefault(layer, []).append(
                            round(elapsed * unit, 4))
    result = {c: {b: {layer: {"rounds": v, "median": statistics.median(v)}
                      for layer, v in by_layer.items()}
                  for b, by_layer in builds.items()}
              for c, builds in minima.items()}
    flags = sorted({f for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("flags") for f in line.split()
                    if f.startswith(("avx2", "avx512f", "avx512dq", "fma"))}) \
        if Path("/proc/cpuinfo").exists() else []
    json.dump({"calls": args.calls, "cpu_flags": flags, "layers": result}, sys.stdout,
              indent=1)
    print()


if __name__ == "__main__":
    main()
