"""The compiled kernels of ``_lms.c``: the normal draws, the one-pass render
and the LMS steps.

``NormalStream`` draws the standard normals of
``np.random.default_rng(seed)`` bit for bit, by numpy's PCG64 and
ziggurat written out in C; ``render`` forms one trial's observation (IMD
product, four FIR branches and their sum) sample by sample, then adds the
noise as a ``NormalStream`` draws it;
``lms_raw`` runs the LMS steps of whole runs: the canceller jobs of one
call share one set of trials and one regressor built per step, and two or
more jobs run as the lanes of AVX2 vectors, four jobs per vector, each lane
repeating its job's scalar step bit for bit (a one-job call, and every call
on a build without AVX2, runs the scalar step); a job may carry a real
preconditioner and then runs the LMS-Newton step. ``Run`` describes one
job.

The library is compiled with the local C compiler on the first call of
``library()`` and cached next to this module in ``__pycache__`` as
``_lms-<hash>.so``, keyed by the source and its headers, the compiler
command and the machine type; a build deletes the libraries of other keys.
Importing this module compiles and loads nothing.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_KERNEL_SOURCE = Path(__file__).with_name("_lms.c")
_COMPILER = "gcc"
# no contraction or auto-vectorization: the kernel's own fma() calls are the
# only fused operations; -march=native makes fma() an instruction
_CFLAGS = ("-O2", "-march=native", "-ffp-contract=off", "-fno-tree-vectorize",
           "-fno-tree-slp-vectorize", "-fPIC", "-shared")


def _kernel_tag(source: Path) -> str:
    """Hash of what the compile of ``source`` reads and runs: the source, the
    headers beside it, the compiler command and the machine type."""
    digest = hashlib.sha256()
    for path in (source, *sorted(source.parent.glob("*.h"))):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    digest.update(" ".join([_COMPILER, *_CFLAGS]).encode()
                  + platform.machine().encode())
    return digest.hexdigest()[:16]


def _build_kernel() -> Path:
    """Compile ``_lms.c`` unless a library for these sources and command
    exists, and delete the superseded ``_lms-*.so`` beside it."""
    command = [_COMPILER, *_CFLAGS]
    tag = _kernel_tag(_KERNEL_SOURCE)
    lib = _KERNEL_SOURCE.parent / "__pycache__" / f"_lms-{tag}.so"
    if lib.exists():
        return lib
    lib.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_lms-", suffix=".so.tmp", dir=lib.parent)
    os.close(fd)
    command += [str(_KERNEL_SOURCE), "-o", tmp, "-lm"]
    try:
        proc = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        os.unlink(tmp)
        raise RuntimeError(f"cannot build the LMS kernel: `{' '.join(command)}` "
                           f"did not start ({exc})") from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        raise RuntimeError(f"cannot build the LMS kernel: `{' '.join(command)}` "
                           f"exited with {proc.returncode}:\n{proc.stderr}")
    os.replace(tmp, lib)  # atomic: other processes never load a partial file
    for old in lib.parent.glob("_lms-*.so"):
        if old != lib:
            old.unlink(missing_ok=True)
    return lib


class Run(ctypes.Structure):
    """``struct run`` of ``_lms.c``: one canceller job of an LMS call, its
    sizes, window start and step size, and the addresses of its state,
    outputs and preconditioner (``e2``, ``tap_buf``, ``pre`` and ``pair`` may
    be ``None``)."""

    _fields_ = [*[(name, ctypes.c_int64) for name in ("steps", "dim", "win_start")],
                ("mu", ctypes.c_double),
                *[(name, ctypes.c_void_p) for name in (
                    "w", "w_accum", "e2", "peak", "steady_sum", "steady_count",
                    "diverged_at")],
                ("ntaps", ctypes.c_int64), ("taps", ctypes.c_void_p),
                ("tap_stride", ctypes.c_int64), ("tap_buf", ctypes.c_void_p),
                ("pre", ctypes.c_void_p), ("pair", ctypes.c_void_p)]


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled library, with ``normals_complex``, ``render``,
    ``lms_raw`` and ``lms_lanes``."""
    cplx, real = (np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
                  for dtype in (np.complex128, np.float64))
    i64 = ctypes.c_int64
    runs = ctypes.POINTER(Run)
    lib = ctypes.CDLL(str(_build_kernel()))
    pcg = np.ctypeslib.ndpointer(np.uint64, shape=(4,), flags="C_CONTIGUOUS")
    lib.normals_complex.argtypes = [pcg, i64, ctypes.c_double, cplx]
    lib.render.argtypes = [*[i64] * 3, ctypes.c_double, *[cplx] * 5, pcg, i64,
                           real, cplx, ctypes.c_void_p]
    lib.lms_raw.argtypes = [*[i64] * 3, ctypes.c_double, cplx, cplx, i64, runs]
    lib.lms_lanes.argtypes = [i64]
    for fn in (lib.normals_complex, lib.render, lib.lms_raw):
        fn.restype = None
    lib.lms_lanes.restype = i64
    return lib


def lanes(jobs: int) -> int:
    """The lanes per vector ``lms_raw`` runs ``jobs`` jobs of one call in:
    4 for two or more jobs on a build with AVX2, else 1 (the scalar step)."""
    return library().lms_lanes(jobs)


class NormalStream:
    """The standard normals of ``np.random.default_rng(seed)``, drawn in C.

    Successive calls continue one stream, so the draws equal those of
    ``default_rng(seed).standard_normal`` bit for bit however they are split.
    The start state is numpy's own (``SeedSequence`` seeding of PCG64); the
    generator must be PCG64, whose steps the C code repeats.
    """

    def __init__(self, seed: int):
        state = np.random.default_rng(seed).bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise RuntimeError("NormalStream repeats numpy's PCG64, but "
                               f"default_rng gives {state['bit_generator']}")
        words = []
        for value in (state["state"]["state"], state["state"]["inc"]):
            words += [value & 0xFFFFFFFFFFFFFFFF, value >> 64]
        self._state = np.array(words, dtype=np.uint64)

    def fill_complex(self, scale: float, out: np.ndarray) -> np.ndarray:
        """Fill the complex128 row ``out`` (n samples) with ``scale`` times
        the next 2n normals, the first n as real parts and the next n as
        imaginary parts, and return it."""
        if out.ndim != 1:
            raise ValueError("fill_complex: out must be a 1-D row")
        library().normals_complex(self._state, len(out), scale, out)
        return out


def render(x: np.ndarray, taps: tuple[np.ndarray, ...], k15: float,
           noise: NormalStream, scales: np.ndarray, soi: bool, d: np.ndarray,
           components: np.ndarray | None = None):
    """Fill ``d`` (and ``components``, ``(7, n)``) with the observation of ``x``.

    ``taps`` is ``(h, g, h_imd, g_imd)``; ``noise`` draws the real then the
    imaginary parts of the thermal, the quantization and, if ``soi``, the
    SOI noise, n normals each, which ``scales`` (three) scale. Every array
    is C-contiguous; ``render`` in ``_lms.c`` gives the arithmetic.
    """
    n = len(x)
    h, g, h_imd, g_imd = taps
    if (d.shape != (n,) or scales.shape != (3,) or len(g) != len(h)
            or len(g_imd) != len(h_imd) or not len(h_imd) < len(h) < n):
        raise ValueError("render: mismatched array sizes")
    if components is not None and not (
            components.shape == (7, n) and components.dtype == np.complex128
            and components.flags.c_contiguous):
        raise ValueError("render: components must be a C-contiguous complex (7, n) array")
    library().render(n, len(h), len(h_imd), k15, h, g, h_imd, g_imd, x,
                     noise._state, int(soi), scales, d,
                     None if components is None else components.ctypes.data)
