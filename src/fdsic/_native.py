"""The compiled kernels of ``_lms.c``: the render FIR and the LMS steps.

The library is compiled with the local C compiler on the first call of
``library()`` and cached next to this module in ``__pycache__`` as
``_lms-<hash>.so``, keyed by the source, the compiler command and the
machine type. Importing this module compiles and loads nothing.
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


def _build_kernel() -> Path:
    """Compile ``_lms.c`` unless a library for this source and command exists."""
    command = [_COMPILER, *_CFLAGS]
    source = _KERNEL_SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(command).encode()
                         + platform.machine().encode()).hexdigest()[:16]
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
    return lib


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled library, with ``fir``, ``lms_block`` and ``lms_block_raw``."""
    cplx, real, index = (np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
                         for dtype in (np.complex128, np.float64, np.int64))
    i64 = ctypes.c_int64
    lib = ctypes.CDLL(str(_build_kernel()))
    # the outputs shared by both LMS entry points, after d
    state = [cplx, cplx, *[real] * 4, index, i64, index, cplx]
    lib.fir.argtypes = [i64, i64, cplx, cplx, i64, cplx]
    lib.lms_block.argtypes = [*[i64] * 5, ctypes.c_double, cplx, cplx, *state]
    lib.lms_block_raw.argtypes = [*[i64] * 6, ctypes.c_double, cplx, cplx, cplx,
                                  *state]
    for fn in (lib.fir, lib.lms_block, lib.lms_block_raw):
        fn.restype = None
    return lib


def fir(h: np.ndarray, v: np.ndarray, conj: bool = False) -> np.ndarray:
    """``np.convolve(h, conj(v) if conj else v)[:len(v)]``, bit for bit.

    ``h`` and ``v`` are complex128 arrays; ``v`` must be longer than ``h``.
    """
    h = np.ascontiguousarray(h, dtype=np.complex128)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if not 1 <= len(h) < len(v):
        raise ValueError("need 1 <= len(h) < len(v)")
    y = np.empty(len(v), dtype=np.complex128)
    library().fir(len(v), len(h), h, v, int(conj), y)
    return y
