"""The compiled kernels of ``_lms.c``: the normal and uniform draws, the
render and the LMS steps.

``NormalStream`` draws the standard normals and uniforms of
``np.random.default_rng(seed)`` bit for bit, by numpy's PCG64 and ziggurat
written out in C; its start state is numpy's ``SeedSequence`` seeding of
PCG64 written out in Python (``_pcg64_state``), so a run on the Gaussian
source never imports ``numpy.random``. The C code draws the normals in the
lanes of a vector: the lanes hold consecutive states of the one stream,
and each batch moves them all on by as many steps as there are lanes, with
jump constants (mult^lanes and inc times the sum of mult^k for k below
lanes, mod 2^128) formed when the stream loads. The ziggurat's fast path
runs in the lanes; at the first lane that fails it, the lanes before it
are kept and that draw goes on in stream order through the wedge and tail
tests, on the outputs that follow. The state stored back is the state
after the last output consumed, so calls continue one stream. Both other
kernels read a trial's reference x = scale z from a source row z and a
scale, each part of z times the scale, so that one row z serves every
transmit power, and both form x and its IMD product by one function of
``_lms.c``. Both are written once over a
block of vector operations, eight lanes per vector on a build with
AVX-512F and AVX-512DQ, four on one with AVX2 and FMA and one double wide
on any other build (``lanes()``), each lane repeating the scalar
arithmetic bit for bit. The wide vectors are GCC vector types, so each
operation that C writes lane by lane (a sum, a product, a compare, a bit
mask) is written once for every build, and only the others (such as fma,
sqrt, gathers and lane shuffles) once per build. ``render`` forms the
observations of one trial at any number of points (``Point``: IMD
product, four FIR branches and their sum), one sample per lane, in blocks
of samples whose rows it allocates on the heap, then draws the noise
once, as a ``NormalStream`` draws it, and adds each block of normals to
every point's row in the lanes; it returns 0 if those rows cannot be
allocated. ``lms_raw`` runs
the LMS steps of whole runs (``Run``: one job): each canceller job of a
call is one trial's run, with its own source row z, scale and observation
row, so the jobs of one call may be the jobs of several trials, and they
run as the lanes of vectors, each lane on its own regressor. Every call,
one-job calls too, runs through the lanes; ``lms_raw`` returns 1, or 0 if
their state cannot be allocated. A job may carry a real preconditioner
that couples each regressor entry only with its layout partner, x(n-d)
with x_imd(n-d), and then runs the LMS-Newton step.

Both kernels write into rows their caller owns: ``transceiver`` fills the
``Point`` structs of a render and ``cancellers`` the ``Run`` structs of an
LMS call, and each takes the address of every caller's row through
``row_address``, the one check that such a row is a writable C-contiguous
array of the dtype and shape the kernel writes; so does
``NormalStream.fill_complex``. ``one_blas_thread`` is the guard under which
fdsic's small LAPACK calls run: numpy's OpenBLAS on one thread.

The library is compiled with the local C compiler on the first call of
``library()`` and cached next to this module in ``__pycache__`` as
``_lms-<tag>.so``, keyed by the source and its headers, the compiler
command and the machine type (``os.uname().machine``); a build deletes the
libraries of other keys. Importing this module compiles and loads nothing,
and only a build imports the build's tools (``subprocess``, ``tempfile``):
loading a cached library does not.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import operator
import os
import zlib
from pathlib import Path

import numpy as np

_KERNEL_SOURCE = Path(__file__).with_name("_lms.c")
_COMPILER = "gcc"
# no contraction or auto-vectorization: the kernel's own fma() calls are the
# only fused operations; -march=native makes fma() an instruction. The
# kernel's explicit vector types need no flag of their own, and
# -fno-tree-vectorize leaves them as written: it stops only the compiler's
# own vectorizing of scalar loops
_CFLAGS = ("-O2", "-march=native", "-ffp-contract=off", "-fno-tree-vectorize",
           "-fno-tree-slp-vectorize", "-fPIC", "-shared")


def _kernel_tag(source: Path) -> str:
    """A 64-bit checksum of what the compile of ``source`` reads and runs:
    the source, the headers beside it, the compiler command and the machine
    type, as the CRC-32 and the Adler-32 of those bytes."""
    crc, adler = 0, 1
    for path in (source, *sorted(source.parent.glob("*.h"))):
        for chunk in (path.name.encode() + b"\0", path.read_bytes()):
            crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
    chunk = " ".join([_COMPILER, *_CFLAGS]).encode() + os.uname().machine.encode()
    return f"{zlib.crc32(chunk, crc):08x}{zlib.adler32(chunk, adler):08x}"


def _build_kernel() -> Path:
    """Compile ``_lms.c`` unless a library for these sources and command
    exists, and delete the superseded ``_lms-*.so`` beside it."""
    command = [_COMPILER, *_CFLAGS]
    tag = _kernel_tag(_KERNEL_SOURCE)
    lib = _KERNEL_SOURCE.parent / "__pycache__" / f"_lms-{tag}.so"
    if lib.exists():
        return lib
    import subprocess  # the build tools load only for a build
    import tempfile

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
    """``struct run`` of ``_lms.c``: one canceller job of an LMS call, one
    trial's run: its sizes, window start, step size and reference scale,
    the addresses of its source and observation rows, weights, outputs and
    preconditioner (``e2``, ``tap_buf`` and ``pre`` may be ``None``; the
    kernel adds its records to ``e2`` and ``tap_buf``, which several jobs
    may share), and the outputs the kernel writes into the struct itself:
    ``peak``, ``steady_mse``, ``d_power`` and ``diverged_at``."""

    _fields_ = [*[(name, ctypes.c_int64) for name in ("steps", "dim", "win_start")],
                ("mu", ctypes.c_double), ("scale", ctypes.c_double),
                *[(name, ctypes.c_void_p) for name in ("z", "d", "w", "w_accum", "e2")],
                ("ntaps", ctypes.c_int64), ("taps", ctypes.c_void_p),
                ("tap_stride", ctypes.c_int64), ("tap_buf", ctypes.c_void_p),
                ("pre", ctypes.c_void_p), ("peak", ctypes.c_double),
                ("steady_mse", ctypes.c_double), ("d_power", ctypes.c_double),
                ("diverged_at", ctypes.c_int64)]


class Point(ctypes.Structure):
    """``struct point`` of ``_lms.c``: one observation of a render call, its
    channel lengths, reference scale and k_tiq^{3/2}, and the addresses of
    its taps, noise scales, observation row and components (``comp`` may be
    ``None``)."""

    _fields_ = [("m", ctypes.c_int64), ("nimd", ctypes.c_int64),
                ("scale", ctypes.c_double), ("k15", ctypes.c_double),
                *[(name, ctypes.c_void_p) for name in (
                    "h", "g", "h_imd", "g_imd", "noise", "d", "comp")]]


def row_address(row: np.ndarray | None, dtype, shape: tuple[int, ...],
                name: str) -> int | None:
    """The address of ``row``, a row the caller owns that a kernel writes,
    which must be a writable C-contiguous array of ``dtype`` and ``shape``
    (a ``ValueError`` naming the row ``name`` otherwise); None, for no row,
    gives None. The one check of every caller's row that C writes."""
    if row is not None and not (isinstance(row, np.ndarray) and row.dtype == dtype
                                and row.shape == shape and row.flags.c_contiguous
                                and row.flags.writeable):
        raise ValueError(f"{name} row must be a writable C-contiguous "
                         f"{np.dtype(dtype).name} array of shape {shape}")
    return None if row is None else row.ctypes.data


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled library, with ``normals_complex``, ``doubles``,
    ``render`` and ``lms_raw``. Every array crosses as its address
    (``ndarray.ctypes.data``), as every field of ``Run`` and ``Point``
    does, so the caller keeps the array alive through the call."""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib = ctypes.CDLL(str(_build_kernel()))
    lib.normals_complex.argtypes = [ptr, i64, ptr]
    lib.doubles.argtypes = [ptr, i64, i64, ptr]
    lib.render.argtypes = [i64, ptr, ptr, i64, ctypes.POINTER(Point)]
    lib.lms_raw.argtypes = [i64, ctypes.c_double, i64, ctypes.POINTER(Run)]
    lib.normals_complex.restype = lib.doubles.restype = None
    lib.render.restype = lib.lms_raw.restype = i64
    return lib


def lanes() -> int:
    """The lanes per vector of the library's build: 8, 4 or 1."""
    return ctypes.c_int64.in_dll(library(), "lms_lanes").value


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (``numpy.libs``) with its thread-count
    functions, or None where numpy has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # not a library this process can load: try the next
            continue
        if all(hasattr(lib, f"scipy_openblas_{op}_num_threads64_") for op in ("get", "set")):
            return lib
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block, or the function it decorates, with numpy's OpenBLAS
    on one thread, and restore its thread count after: fdsic's LAPACK calls
    are small, and gain nothing from a second thread, whose helper spins on
    after each call. The command line starts OpenBLAS on one thread anyway
    (``cli``), so there this guard finds one thread and the process has no
    helper at all; it matters to a library caller, whose numpy keeps its
    own thread count."""
    lib = _openblas()
    threads = lib.scipy_openblas_get_num_threads64_() if lib else None
    if lib:
        lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        if lib:
            lib.scipy_openblas_set_num_threads64_(threads)


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state(seed: int) -> tuple[int, int]:
    """The PCG64 ``(state, inc)`` of ``np.random.default_rng(seed)``, as
    its ``bit_generator.state`` holds them.

    numpy seeds PCG64 from ``SeedSequence(seed).generate_state(4, uint64)``:
    the seed's 32-bit words, least significant first, are hashed into a pool
    of four words, the pool is mixed and hashed out into eight words, read
    as four little-endian 64-bit words (seed high, seed low, sequence high,
    sequence low), and ``pcg64_srandom`` starts the generator on them. This
    repeats numpy's arithmetic on 32- and 128-bit unsigned integers. A
    negative seed is a ``ValueError`` and a non-integer one a ``TypeError``,
    as numpy's.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("the seed must be a non-negative integer")
    words = []
    while True:  # the seed's 32-bit words; [0] for seed 0
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_b, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        out.append(value ^ value >> 16)
    seed_hi, seed_lo, inc_hi, inc_lo = (out[2 * k] | out[2 * k + 1] << 32
                                        for k in range(4))
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = inc  # pcg64_srandom: one step from 0, add the seed, one more step
    state = (state + (seed_hi << 64 | seed_lo)) & _MASK128
    return (state * _PCG64_MULTIPLIER + inc) & _MASK128, inc


class NormalStream:
    """The standard normals and uniforms of ``np.random.default_rng(seed)``,
    drawn in C.

    Successive calls continue one stream, so the draws equal those of the
    same calls of ``default_rng(seed)`` (``standard_normal``, ``uniform``)
    bit for bit however they are split. The start state is numpy's own
    (``_pcg64_state``); ``state`` holds it as four 64-bit words, which the
    kernels that draw from the stream advance.
    """

    def __init__(self, seed: int):
        words = []
        for value in _pcg64_state(seed):
            words += [value & 0xFFFFFFFFFFFFFFFF, value >> 64]
        self.state = np.array(words, dtype=np.uint64)

    def fill_complex(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next 2n normals as n complex samples, the first n the real
        parts and the next n the imaginary parts, in the row ``out``
        (checked by ``row_address``) or a new row, which it returns."""
        if out is None:
            out = np.empty(n, dtype=np.complex128)
        library().normals_complex(self.state.ctypes.data, n,
                                  row_address(out, np.complex128, (n,), "out"))
        return out

    def standard_normal(self, n: int) -> np.ndarray:
        """The next ``n`` normals, as ``Generator.standard_normal(n)``."""
        out = np.empty(n)
        library().doubles(self.state.ctypes.data, n, 1, out.ctypes.data)
        return out

    def uniform(self, low: float, high: float) -> float:
        """The next uniform on [low, high), as ``Generator.uniform(low,
        high)`` rounds it: low + (high - low) u for u in [0, 1)."""
        u = np.empty(1)
        library().doubles(self.state.ctypes.data, 1, 0, u.ctypes.data)
        return low + (high - low) * float(u[0])
