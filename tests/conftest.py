import contextlib
import functools
import math
import platform
import sys

import numpy as np
import pytest

from fdsic import _native, harness
from fdsic.theory import anclms_ms_analysis, rb_matrix
from fdsic.transceiver import (COMPONENTS, OperatingPoint, builtin_profile,
                               compute_noise_budget, synthesize_channels)
from fdsic.units import db_to_lin

SEED = 17
M, N = 5, 4
# the warning flags of the session's narrower kernel builds: a warning fails
# the build of every test that loads one
WARNING_FLAGS = ("-Wall", "-Wextra", "-Werror")


@pytest.fixture(scope="session")
def type1():
    return builtin_profile("type1")


@pytest.fixture(scope="session")
def type2():
    return builtin_profile("type2")


@pytest.fixture(scope="session")
def _kernel_sources(tmp_path_factory):
    """A copy of the kernel sources per narrower build, so that a build's
    deletion of superseded libraries can reach neither the package's own
    nor the other build's; the one library built beside a copy serves every
    test that loads that build."""
    copies = {}

    def source(flag: str):
        if flag not in copies:
            root = tmp_path_factory.mktemp(f"kernel{flag}")
            for path in (_native._KERNEL_SOURCE,
                         *_native._KERNEL_SOURCE.parent.glob("*.h")):
                (root / path.name).write_bytes(path.read_bytes())
            copies[flag] = root / _native._KERNEL_SOURCE.name
        return copies[flag]

    return source


def _narrow_kernel(flag, sources, monkeypatch):
    """A context manager in which every kernel call runs the library built
    with the extra x86 ``flag`` and ``WARNING_FLAGS``."""
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"{flag} is an x86 flag")

    @contextlib.contextmanager
    def loaded():
        with monkeypatch.context() as patch:
            patch.setattr(_native, "_KERNEL_SOURCE", sources(flag))
            patch.setattr(_native, "_CFLAGS", (*_native._CFLAGS, flag, *WARNING_FLAGS))
            _native.library.cache_clear()
            try:
                yield
            finally:
                _native.library.cache_clear()  # the next call loads the default build

    return loaded


@pytest.fixture
def scalar_kernel(_kernel_sources, monkeypatch):
    """A context manager in which every kernel call runs the library built
    with -mno-avx2: the lanes one double wide, as on a CPU without AVX2."""
    return _narrow_kernel("-mno-avx2", _kernel_sources, monkeypatch)


@pytest.fixture
def avx2_kernel(_kernel_sources, monkeypatch):
    """A context manager in which every kernel call runs the library built
    with -mno-avx512f: the lanes four doubles wide on a CPU with AVX2 and
    FMA, as on one without AVX-512."""
    return _narrow_kernel("-mno-avx512f", _kernel_sources, monkeypatch)


@pytest.fixture
def stub_compiler(tmp_path):
    """A maker of stand-ins for the C compiler, for ``_native._COMPILER``:
    ``stub_compiler(delay)`` writes an executable that waits ``delay``
    seconds and copies the library the test session built from the
    package's kernel source to the path after its ``-o``. A test of the build's
    bookkeeping then runs every step of ``_build_kernel`` but the compile,
    and loads a real library."""
    built = _native._build_kernel()

    def make(delay: float = 0.0) -> str:
        stub = tmp_path / f"cc-stub-{delay}"
        stub.write_text(f"#!{sys.executable}\nimport shutil, sys, time\n"
                        f"time.sleep({delay!r})\n"
                        f"shutil.copyfile({str(built)!r}, sys.argv[sys.argv.index('-o') + 1])\n")
        stub.chmod(0o755)
        return str(stub)

    return make


@pytest.fixture(scope="session")
def lowpower_setup(type2):
    """Type 2 at -5 dBm: profile, channels, budget."""
    prof = type2.with_tx_power(-5.0)
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof)
    return prof, channels, budget


@pytest.fixture(scope="session")
def lowpower_ms_analysis(lowpower_setup):
    """Fourth-moment analysis of the nonlinear regressor at -5 dBm."""
    prof, _, _ = lowpower_setup
    return anclms_ms_analysis(prof.natural_sigma_x2, prof.k_tiq, M, N)


def operating_point(profile, channels, budget, sigma_x2=None):
    """The ``OperatingPoint`` of ``profile`` with ``channels`` and the noise
    powers of ``budget``, at the reference power ``sigma_x2`` (the profile's
    natural power if None), each field as ``harness._point`` reads it."""
    return OperatingPoint(profile.natural_sigma_x2 if sigma_x2 is None else sigma_x2,
                          profile.k_tiq, channels, budget.sigma_v2, budget.sigma_q2,
                          budget.p_x_soi)


def gain_chain_powers(profile) -> dict[str, float]:
    """The mean power (mW) at the canceller input of each component, by name
    in ``COMPONENTS`` order, from ``profile``'s gain chain alone: the
    transmit power through the residual echo and the receiver gain for the
    linear SI, the Gaussian moment law E|x_imd|^2 = 6 k_tiq^3 s2^3 through
    the PA's third-order path and the same echo for the IMD, each image
    branch 10^(-irr/10) of its direct one (none at irr = inf), and the noise
    budget's powers. It holds the whole 5-tap channel cascade, so it is the
    oracle of ``OperatingPoint.component_powers`` at an M and N that keep
    every tap."""
    s2 = profile.natural_sigma_x2
    budget = compute_noise_budget(profile)
    chain = profile.f_rfe_norm2 * profile.k_lna * profile.k_riq * budget.k_bb
    si = profile.tx_power_mw * chain
    imd = 6.0 * profile.k_tiq ** 3 * s2 ** 3 * budget.alpha1 ** 2 * profile.k_vga ** 3 * chain
    image = db_to_lin(-profile.irr_db)
    return dict(zip(COMPONENTS, (si, si * image, imd, imd * image, budget.sigma_v2,
                                 budget.sigma_q2, budget.p_x_soi), strict=True))


def bad_rows(good: np.ndarray) -> list:
    """Rows that a kernel must refuse in place of ``good``, a writable
    C-contiguous array it writes: one longer on each end axis, one with an
    extra leading axis, one of the other precision, one of the other kind
    (complex for real and back), a strided one, a transposed one (2-D
    only), a read-only copy of ``good`` and ``good`` as a list."""
    shape, dtype = good.shape, good.dtype
    precision = {np.float64: np.float32, np.complex128: np.complex64}[dtype.type]
    kind = np.complex128 if dtype.kind == "f" else np.float64
    read_only = good.copy()
    read_only.flags.writeable = False
    rows = [np.zeros((shape[0] + 1, *shape[1:]), dtype),
            np.zeros((*shape[:-1], shape[-1] + 1), dtype), np.zeros((1, *shape), dtype),
            np.zeros(shape, precision), np.zeros(shape, kind),
            np.zeros((*shape[:-1], 2 * shape[-1]), dtype)[..., ::2], read_only,
            good.tolist()]
    if good.ndim == 2:
        rows.append(np.zeros(shape[::-1], dtype).T)
    return rows


def assert_refuses(call, good: np.ndarray, name: str) -> None:
    """``call(row)`` refuses each of ``bad_rows(good)`` with the one
    ``ValueError`` of a row a kernel cannot write, naming the row ``name``,
    and leaves the row as it was."""
    for row in bad_rows(good):
        before = np.array(row, copy=True)
        with pytest.raises(ValueError, match=f"{name} row must be a writable "
                                             "C-contiguous"):
            call(row)
        assert np.array_equal(np.asarray(row), before, equal_nan=True)


def reference(draw, sigma_x2: float) -> np.ndarray:
    """The reference x of power ``sigma_x2`` of the source draw ``draw`` (a
    ``signals.Draw``), a new row: each part of z times the draw's scale, as
    the kernels form it."""
    return (draw.samples.view(np.float64) * draw.scale(sigma_x2)).view(np.complex128)


def read_meta(report) -> dict[str, str]:
    """The ``key = value`` lines of the ``meta.txt`` that ``report``'s run
    wrote."""
    return dict(line.split(" = ", 1) for line in report.meta_path.read_text().splitlines())


def read_csv(path) -> dict[str, np.ndarray]:
    """The columns of a CSV that a run wrote, by header name, each as floats."""
    header, *rows = path.read_text().splitlines()
    cells = np.array([row.split(",") for row in rows], dtype=float)
    return dict(zip(header.split(","), cells.T, strict=True))


def stack_trials(config, point, n):
    """The references and copies of the observations ``harness.iter_trials``
    hands over for ``point``, stacked as ``(xs, ds)`` of shape
    (config.trials, n): the batch of the experiments' trials for tests that
    run them at once."""
    with harness.iter_trials(config, [point], n, harness.PhaseClock()) as groups:
        rows = [(reference(draw, point.sigma_x2), d.copy())
                for group in groups for draw, [d] in group]
    return tuple(np.stack(r) for r in zip(*rows))


# -- the dense mean-square engine: the oracle of the block engine ------------

def fourth_moment(sigma_x2: float, k_tiq: float, M: int, N: int) -> np.ndarray:
    """Exact fourth-moment matrix T = E[(x x^H) kron (x* x^T)] of the regressor,
    the whole (dim^2, dim^2) matrix.

    Entry ((i, j), (k, l)) is E[r_i r_j* r_k* r_l], the convention of
    ``estimate_fourth_moment``. Each regressor entry is a scaled monomial
    c x(n-d)^p conj(x(n-d))^q, so every entry of T factorises over the
    delays into proper Gaussian moments E[x^p x*^q] = [p = q] p! s2^p
    (Isserlis). T is real and symmetric.
    """
    sizes = [M, N, M, N]
    # per entry: its delay, the powers of x and of x*, and its scale
    delay = np.concatenate([np.arange(n) for n in sizes])
    at_delay = delay[:, None] == np.arange(M)  # (dim, M)
    p = np.repeat([1, 2, 0, 1], sizes)[:, None] * at_delay
    q = np.repeat([0, 1, 1, 2], sizes)[:, None] * at_delay
    coef = np.repeat([1.0, k_tiq ** 1.5, 1.0, k_tiq ** 1.5], sizes)

    def outer4(a, b, c, d):  # a_i + b_j + c_k + d_l
        return (a[:, None, None, None] + b[None, :, None, None]
                + c[None, None, :, None] + d[None, None, None, :])

    powers = np.arange(9)  # each factor brings at most 2 powers of x
    moment = np.array([math.factorial(i) for i in powers]) * sigma_x2 ** powers
    # the product over the delays, multiplied in one delay at a time, left to
    # right; conjugating r_j and r_k swaps their powers of x and x*
    dim = len(delay)
    t_mat = np.ones((dim,) * 4)
    for pd, qd in zip(p.T, q.T):
        p_tot, q_tot = outer4(pd, qd, qd, pd), outer4(qd, pd, pd, qd)
        t_mat *= np.where(p_tot == q_tot, moment[p_tot], 0.0)
    t_mat *= np.einsum("i,j,k,l->ijkl", coef, coef, coef, coef)
    return t_mat.reshape(dim * dim, dim * dim)


@functools.lru_cache(maxsize=16)
def dense_ms_matrices(sigma_x2: float, k_tiq: float, M: int, N: int):
    """``(S, T, R)`` of the mean-square analysis as whole matrices:
    S = I kron R + R kron I and T (``fourth_moment``), both (dim^2, dim^2),
    and R = ``rb_matrix``."""
    r_mat = rb_matrix(sigma_x2, k_tiq, M, N)
    eye = np.eye(len(r_mat))
    s_mat = np.kron(eye, r_mat) + np.kron(r_mat, eye)
    return s_mat, fourth_moment(sigma_x2, k_tiq, M, N), r_mat


def dense_bound(s_mat, t_mat) -> float:
    """1/lam_max[S^-1 T] by one Cholesky-reduced eigensolve of the whole
    pencil (inf if lam_max <= 0)."""
    chol = np.linalg.cholesky(s_mat)
    half = np.linalg.solve(chol, t_mat)
    lam_vec = float(np.linalg.eigvalsh(np.linalg.solve(chol, half.T)).max())
    return 1.0 / lam_vec if lam_vec > 0 else math.inf


def dense_exact_steady_mse(s_mat, t_mat, r_mat, sigma_n2, mu) -> float:
    """J = sigma_n2 (1 + mu^2 vec(R)^T (mu S - mu^2 T)^-1 vec(R)), solved
    whole."""
    vec_r = r_mat.reshape(-1)
    y = np.linalg.solve(mu * s_mat - mu ** 2 * t_mat, vec_r)
    return float(sigma_n2 * (1.0 + mu ** 2 * np.real(vec_r @ y)))


def dense_transient(s_mat, t_mat, r_mat, sigma_n2, mu, w0_error, iters):
    """J(n) by the symmetric eigensolve of the whole transition matrix
    F = I - mu S + mu^2 T."""
    iters = np.asarray(iters)
    eye = np.eye(len(s_mat))
    f_mat = eye - mu * s_mat + mu ** 2 * t_mat
    lam, v_mat = np.linalg.eigh(f_mat)
    vec_r = r_mat.reshape(-1)
    k0 = np.outer(w0_error, np.conj(w0_error)).real.reshape(-1)
    k_inf = np.linalg.solve(eye - f_mat, mu ** 2 * sigma_n2 * vec_r)
    coef = (vec_r @ v_mat) * ((k0 - k_inf) @ v_mat)
    return sigma_n2 + vec_r @ k_inf + (lam[None, :] ** iters[:, None]) @ coef
