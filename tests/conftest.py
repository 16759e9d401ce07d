import contextlib
import platform

import numpy as np
import pytest

from fdsic import _native, harness
from fdsic.theory import anclms_ms_analysis
from fdsic.transceiver import builtin_profile, compute_noise_budget, synthesize_channels

SEED = 17
M, N = 5, 4


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
    with the extra x86 ``flag``."""
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"{flag} is an x86 flag")

    @contextlib.contextmanager
    def loaded():
        with monkeypatch.context() as patch:
            patch.setattr(_native, "_KERNEL_SOURCE", sources(flag))
            patch.setattr(_native, "_CFLAGS", (*_native._CFLAGS, flag))
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


def stack_trials(config, profile, channels, budget, sigma_x2, n):
    """The references and copies of the observations ``harness.iter_trials``
    hands over for one point, stacked as ``(xs, ds)`` of shape
    (config.trials, n): the batch of the experiments' trials for tests that
    run them at once."""
    point = harness.Point(profile, channels, budget, sigma_x2)
    rows = [(draw.reference(sigma_x2), d.copy())
            for group in harness.iter_trials(config, [point], n, harness.PhaseClock())
            for draw, [d], _ in group]
    return tuple(np.stack(r) for r in zip(*rows))
