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
def _scalar_source(tmp_path_factory):
    """A copy of the kernel sources, so that the 1-wide build's deletion of
    superseded libraries cannot reach the package's own; the one library
    built beside it serves every test that loads the 1-wide build."""
    root = tmp_path_factory.mktemp("scalar-kernel")
    for path in (_native._KERNEL_SOURCE, *_native._KERNEL_SOURCE.parent.glob("*.h")):
        (root / path.name).write_bytes(path.read_bytes())
    return root / _native._KERNEL_SOURCE.name


@pytest.fixture
def scalar_kernel(_scalar_source, monkeypatch):
    """A context manager in which every kernel call runs the library built
    with -mno-avx2: the LMS lanes one double wide, as on a CPU without
    AVX2."""
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("-mno-avx2 is an x86 flag")

    @contextlib.contextmanager
    def loaded():
        with monkeypatch.context() as patch:
            patch.setattr(_native, "_KERNEL_SOURCE", _scalar_source)
            patch.setattr(_native, "_CFLAGS", (*_native._CFLAGS, "-mno-avx2"))
            _native.library.cache_clear()
            try:
                yield
            finally:
                _native.library.cache_clear()  # the next call loads the default build

    return loaded


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
    rows = [(draw.reference(sigma_x2), obs.d.samples.copy())
            for draw, [obs], _ in harness.iter_trials(config, [point], n,
                                                      harness.PhaseClock())]
    return tuple(np.stack(r) for r in zip(*rows))
