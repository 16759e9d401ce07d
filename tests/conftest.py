import numpy as np
import pytest

from fdsic.signals import ComplexSequence, gen_proper_gaussian
from fdsic.theory import anclms_ms_analysis
from fdsic.transceiver import (builtin_profile, compute_noise_budget,
                               render_observation, synthesize_channels)

SEED = 17
M, N = 5, 4


@pytest.fixture(scope="session")
def type1():
    return builtin_profile("type1")


@pytest.fixture(scope="session")
def type2():
    return builtin_profile("type2")


def make_batch(profile, channels, budget, trials, n, seed=SEED):
    """Per-trial (x, d) arrays; trial t uses seed+t for the signal and
    seed + 10_000_019 + t for the receiver noise."""
    s2 = profile.natural_sigma_x2
    xs = np.stack([gen_proper_gaussian(n, s2, seed=seed + t).samples
                   for t in range(trials)])
    ds = np.stack([
        render_observation(ComplexSequence(xs[t], 20e6), channels, budget,
                           profile, seed=seed + 10_000_019 + t).d.samples
        for t in range(trials)])
    return xs, ds


@pytest.fixture(scope="session")
def lowpower_setup(type2):
    """Type 2 at -5 dBm: profile, channels, budget."""
    prof = type2.with_tx_power(-5.0)
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof, prof.natural_sigma_x2, prof.f_rfe_norm2)
    return prof, channels, budget


@pytest.fixture(scope="session")
def lowpower_ms_analysis(lowpower_setup):
    """Fourth-moment analysis of the nonlinear regressor at -5 dBm."""
    prof, _, _ = lowpower_setup
    return anclms_ms_analysis(prof.natural_sigma_x2, prof.k_tiq, M, N)
