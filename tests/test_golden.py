"""Golden digests: every file of every experiment at tiny scale, hashed.

Each experiment runs with 2 trials and 3000 iterations on the grid -5,
5 dBm on the Gaussian source, and ``sinr-sweep``, ``bias``,
``bounds-probe`` and ``power-budget`` run so on the OFDM source too
(``<experiment>-ofdm``).
The SHA-256 of every CSV, every SVG and ``meta.txt`` must equal the digest
stored in ``golden_digests.json``, so a change that moves any number shows
up in review as a changed digest. ``meta.txt`` is hashed without the lines
whose keys match ``UNPINNED``, which vary by host, time or build; every
other line, a new key's included, is pinned.

The 4- and 1-wide lanes must give the same digests: builds of the kernel
without AVX-512 and without AVX2 rerun ``bias``, ``sinr-sweep``,
``convergence`` (its whitened run is the LMS-Newton step) and
``bounds-probe``; each build pairs trials in its own way, so each packs
its (trial, job) lanes differently.

After a deliberate change of the numbers, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change log
which digests moved and why.
"""

import fnmatch
import hashlib
import json
import tempfile
from pathlib import Path

from fdsic.harness import EXPERIMENTS, ExperimentConfig, run_experiment
from fdsic.transceiver import builtin_profile

GOLDEN = Path(__file__).with_name("golden_digests.json")

# the meta.txt keys that vary by host, time or build (the lane count decides
# how many kernel calls a run makes), as fnmatch patterns
UNPINNED = ("duration_s", "phase*", "ns_per_*", "cpu_*", "minor_faults",
            "peak_rss_rise_mb", "version", "blas_threads", "lms_lanes", "lms_calls",
            "lms_lane_fill")


RUNS = {**{name: (name, "gaussian") for name in EXPERIMENTS},
        **{f"{name}-ofdm": (name, "ofdm")
           for name in ("sinr-sweep", "bias", "bounds-probe", "power-budget")}}


def _pinned(path: Path) -> bytes:
    """The bytes of ``path``, without its lines of an ``UNPINNED`` key if
    it is a ``meta.txt``."""
    if path.name != "meta.txt":
        return path.read_bytes()
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not any(fnmatch.fnmatchcase(line.split(" = ")[0], pattern)
                              for pattern in UNPINNED)).encode()


def experiment_digests(out: Path, runs=tuple(RUNS)) -> dict[str, str]:
    """``{"<run>/<file name>": sha256}`` of every CSV, SVG and ``meta.txt``
    (its pinned lines) of tiny runs of the ``runs`` of RUNS, every
    experiment by default."""
    profile = builtin_profile("type2")
    digests = {}
    for name in runs:
        experiment, source = RUNS[name]
        config = ExperimentConfig(experiment=experiment, profile=profile, trials=2,
                                  iterations=3000, tx_grid_dbm=(-5.0, 5.0),
                                  signal_source=source, seed=17,
                                  output_dir=out / name)
        report = run_experiment(config)
        for path in (*report.csv_paths, *report.svg_paths, report.meta_path):
            digests[f"{name}/{path.name}"] = hashlib.sha256(_pinned(path)).hexdigest()
    return digests


def test_csv_digests_unchanged(tmp_path):
    assert experiment_digests(tmp_path) == json.loads(GOLDEN.read_text())


def _assert_build_keeps_the_digests(build, out: Path):
    runs = ("bias", "sinr-sweep", "convergence", "bounds-probe")
    want = {key: digest for key, digest in json.loads(GOLDEN.read_text()).items()
            if key.split("/")[0] in runs}
    with build():
        assert experiment_digests(out, runs) == want


def test_scalar_build_keeps_the_digests(tmp_path, scalar_kernel):
    _assert_build_keeps_the_digests(scalar_kernel, tmp_path)


def test_avx2_build_keeps_the_digests(tmp_path, avx2_kernel):
    _assert_build_keeps_the_digests(avx2_kernel, tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(experiment_digests(Path(tmp)), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
