"""Golden digests: every experiment's CSVs at tiny scale, hashed.

Each experiment runs with 2 trials and 3000 iterations on the grid -5,
5 dBm on the Gaussian source, and ``sinr-sweep``, ``bias``,
``bounds-probe`` and ``power-budget`` run so on the OFDM source too
(``<experiment>-ofdm``).
The SHA-256 of every CSV must equal the digest stored in
``golden_digests.json``, so a change that moves any number shows up in
review as a changed digest.

After a deliberate change of the numbers, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change log
which digests moved and why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from fdsic.harness import EXPERIMENTS, ExperimentConfig, run_experiment
from fdsic.transceiver import builtin_profile

GOLDEN = Path(__file__).with_name("golden_digests.json")


RUNS = {**{name: (name, "gaussian") for name in EXPERIMENTS},
        **{f"{name}-ofdm": (name, "ofdm")
           for name in ("sinr-sweep", "bias", "bounds-probe", "power-budget")}}


def experiment_digests(out: Path) -> dict[str, str]:
    """``{"<run>/<csv name>": sha256}`` for tiny runs of every experiment."""
    profile = builtin_profile("type2")
    digests = {}
    for name, (experiment, source) in RUNS.items():
        config = ExperimentConfig(experiment=experiment, profile=profile, trials=2,
                                  iterations=3000, tx_grid_dbm=(-5.0, 5.0),
                                  signal_source=source, seed=17,
                                  output_dir=out / name)
        for path in run_experiment(config).csv_paths:
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_csv_digests_unchanged(tmp_path):
    assert experiment_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(experiment_digests(Path(tmp)), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
