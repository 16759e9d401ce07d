"""Search random configurations for runs that break the command line's
contract: a run exits 0, 2 or 3 and prints no traceback and no warning.

Usage: python tools/config_audit.py SEED COUNT [TIMEOUT_S]

Draws COUNT configurations from ``random.Random(SEED)``: the experiment, M
and N, the transmit-power grid, the source, 1-3 trials, 2100-4000
iterations and, one time in three, ``--mu-frac``. Each perturbs one to
three keys of the type2 profile, most by tens of dB, some to an extreme
(thousands of dB, a 2000-bit ADC, an IRR of inf). Each configuration runs
as ``python -W error::RuntimeWarning -m fdsic.cli ... --check`` in a fresh
process, on the ``fdsic`` of this checkout's ``src``, under a time limit of
TIMEOUT_S seconds (default 120). Prints one JSON object: the exit codes
counted, and each run that exited other than 0, 2 or 3, printed a traceback
or a warning, or ran past the limit, with its options and profile entries.
Uses only the standard library.
"""

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROFILE = ROOT / "src" / "fdsic" / "data" / "type2.profile"
EXPERIMENTS = ("power-budget", "bias", "sinr-sweep", "convergence", "bounds-probe")
# the extremes a key may take instead of a shift by tens of dB
EXTREMES = {"adc_bits": ["1", "30", "60", "2000"], "irr": ["inf dB", "-40 dB", "300 dB"]}
EXTREME_DB = (-5000, -300, -200, 200, 300, 5000)
# each profile key but the transmit power, whose range the profile checks
VALUES = {key: value for key, value in re.findall(r"^(\w+) = (\S+)", PROFILE.read_text(),
                                                   flags=re.M) if key != "tx_power"}


def draw_config(rng: random.Random) -> tuple[list[str], dict[str, str]]:
    """One configuration: the command-line options and the profile entries
    it replaces."""
    experiment = rng.choice(EXPERIMENTS)
    m = rng.randint(2, 8)
    grid = rng.choice(["-5:25:5", "25", ",".join(
        f"{rng.uniform(-5, 25):.1f}" for _ in range(rng.randint(1, 3)))])
    source = "gaussian" if experiment == "convergence" or rng.random() < 0.7 else "ofdm"
    options = [experiment, "--M", str(m), "--N", str(rng.randint(1, m - 1)),
               "--tx-grid", grid, "--source", source,
               "--trials", str(rng.randint(1, 3)),
               "--iterations", str(rng.randint(2100, 4000)),
               "--seed", str(rng.randrange(1000))]
    if rng.random() < 1 / 3:
        options += ["--mu-frac", f"{rng.uniform(0.01, 1.2):.3g}"]
    entries = {}
    for key in rng.sample(sorted(VALUES), rng.randint(1, 3)):
        if rng.random() < 0.15:
            entries[key] = rng.choice(EXTREMES.get(key) or
                                      [f"{v:g} dB" for v in EXTREME_DB])
        elif key == "adc_bits":
            entries[key] = str(max(1, int(VALUES[key]) + rng.randint(-10, 20)))
        else:
            entries[key] = f"{float(VALUES[key]) + rng.uniform(-40, 40):.1f} dB"
    return options, entries


def run(options: list[str], entries: dict[str, str], workdir: Path,
        timeout: float) -> tuple[int | None, str | None]:
    """Run one configuration: its exit code (None past the time limit) and
    the end of its output if it breaks the contract, else None."""
    text = PROFILE.read_text()
    for key, value in entries.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    profile = workdir / "audit.profile"
    profile.write_text(text)
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "fdsic.cli", *options,
            "--profile", str(profile), "--check", "--out", str(workdir / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"ran past {timeout:g} s"
    printed = done.stdout + done.stderr
    broken = done.returncode not in (0, 2, 3) or re.search(r"Traceback|Warning", printed)
    return done.returncode, printed[-600:] if broken else None


def main(seed: int, count: int, timeout: float = 120.0) -> None:
    rng = random.Random(seed)
    codes, findings = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(count):
            options, entries = draw_config(rng)
            code, problem = run(options, entries, Path(tmp), timeout)
            codes[str(code)] += 1
            if problem:
                findings.append({"options": options, "profile": entries, "exit": code,
                                 "problem": problem})
    print(json.dumps({"seed": seed, "count": count, "exit_codes": dict(sorted(codes.items())),
                      "findings": findings}, indent=1))


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    main(int(sys.argv[1]), int(sys.argv[2]), *map(float, sys.argv[3:]))
