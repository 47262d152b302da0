"""Write reference.json: the simulate-fixed mean runs per game from one long
simulation, which the benchmark's output check compares each command with.

Usage (from the root of a checkout):
    python3 perfbench/make_reference.py

The reference is a Monte Carlo estimate with its standard error, not exact
bytes, so a change to the random stream still passes the check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

from run import HERE, OP, ROOT, asset_hashes, simulate_command

REFERENCE_GAMES = 4_000_000
REFERENCE_SEED = 20260


def main() -> int:
    command = simulate_command(REFERENCE_SEED, REFERENCE_GAMES)
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        with open(f"{out}/config.json", "w") as fh:
            json.dump(command.config, fh)
        subprocess.run([sys.executable, str(OP), "--mode", "plain",
                        "--report", f"{out}/report.json", "--", *command.argv],
                       cwd=out, check=True)
        with open(f"{out}/runstats.json") as fh:
            stats = json.load(fh)
    reference = {"simulate-fixed": {
        "mean": stats["mean"], "stderr": stats["stderr"],
        "n_games": stats["n_games"], "seed": REFERENCE_SEED,
        "config": command.config, "assets_sha256": asset_hashes()}}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(json.dumps(reference["simulate-fixed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
