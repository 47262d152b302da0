#!/usr/bin/env python3
"""Regenerate the bundled data assets under src/batsim/data.

Everything is seed-deterministic.  Rerunning this script reproduces the
fitted lineup and the transition table byte for byte.  The converter
weights are reproduced byte for byte only on the same numpy/BLAS build and
CPU: their last bits depend on both, so another host can write a
converter_default.json that differs in the last digits.

  lineup_fitted.json        ability vectors fitted to the slash targets
  transitions_default.json  transition table from a synthetic event log
  converter_default.json    strategy conversion model trained on the
                            502-player synthetic pool, exactly as
                            `batsim --seed CONVERTER_SEED train-converter`
                            trains it
"""

import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from batsim import cli  # noqa: E402
from batsim.config import TransitionConfig  # noqa: E402
from batsim.defaults import (  # noqa: E402
    CONVERTER_ASSET,
    CONVERTER_SEED,
    FITTED_ASSET,
    TABLE_ASSET,
    TABLE_EVENTS,
    TABLE_SEED,
    bundled_lineup_targets,
    fit_lineup,
    lineup_cache_obj,
)
from batsim.fileio import atomic_write  # noqa: E402
from batsim.synthdata import synthesize_event_log  # noqa: E402
from batsim.transitions import build_table  # noqa: E402

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "batsim" / "data"


def main() -> None:
    t0 = time.time()
    targets = bundled_lineup_targets()
    vectors, residuals = fit_lineup(targets)
    with atomic_write(DATA_DIR / FITTED_ASSET) as fh:
        fh.write(json.dumps(lineup_cache_obj(targets, vectors, residuals),
                            indent=1) + "\n")
    worst = max(max(abs(r) for r in res.values()) for res in residuals)
    print(f"lineup: fitted {len(vectors)} slots, worst residual {worst:.4f} "
          f"({time.time() - t0:.1f}s)")

    t0 = time.time()
    # the synthetic log's table at the default transitions.min_count, as
    # transitions.source "event-csv" would build it from that log
    events = synthesize_event_log(TABLE_EVENTS, seed=TABLE_SEED)
    table = build_table(events, min_count=TransitionConfig().min_count)
    table.save(DATA_DIR / TABLE_ASSET)
    print(f"transitions: {len(table.rows)} rows, coverage {table.coverage:.3f} "
          f"({time.time() - t0:.1f}s)")

    t0 = time.time()
    # trained by the CLI under the default config; its metrics file stays
    # behind in the temporary directory
    with tempfile.TemporaryDirectory() as tmp:
        trained = pathlib.Path(tmp) / CONVERTER_ASSET
        status = cli.main(["--seed", str(CONVERTER_SEED), "--out", str(trained),
                           "train-converter"])
        if status:
            sys.exit(f"train-converter failed with exit code {status}")
        with atomic_write(DATA_DIR / CONVERTER_ASSET) as fh:
            fh.write(trained.read_text(encoding="utf-8"))
    print(f"converter: copied to {CONVERTER_ASSET} ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
