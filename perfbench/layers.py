"""Per-layer metrics from the spans of traced commands.

A span is a dict with ``name``, ``start``, ``end``, ``parent`` (index of the
enclosing span or None) and optional ``attrs``; ``op.py`` writes them. Self
time is a span's duration minus the time its direct children cover (calls
nest on one thread, so children never overlap).
"""

from __future__ import annotations

import statistics

# Metrics given as percentiles over every call in a run, not per command.
_PER_CALL = ("mcengine.run_batches_s", "sweeps.cell_s")


def percentile(values, q: int) -> float:
    """Inclusive-method percentile; a single sample is its own percentile."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list[float]:
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def _sweep_cells(spans) -> list[float]:
    """Durations of the sweep cells. The baseline cell ends with
    ``run_baseline``; each later cell ends with its ``monte_carlo`` call and
    starts where the previous cell ended, so it holds the cell's triple
    building as well as its simulation. Spans are listed in start order."""
    cells = []
    for grid_id, grid in enumerate(spans):
        if grid["name"] != "sweeps.run_strategy_grid":
            continue
        edge = grid["start"]
        for s in spans[grid_id + 1:]:
            if s["parent"] == grid_id and s["name"] in ("sweeps.run_baseline",
                                                        "simulation.monte_carlo"):
                cells.append(s["end"] - edge)
                edge = s["end"]
    return cells


def command_layers(spans) -> tuple[dict, dict]:
    """Per-command layer values of one traced command, plus the per-call
    samples of each ``_PER_CALL`` metric."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list] = {}
    for s, s_own in zip(spans, own):
        name = s["name"]
        total[name] = total.get(name, 0.0) + _duration(s)
        self_total[name] = self_total.get(name, 0.0) + s_own
        calls[name] = calls.get(name, 0) + 1
        if "attrs" in s:
            attrs.setdefault(name, []).append(s["attrs"])

    def attr_sum(name, key):
        return sum(a[key] for a in attrs.get(name, ()))

    run_batches_s = total.get("mcengine.run_batches", 0.0)
    batches = attr_sum("mcengine.run_batches", "batches")
    pa = attr_sum("mcengine.run_batches", "pa")
    train = attrs.get("conversion.train", [{}])[-1]
    epochs = train.get("epochs_run", 0)
    train_s = total.get("conversion.train", 0.0)
    cells = _sweep_cells(spans)
    values = {
        "mcengine.run_batches_calls": calls.get("mcengine.run_batches", 0),
        "mcengine.ms_per_batch": 1e3 * run_batches_s / batches if batches else 0.0,
        "mcengine.pa_per_s": pa / run_batches_s if run_batches_s else 0.0,
        "mcengine.batches": batches,
        "mcengine.pa": pa,
        "mcengine.truncated_games": attr_sum("mcengine.run_batches", "truncated"),
        "mcengine.fallback_transitions": attr_sum("mcengine.run_batches", "fallbacks"),
        "mcengine.compile_s": total.get("mcengine.compile_simulation", 0.0),
        "mcengine.compile_calls": calls.get("mcengine.compile_simulation", 0),
        "simulation.monte_carlo_self_s": self_total.get("simulation.monte_carlo", 0.0),
        "simulation.save_s": total.get("simulation.save", 0.0),
        "strategies.build_triple_s": total.get("strategies.build_triple", 0.0),
        "strategies.build_triple_calls": calls.get("strategies.build_triple", 0),
        "strategies.infeasible_triples": sum(
            not a["ordering_ok"] for a in attrs.get("strategies.build_triple", ())),
        "conversion.convert_calls": calls.get("conversion.convert", 0),
        "sweeps.cells": len(cells),
        "sweeps.self_s": self_total.get("sweeps.run_strategy_grid", 0.0)
        + self_total.get("sweeps.run_baseline", 0.0),
        "sweeps.write_csv_s": total.get("sweeps.write_sweep_csv", 0.0),
        "conversion.synthesize_players_s": total.get("conversion.synthesize_players", 0.0),
        "conversion.build_pair_dataset_s": total.get("conversion.build_pair_dataset", 0.0),
        "conversion.pairs": attr_sum("conversion.build_pair_dataset", "pairs"),
        "conversion.train_s": train_s,
        "conversion.s_per_epoch": train_s / epochs if epochs else 0.0,
        "conversion.epochs_run": epochs,
        "conversion.best_epoch": train.get("best_epoch", 0),
        "conversion.useful_epoch_ratio":
            train.get("best_epoch", 0) / epochs if epochs else 0.0,
        "conversion.val_mse_vector": train.get("mse_vector", 0.0),
        "conversion.save_params_s": total.get("conversion.save_params", 0.0),
        "defaults.load_s": sum(t for n, t in total.items()
                               if n.startswith("defaults.")),
        "cli.self_s": self_total.get("cli.main", 0.0),
    }
    samples = {"mcengine.run_batches_s": [_duration(s) for s in spans
                                          if s["name"] == "mcengine.run_batches"],
               "sweeps.cell_s": cells}
    return values, samples


def run_layers(traced_spans, traced_walls, plain_walls) -> dict:
    """Every per-layer metric of one run: the median over its traced
    commands of each per-command value, percentiles over all calls, and the
    tracing overhead from the median traced and untraced wall times."""
    per_command = []
    samples: dict[str, list] = {stem: [] for stem in _PER_CALL}
    for spans in traced_spans:
        values, command_samples = command_layers(spans)
        per_command.append(values)
        for key, vals in command_samples.items():
            samples[key].extend(vals)
    out = {name: statistics.median(v[name] for v in per_command)
           for name in per_command[0]}
    for stem in _PER_CALL:
        out[stem + ".p50"] = percentile(samples[stem], 50)
        out[stem + ".p90"] = percentile(samples[stem], 90)
    out["trace.overhead"] = (statistics.median(traced_walls)
                             / statistics.median(plain_walls) - 1.0)
    return out
