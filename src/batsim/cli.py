"""Command-line interface.

Subcommands cover the full pipeline: estimate a transition table from an
event log, compute run expectancy, train the strategy conversion model,
convert a single batter, simulate a season's worth of games, sweep strategy
or threshold grids, and validate a run distribution against a reference.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict

# perfbench/op.py patches several of the names below as attributes of cli
from .abilities import (
    LEAGUE_AVERAGE,
    MAX_SHARE_SHIFT,
    MAX_WOBA,
    AbilityVector,
    dump_ability_vector,
    load_ability_vector,
)
from .config import (
    POLICY_KINDS,
    SWEEP_MODES,
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    require_range,
    with_override,
)
from .conversion import (
    ProjectionFailureError,
    build_pair_dataset,
    convert,
    dump_pair_csv,
    load_params,
    save_params,
    synthesize_players,
    train,
)
from .defaults import (
    bundled_lineup_targets,
    default_converter_params,
    default_transition_table,
    fitted_lineup,
    lineup_targets_from_json,
)
from .fileio import atomic_write, same_output, write_csv
from .mcengine import shutdown_pool
from .simulation import Lineup, RunStats, load_histogram_csv, monte_carlo
from .strategies import always_normal, build_triple, fixed_policy, threshold_policy
from .sweeps import (
    mean_batter,
    run_strategy_grid,
    run_threshold_grid,
    total_variation,
    write_sweep_csv,
)
from .transitions import (
    EventLogError,
    GameState,
    NonAbsorbingError,
    TransitionTable,
    build_table,
    parse_event_log,
    run_expectancy,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


# ---------------------------------------------------------------- resolution

def _resolve_lineup(cfg: ExperimentConfig):
    lc = cfg.lineup
    if lc.vectors_path is not None:
        with open(lc.vectors_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, list) or len(obj) != 9:
            raise ConfigError(f"{lc.vectors_path}: expected a JSON list of "
                              "9 ability vectors")
        for i, d in enumerate(obj):
            if not isinstance(d, dict):
                raise ConfigError(f"{lc.vectors_path}: entry {i} is not an "
                                  f"ability vector object: {d!r}")
        return [AbilityVector.from_json_dict(d) for d in obj]
    if lc.targets_path is not None:
        with open(lc.targets_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        targets = lineup_targets_from_json(obj, lc.targets_path)
        if len(targets) != 9:
            raise ConfigError(f"{lc.targets_path}: expected 9 target rows, "
                              f"got {len(targets)}")
    else:
        targets = bundled_lineup_targets()
    return list(fitted_lineup(targets))


def _resolve_table(cfg: ExperimentConfig) -> TransitionTable:
    tc = cfg.transitions
    if tc.source == "bundled":
        return default_transition_table()
    if tc.source == "simple":
        return TransitionTable(rows={})
    events, _ = parse_event_log(tc.event_csv, strict=True)
    return build_table(events, min_count=tc.min_count)


def _resolve_params(cfg: ExperimentConfig):
    if cfg.converter.params_path is not None:
        return load_params(cfg.converter.params_path)
    return default_converter_params()


def _resolve_policy(cfg: ExperimentConfig, table, normals):
    """Returns (lineup, policy) for the configured policy kind."""
    pc = cfg.policy
    if pc.kind == "normal-only":
        return Lineup.from_vectors(normals), always_normal
    params = _resolve_params(cfg)
    triples = tuple(build_triple(v, params, pc.d_alpha, pc.d_woba)
                    for v in normals)
    lineup = Lineup(triples)
    if pc.kind == "fixed":
        return lineup, fixed_policy
    re_table = run_expectancy(table, mean_batter(normals))
    return lineup, threshold_policy(pc.theta_o, pc.theta_l, re_table)


def _load_batter(path):
    return LEAGUE_AVERAGE if path is None else load_ability_vector(path)


def _check_outputs(cfg: ExperimentConfig, args, reads, *outputs) -> None:
    """Reject, before any work, a command that would replace a file it
    reads, or two of whose outputs name one file, where the later write
    would replace the earlier.  It reads the files its command line names
    and those cfg names for each part in reads ("table", "lineup",
    "params") that it resolves.  outputs are (flag, path) pairs; None is
    no output."""
    named = [(flag, path) for flag, path in outputs if path is not None]
    # None: unset, or another command's
    inputs = [(flag, getattr(args, flag[2:], None))
              for flag in ("--config", "--events", "--reference", "--batter")]
    tc, lc = cfg.transitions, cfg.lineup
    config_files = {
        "table": [("transitions.event_csv", tc.event_csv)]
        if tc.source == "event-csv" else [],
        "lineup": [("lineup.vectors_path", lc.vectors_path),
                   ("lineup.targets_path", lc.targets_path)],
        "params": [("converter.params_path", cfg.converter.params_path)]}
    inputs += [pair for part in reads for pair in config_files[part]]
    for (flag_a, a), (flag_b, b) in itertools.chain(
            itertools.product(inputs, named), itertools.combinations(named, 2)):
        if a is not None and same_output(a, b):
            raise ConfigError(f"{flag_a} {a} and {flag_b} {b} name the same file")


# ---------------------------------------------------------------- commands

def cmd_build_transitions(cfg: ExperimentConfig, args) -> int:
    out = args.out or "transitions.json"
    _check_outputs(cfg, args, (), ("--out", out))
    events, rejected = parse_event_log(args.events, strict=not args.lenient)
    if not events:
        raise EventLogError(f"{args.events}: no usable events")
    table = build_table(events, min_count=cfg.transitions.min_count)
    table.save(out)
    print(f"built {len(table.rows)} transition rows from "
          f"{len(events)} events (coverage {table.coverage:.3f})")
    if rejected:
        print(f"rejected {len(rejected)} rows:")
        for lineno, reason in rejected[:10]:
            print(f"  line {lineno}: {reason}")
        if len(rejected) > 10:
            print(f"  ... and {len(rejected) - 10} more")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_compute_re(cfg: ExperimentConfig, args) -> int:
    out = args.out or "run_expectancy.json"
    _check_outputs(cfg, args, ("table",), ("--out", out))
    table = _resolve_table(cfg)
    batter = _load_batter(args.batter)
    re_table = run_expectancy(table, batter)
    re_table.save(out)
    start = re_table.value(GameState(0, 0))
    print(f"run expectancy from (0 outs, bases empty): {start:.4f}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_train_converter(cfg: ExperimentConfig, args) -> int:
    out = args.out or "converter_params.json"
    metrics_path = out + ".metrics.json"
    _check_outputs(cfg, args, (), ("--out", out),
                   ("the --out metrics file", metrics_path),
                   ("--pairs-csv", args.pairs_csv))
    n_players = cfg.converter.n_players
    players = synthesize_players(n_players, seed=cfg.seed)
    pairs = build_pair_dataset(players)
    params, metrics = train(pairs, seed=cfg.seed)
    # nested: the params and metrics files are open before the pairs dump
    # starts and replace their targets after it, so a path that cannot be
    # written leaves none of the three
    with atomic_write(metrics_path) as fh, atomic_write(out) as params_fh:
        json.dump({"n_players": n_players, "n_pairs": len(pairs),
                   **asdict(metrics)}, fh, indent=2)
        fh.write("\n")
        save_params(params, params_fh, train_seed=cfg.seed)
        if args.pairs_csv:
            dump_pair_csv(pairs, args.pairs_csv)
    if args.pairs_csv:
        print(f"wrote {len(pairs)} training pairs to {args.pairs_csv}")
    print(f"trained on {len(pairs)} pairs from {n_players} players "
          f"({metrics.epochs_run} epochs)")
    print(f"validation: MSE(vector) {metrics.mse_vector:.3e}, "
          f"MSE(wOBA) {metrics.mse_woba:.3e}, "
          f"negative mass after projection {metrics.neg_mass_projected:.2e}")
    print(f"wrote {out} and {metrics_path}")
    return EXIT_OK


def cmd_convert(cfg: ExperimentConfig, args) -> int:
    for flag, value in (("--d-alpha", args.d_alpha), ("--d-woba", args.d_woba)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    require_range("--d-alpha", (args.d_alpha,), -MAX_SHARE_SHIFT, MAX_SHARE_SHIFT)
    require_range("--d-woba", (args.d_woba,), -MAX_WOBA, 0.0)
    _check_outputs(cfg, args, ("params",), ("--out", args.out))
    params = _resolve_params(cfg)
    batter = _load_batter(args.batter)
    result = convert(params, batter, args.d_alpha, args.d_woba)
    if args.out:
        dump_ability_vector(result, args.out)
        print(f"wrote {args.out}")
    else:
        json.dump(result.to_json_dict(), sys.stdout, indent=2)
        print()
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    out = args.out or "runstats.json"
    reads = ("table", "lineup") + (() if cfg.policy.kind == "normal-only"
                                   else ("params",))
    _check_outputs(cfg, args, reads, ("--out", out),
                   ("--histogram-csv", args.histogram_csv))
    table = _resolve_table(cfg)
    normals = _resolve_lineup(cfg)
    lineup, policy = _resolve_policy(cfg, table, normals)
    stats = monte_carlo(lineup, policy, table, cfg.n_games, cfg.seed,
                        workers=cfg.workers)
    stats.save(out, csv_path=args.histogram_csv)
    print(f"policy {cfg.policy.kind}: mean {stats.mean:.4f} runs/game "
          f"(stderr {stats.stderr:.4f}) over {stats.n_games} games")
    if stats.truncated_games or stats.fallback_transitions:
        print(f"flags: {stats.truncated_games} truncated games, "
              f"{stats.fallback_transitions} fallback transitions")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    out = args.out or "sweep.csv"
    _check_outputs(cfg, args, ("table", "lineup", "params"), ("--out", out))
    mode = cfg.sweep.mode
    table = _resolve_table(cfg)
    normals = _resolve_lineup(cfg)
    params = _resolve_params(cfg)
    common = dict(n_games=cfg.n_games, seed=cfg.seed, workers=cfg.workers)
    if mode == "strategy-grid":
        rows = run_strategy_grid(normals, params, table,
                                 d_alpha_grid=cfg.sweep.d_alpha_grid,
                                 d_woba_grid=cfg.sweep.d_woba_grid, **common)
    else:
        rows = run_threshold_grid(normals, params, table,
                                  theta_o_grid=cfg.sweep.theta_o_grid,
                                  theta_l_grid=cfg.sweep.theta_l_grid,
                                  d_alpha=cfg.policy.d_alpha,
                                  d_woba=cfg.policy.d_woba, **common)
    write_sweep_csv(rows, out)
    best = max(rows[1:], key=lambda r: r.mean_runs, default=rows[0])
    print(f"{mode}: {len(rows)} rows (baseline {rows[0].mean_runs:.4f}, "
          f"best {best.mean_runs:.4f})")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig, args) -> int:
    out = args.out or "validate_hist.csv"
    _check_outputs(cfg, args, ("table", "lineup"), ("--out", out))
    reference = load_histogram_csv(args.reference)
    ref_stats = RunStats(reference)  # rejects an all-zero one
    table = _resolve_table(cfg)
    normals = _resolve_lineup(cfg)
    lineup = Lineup.from_vectors(normals)
    stats = monte_carlo(lineup, always_normal, table, cfg.n_games, cfg.seed,
                        workers=cfg.workers)
    tv = total_variation(stats.histogram, reference)
    counts = itertools.zip_longest(stats.histogram, reference, fillvalue=0)
    write_csv(out, ("runs", "count_sim", "count_ref"),
              ((r, sim, ref) for r, (sim, ref) in enumerate(counts)))
    print(f"simulated mean {stats.mean:.4f} over {stats.n_games} games; "
          f"reference mean {ref_stats.mean:.4f} over {ref_stats.n_games}")
    print(f"mean difference {stats.mean - ref_stats.mean:+.4f}; "
          f"total variation distance {tv:.4f}")
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------- entry

# each flag that sets a config field, and the field's dotted path
_FLAG_FIELDS = {"--seed": "seed", "--workers": "workers",
                "--players": "converter.n_players",
                "--min-count": "transitions.min_count",
                "--policy": "policy.kind", "--mode": "sweep.mode"}


def _add_override(parser, flag: str, **kwargs) -> None:
    parser.add_argument(flag, dest=_FLAG_FIELDS[flag],
                        help=f"override config {_FLAG_FIELDS[flag]}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batsim",
        description="Batting-order strategy simulator.")
    parser.add_argument("--config", help="experiment config JSON")
    _add_override(parser, "--seed", type=int)
    _add_override(parser, "--workers", type=int)
    parser.add_argument("--out", help="primary output path")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective config, with every "
                             "override flag applied, and exit")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build-transitions",
                       help="estimate a transition table from an event CSV")
    p.add_argument("--events", required=True, help="event log CSV")
    _add_override(p, "--min-count", type=int)
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed rows instead of failing")

    p = sub.add_parser("compute-re", help="run-expectancy table for a batter")
    p.add_argument("--batter", help="ability vector JSON (default: league average)")

    p = sub.add_parser("train-converter",
                       help="train the strategy conversion model")
    _add_override(p, "--players", type=int)
    p.add_argument("--pairs-csv", help="also dump the training pairs")

    p = sub.add_parser("convert", help="convert one batter's ability vector")
    p.add_argument("--batter", help="ability vector JSON (default: league average)")
    p.add_argument("--d-alpha", type=float, required=True,
                   help="requested on-base share change (signed)")
    p.add_argument("--d-woba", type=float, required=True,
                   help="wOBA cost (must be <= 0)")

    p = sub.add_parser("simulate", help="simulate games under one policy")
    _add_override(p, "--policy", choices=POLICY_KINDS)
    p.add_argument("--histogram-csv", help="also write the runs histogram CSV")

    p = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    _add_override(p, "--mode", choices=SWEEP_MODES)

    p = sub.add_parser("validate",
                       help="compare the baseline run distribution to a reference")
    p.add_argument("--reference", required=True, help="reference runs,count CSV")

    return parser


_COMMANDS = {
    "build-transitions": cmd_build_transitions,
    "compute-re": cmd_compute_re,
    "train-converter": cmd_train_converter,
    "convert": cmd_convert,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        for flag, path in _FLAG_FIELDS.items():
            value = getattr(args, path, None)  # None: unset, or another command's
            try:
                cfg = cfg if value is None else with_override(cfg, path, value)
            except ConfigError as exc:
                raise ConfigError(f"{flag} {value}: {exc}") from None
        if args.print_config:
            dump_config(cfg, sys.stdout)
            return EXIT_OK
        if args.command is None:
            parser.print_help()
            return EXIT_CONFIG
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonAbsorbingError, ProjectionFailureError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        shutdown_pool()  # the command's pool workers end with the command


if __name__ == "__main__":
    sys.exit(main())
