"""Run one batsim CLI command in this process and report on it.

Usage:
    python3 perfbench/op.py --mode {plain,trace} --report PATH -- ARGV...

ARGV is handed to ``batsim.cli.main`` unchanged. The package is imported from
the ``src`` directory of the checkout this file sits in, never from an
installed copy. The report is a JSON file holding:

- ``exit_code``: the CLI exit code;
- ``setup_end``: the monotonic clock reading at the first call into the
  engine (``mcengine.run_batches``) or the trainer (``conversion.train``),
  where set-up ends; the call then runs as usual;
- ``peak_rss_kb``: the peak resident set size of the largest process the
  command ran, this one or a pool worker;
- ``spans`` (``trace`` mode only): every span recorded by wrapping the
  public functions of the batsim modules where the calling module looks
  them up. Spans stay in memory until the command returns. Pool workers are
  not traced, so ``mcengine.run_batches`` is the innermost span of a
  simulation.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Tracer:
    """Spans as (name, start, end, parent) plus per-span attributes, kept in
    memory; calls nest on one thread, so a stack gives each span's parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            span_id = len(self.spans)
            self.spans.append(span)
            self._stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result
        return traced


def install_tracer(tracer: Tracer) -> None:
    """Wrap each public function at every place the workloads look it up:
    ``cli`` and ``sweeps`` import names directly, ``simulation`` calls
    ``mcengine`` through the module, and ``build_triple`` imports
    ``conversion.convert`` at call time."""
    from batsim import cli, conversion, mcengine, simulation, sweeps

    def run_batches_attrs(args, kwargs, result):
        _, truncated, fallbacks, pa = result
        return {"batches": -(-kwargs["n_games"] // mcengine.BATCH_SIZE),
                "truncated": truncated, "fallbacks": fallbacks, "pa": pa}

    def train_attrs(args, kwargs, result):
        _, metrics = result
        return {"epochs_run": metrics.epochs_run,
                "best_epoch": metrics.best_epoch,
                "mse_vector": metrics.mse_vector}

    def patch(name, owners, attr, attrs=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), attrs)
        for owner in owners:
            setattr(owner, attr, wrapped)

    patch("cli.main", [cli], "main")
    for attr in ("default_transition_table", "default_converter_params",
                 "fitted_lineup", "bundled_lineup_targets"):
        patch("defaults." + attr, [cli], attr)
    patch("simulation.monte_carlo", [cli, sweeps], "monte_carlo")
    patch("simulation.save", [simulation.RunStats], "save")
    patch("mcengine.compile_simulation", [mcengine], "compile_simulation")
    patch("mcengine.run_batches", [mcengine], "run_batches", run_batches_attrs)
    patch("strategies.build_triple", [cli, sweeps], "build_triple",
          lambda a, kw, triple: {"ordering_ok": triple.ordering_ok})
    patch("conversion.convert", [conversion], "convert")
    patch("sweeps.run_strategy_grid", [cli], "run_strategy_grid")
    patch("sweeps.run_baseline", [sweeps], "run_baseline")
    patch("sweeps.write_sweep_csv", [cli], "write_sweep_csv")
    patch("conversion.synthesize_players", [cli], "synthesize_players")
    patch("conversion.build_pair_dataset", [cli], "build_pair_dataset",
          lambda a, kw, pairs: {"pairs": len(pairs)})
    patch("conversion.train", [cli], "train", train_attrs)
    patch("conversion.save_params", [cli], "save_params")


def install_setup_mark(report: dict) -> None:
    """Note the time of the first game or epoch: the first call of
    ``mcengine.run_batches`` or ``conversion.train``."""
    from batsim import cli, mcengine

    def mark(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            report.setdefault("setup_end", time.monotonic())
            return fn(*args, **kwargs)
        return marked

    mcengine.run_batches = mark(mcengine.run_batches)
    cli.train = mark(cli.train)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one batsim CLI command.")
    ap.add_argument("--mode", choices=("plain", "trace"), required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    if not (SRC / "batsim" / "cli.py").is_file():
        print(f"batsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from batsim import cli

    report: dict = {}
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install_tracer(tracer)
    install_setup_mark(report)
    try:
        report["exit_code"] = cli.main(cli_argv)
    except SystemExit as exc:  # argparse rejects the command line
        report["exit_code"] = exc.code
    # Pool workers have been reaped by now, so RUSAGE_CHILDREN covers them.
    report["peak_rss_kb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
