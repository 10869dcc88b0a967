"""Command line surface tying the pipeline together.

Subcommands: simulate, calibrate-load, calibrate-slip, estimate, evaluate,
sweep.  Exit codes: 0 success, 1 a refusal (``errors.REFUSALS``), 2 I/O
error.  Diagnostics go to stderr as a single line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dsp import accel_to_displacement, double_integrate
from .errors import REFUSALS, SchemaError, TireSenseError, naming, quote_count
from .estimation import (
    convergence_turn,
    estimate_load_stream,
    fit_load_surface,
    fit_slip_model,
    predict_slip,
    sensitivity_sweep,
)
from .features import extract_features
from .io import (
    read_estimates,
    read_load_model,
    read_ranges,
    read_scenario,
    read_sidecar,
    read_slip_model,
    read_trace,
    sha256_of,
    write_estimates,
    write_feature_table,
    write_load_model,
    write_plot_data,
    write_report,
    write_sensitivity,
    write_slip_model,
    write_trace,
)
from .simulate import simulate


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiresense",
        description="Tire load and slip-angle estimation from liner accelerometer traces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic trace")
    p.add_argument("--scenario", required=True, type=Path)
    p.add_argument("--turns", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument(
        "--plot-integration",
        type=Path,
        default=None,
        help="emit one turn's displacement with and without filtering",
    )

    p = sub.add_parser("calibrate-load", help="fit the load model from a trace directory")
    p.add_argument("--traces", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("calibrate-slip", help="fit the slip regression from traces")
    p.add_argument("--traces", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("estimate", help="run the estimators over one trace")
    p.add_argument("--trace", required=True, type=Path)
    p.add_argument("--load-model", required=True, type=Path)
    p.add_argument("--slip-model", type=Path, default=None)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument(
        "--features",
        type=Path,
        default=None,
        help="emit the per-turn feature table CSV",
    )

    p = sub.add_parser("evaluate", help="compare estimates against sidecar truth")
    p.add_argument("--estimates", required=True, type=Path)
    p.add_argument("--truth", required=True, type=Path)
    p.add_argument("--report", required=True, type=Path)

    p = sub.add_parser("sweep", help="sensitivity sweep over factor ranges")
    p.add_argument("--ranges", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--plot-data", type=Path, default=None)
    return parser


def _cmd_simulate(args) -> int:
    scenario, sensor = read_scenario(args.scenario)
    with naming(args.scenario):
        trace, truth = simulate(scenario, sensor, args.turns)
    write_trace(args.out, trace, truth, scenario, sensor)
    if args.plot_integration is not None:
        # the trace starts at top dead centre: its first turn centres the first patch
        period, fs = float(truth.wheel_period_s[0]), trace.sample_rate
        turn = trace.a_radial[: round(period * fs)]
        times = np.arange(len(turn)) / fs
        write_plot_data(args.plot_integration, {
            "filtered_mm": (times, accel_to_displacement(-turn, fs, 1.0 / period)),
            "unfiltered_mm": (times, -double_integrate(turn, fs) * 1e3),
        })
    return 0


def _feature_tables(paths, include_lateral: bool):
    """The ground truth, scenario and feature table of each trace in ``paths``.
    Each trace lives until the next is read, so the heap is not trimmed in between."""
    for path in paths:
        with naming(path):
            trace, truth, scenario, _ = read_trace(path)
            table, _ = extract_features(trace, scenario.vehicle_speed, scenario.unloaded_radius,
                                        include_lateral)
        yield truth, scenario, table


def _calibrate(traces_dir: Path, include_lateral: bool, columns, fit):
    """``fit`` of the rows ``columns(scenario, turns)`` of the turns with a
    patch, over every file in ``traces_dir`` but the .json sidecars."""
    with naming(traces_dir):
        paths = sorted(p for p in Path(traces_dir).iterdir()
                       if p.is_file() and p.suffix != ".json")
        if not paths:
            raise SchemaError("no trace files found")
        blocks = []
        for _, scenario, table in _feature_tables(paths, include_lateral):
            turns = table[np.isfinite(table.patch_length)]
            blocks.append(np.column_stack(np.broadcast_arrays(*columns(scenario, turns))))
        return fit(np.concatenate(blocks))


def _cmd_calibrate_load(args) -> int:
    write_load_model(args.out, _calibrate(args.traces, False, lambda scenario, turns: (
        scenario.vertical_load, scenario.inflation_pressure, turns.peak_radial_displacement
    ), fit_load_surface))
    return 0


def _cmd_calibrate_slip(args) -> int:
    write_slip_model(args.out, _calibrate(args.traces, True, lambda scenario, turns: (
        turns.peak_lateral_displacement, turns.lateral_slope, scenario.slip_angle
    ), fit_slip_model))
    return 0


def _cmd_estimate(args) -> int:
    lateral = args.slip_model is not None or args.features is not None
    [(truth, scenario, table)] = _feature_tables([args.trace], lateral)
    if len(table) != truth.n_turns:
        with naming(args.trace):
            raise SchemaError(f"found {len(table)} of the sidecar's {truth.n_turns} turns")
    surface = read_load_model(args.load_model)
    slip_model = read_slip_model(args.slip_model) if args.slip_model else None

    result = estimate_load_stream(
        surface, table.peak_radial_displacement, scenario.inflation_pressure
    )
    if slip_model is not None:
        slips = predict_slip(
            slip_model, table.peak_lateral_displacement, table.lateral_slope
        )
    else:
        slips = np.full(len(table), np.nan)
    write_estimates(args.out, result.estimates_lbf, slips, result.valid)
    if args.features is not None:
        write_feature_table(args.features, table)
    return 0


def _cmd_evaluate(args) -> int:
    loads, slips, valid = read_estimates(args.estimates)
    scenario, _, n_truth = read_sidecar(args.truth)
    true_load = float(scenario.vertical_load)
    true_slip = float(scenario.slip_angle)
    with naming(args.estimates):
        if len(loads) != n_truth:
            raise SchemaError(f"{len(loads)} estimate rows do not match "
                              f"the {quote_count(n_truth)} turns of {args.truth}")
        if not valid.any():
            raise TireSenseError("no valid turn to evaluate")

        rel_err = np.abs(loads[valid] - true_load) / true_load
        final_rel_err = abs(loads[-1] - true_load) / true_load

        report = {
            "tool_version": __version__,
            "inputs": {
                "estimates_sha256": sha256_of(args.estimates),
                "truth_sha256": sha256_of(args.truth),
            },
            "load": {
                "true_lbf": true_load,
                "converged_estimate_lbf": float(loads[-1]),
                "converged_relative_error": float(final_rel_err),
                "relative_error_mean": float(np.mean(rel_err)),
                "relative_error_rms": float(np.sqrt(np.mean(rel_err**2))),
                "relative_error_max": float(np.max(rel_err)),
                "convergence_turn": convergence_turn(loads, valid),
            },
            "slip": None,
            "skipped_turns": int(np.sum(~valid)),
            "n_turns": int(len(loads)),
        }
        slip_mask = valid & np.isfinite(slips)
        if slip_mask.any():
            slip_err = np.abs(slips[slip_mask] - true_slip)
            report["slip"] = {
                "true_deg": true_slip,
                "error_mean": float(np.mean(slip_err)),
                "error_rms": float(np.sqrt(np.mean(slip_err**2))),
                "error_max": float(np.max(slip_err)),
            }
    write_report(args.report, report)
    return 0


def _cmd_sweep(args) -> int:
    with naming(args.ranges):
        report = sensitivity_sweep(read_ranges(args.ranges))
    write_sensitivity(args.out, report)
    if args.plot_data is not None:
        # one-at-a-time sweep curves, columns value, peak radial and chord
        write_plot_data(args.plot_data, {
            f"{feature}_vs_{factor}": (curve[:, 0], curve[:, column])
            for factor, curve in report.curves.items()
            for feature, column in (("patch_length", 2), ("peak_radial", 1))
        })
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "calibrate-load": _cmd_calibrate_load,
    "calibrate-slip": _cmd_calibrate_slip,
    "estimate": _cmd_estimate,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's overflow and invalid arithmetic raise, and end the command
        # as refusals do: with one line, not a stack of warnings
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
