"""Command line surface tying the pipeline together.

Subcommands: simulate, calibrate-load, calibrate-slip, estimate, evaluate,
sweep.  Exit codes: 0 success, 1 validation or schema error, 2 I/O error.
Diagnostics go to stderr as a single line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dsp import accel_to_displacement, double_integrate, segment_turns
from .errors import SchemaError, TireSenseError
from .estimation import (
    DEFAULT_FORGETTING,
    DEFAULT_INITIAL_COVARIANCE,
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
    p.add_argument("--seed", type=int, default=None, help="override the sensor seed")
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
    p.add_argument("--lambda", dest="forgetting", type=float, default=DEFAULT_FORGETTING)
    p.add_argument("--p0", type=float, default=DEFAULT_INITIAL_COVARIANCE)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument(
        "--plot-data",
        type=Path,
        default=None,
        help="emit per-turn estimate vs truth series",
    )
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
    if args.seed is not None:
        sensor = replace(sensor, seed=args.seed)
    trace, truth = simulate(scenario, sensor, args.turns)
    write_trace(args.out, trace, truth, scenario, sensor)
    if args.plot_integration is not None:
        period = float(truth.wheel_period_s[0])
        segment = segment_turns(trace, period)[0]
        turn = trace.a_radial[segment.start_index : segment.end_index]
        filtered = accel_to_displacement(-turn, trace.sample_rate, 1.0 / period)
        raw = -double_integrate(turn, trace.sample_rate) * 1e3
        times = np.arange(len(segment)) / trace.sample_rate
        rows = [("filtered_mm", t, v) for t, v in zip(times, filtered.samples)]
        rows += [("unfiltered_mm", t, v) for t, v in zip(times, raw)]
        write_plot_data(args.plot_integration, rows)
    return 0


def _feature_tables(traces_dir: Path, include_lateral: bool):
    """(scenario, feature table) for every trace CSV in ``traces_dir``."""
    paths = sorted(Path(traces_dir).glob("*.csv"))
    if not paths:
        raise SchemaError(f"{traces_dir}: no trace CSV files found")
    for path in paths:
        trace, truth, scenario, sensor = read_trace(path)
        table, _ = extract_features(
            trace,
            wheel_speed=scenario.vehicle_speed,
            radius_hint=scenario.unloaded_radius,
            include_lateral=include_lateral,
        )
        yield scenario, table


def _cmd_calibrate_load(args) -> int:
    blocks = []
    for scenario, table in _feature_tables(args.traces, include_lateral=False):
        kept = table[np.isfinite(table.peak_radial_displacement)]
        blocks.append(np.column_stack(np.broadcast_arrays(
            scenario.vertical_load, scenario.inflation_pressure,
            kept.peak_radial_displacement,
        )))
    write_load_model(args.out, fit_load_surface(np.concatenate(blocks)))
    return 0


def _cmd_calibrate_slip(args) -> int:
    blocks = []
    for scenario, table in _feature_tables(args.traces, include_lateral=True):
        kept = table[np.isfinite(table.peak_lateral_displacement)]
        blocks.append(np.column_stack(np.broadcast_arrays(
            kept.peak_lateral_displacement, kept.lateral_slope, scenario.slip_angle
        )))
    write_slip_model(args.out, fit_slip_model(np.concatenate(blocks)))
    return 0


def _cmd_estimate(args) -> int:
    trace, truth, scenario, sensor = read_trace(args.trace)
    surface = read_load_model(args.load_model)
    slip_model = read_slip_model(args.slip_model) if args.slip_model else None

    table, _ = extract_features(
        trace,
        wheel_speed=scenario.vehicle_speed,
        radius_hint=scenario.unloaded_radius,
        include_lateral=slip_model is not None,
    )
    pressures = np.full(len(table), scenario.inflation_pressure)
    result = estimate_load_stream(
        surface, table.peak_radial_displacement, pressures,
        forgetting=args.forgetting, initial_covariance=args.p0,
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
    if args.plot_data is not None:
        n = len(table)
        rows = np.empty((2 * n, 3), dtype=object)
        rows[:, 0] = np.repeat(["estimate_lbf", "truth_lbf"], n)
        rows[:, 1] = np.tile(np.arange(n), 2)
        rows[:, 2] = np.concatenate(
            (result.estimates_lbf, np.full(n, scenario.vertical_load))
        )
        write_plot_data(args.plot_data, rows)
    return 0


def _cmd_evaluate(args) -> int:
    loads, slips, valid = read_estimates(args.estimates)
    truth, scenario, _ = read_sidecar(args.truth)
    true_load = float(scenario.vertical_load)
    true_slip = float(scenario.slip_angle)
    n_truth = truth.n_turns
    if len(loads) != n_truth:
        raise SchemaError(
            f"estimate rows ({len(loads)}) do not match truth turns ({n_truth})"
        )
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
    ranges, points = read_ranges(args.ranges)
    report = sensitivity_sweep(ranges, points=points)
    write_sensitivity(args.out, report)
    if args.plot_data is not None:
        # one-at-a-time sweep curves in long format (figure analogues)
        rows = []
        for factor, curve in report.curves.items():
            for x, length, peak in zip(
                curve["value"],
                curve["contact_patch_length"],
                curve["peak_radial_displacement"],
            ):
                rows.append((f"patch_length_vs_{factor}", x, length))
                rows.append((f"peak_radial_vs_{factor}", x, peak))
        write_plot_data(args.plot_data, rows)
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
        return _COMMANDS[args.command](args)
    except TireSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
