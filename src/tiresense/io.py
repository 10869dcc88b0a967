"""File formats: scenario JSON, trace CSV with JSON sidecar, model files,
estimate tables, reports and plot data.

Every file this package writes names its schema version; readers reject
unknown versions rather than guessing.  All numeric formatting is fixed so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .estimation import LoadSurfaceModel, PatchLoadModel, SlipModel
from .scenario import SensorSpec, TireScenario
from .simulate import AccelTrace, GroundTruth

TRACE_SCHEMA = "tiresense.trace.v1"
SIDECAR_SCHEMA = "tiresense.sidecar.v1"
LOAD_MODEL_SCHEMA = "tiresense.load-model.v1"
SLIP_MODEL_SCHEMA = "tiresense.slip-model.v1"
ESTIMATES_SCHEMA = "tiresense.estimates.v1"
REPORT_SCHEMA = "tiresense.report.v1"
SENSITIVITY_SCHEMA = "tiresense.sensitivity.v1"
PLOT_SCHEMA = "tiresense.plot.v1"
FEATURES_SCHEMA = "tiresense.features.v1"
_TRACE_HEADER = "t,a_tangential,a_lateral,a_radial"
_ESTIMATES_HEADER = "turn,load_lbf,slip_deg,valid"

# Rows formatted per write of a CSV table: enough to make the per-block cost
# vanish, few enough that a block's text stays a few hundred kB.
_BLOCK_ROWS = 8192

_SCENARIO_FIELDS = (
    "unloaded_radius",
    "tread_depth",
    "vertical_load",
    "inflation_pressure",
    "slip_angle",
    "vehicle_speed",
    "stiffness_c0",
    "stiffness_c1",
    "wear_radius_gain",
    "release_angle",
)
_SENSOR_FIELDS = ("sample_rate", "noise_std", "dc_bias", "seed")
_REQUIRED_SCENARIO_FIELDS = (
    "unloaded_radius",
    "tread_depth",
    "vertical_load",
    "inflation_pressure",
    "slip_angle",
    "vehicle_speed",
)


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _read_object(path: Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return payload


def read_json(path: Path, expected_schema: str) -> dict:
    payload = _read_object(path)
    version = payload.get("schema_version")
    if version != expected_schema:
        raise SchemaError(
            f"{path}: schema_version {version!r} is not {expected_schema!r}"
        )
    return payload


def _write_table(
    path: Path, schema: str, header: str, row_format: str, table: np.ndarray
) -> None:
    """Write the schema and header lines, then one ``row_format`` line per
    row of the 2-D array ``table``.

    Each block of rows is formatted with a single ``%``; its ``%.12g`` is the
    conversion ``format(x, ".12g")`` makes, so the bytes do not depend on the
    block size.
    """
    with Path(path).open("w") as handle:
        handle.write(f"# schema={schema}\n{header}\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            handle.write(row_format * len(block) % tuple(block.ravel().tolist()))


def _read_table(path: Path, schema: str, header: str) -> np.ndarray:
    """Rows of a table ``_write_table`` wrote, one float column per header field.

    The two header lines are checked on their own handle; the body is then
    parsed from the path, which lets numpy's reader take the file in large
    chunks instead of one line at a time from an open handle.
    """
    columns = header.count(",") + 1
    try:
        with Path(path).open() as handle:
            first, found = handle.readline().strip(), handle.readline().strip()
        if first != f"# schema={schema}":
            raise SchemaError(f"{path}: first line does not name schema {schema}")
        if found != header:
            raise SchemaError(f"{path}: unexpected CSV header {found!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a table may have no row
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=2)
    except ValueError as exc:  # a malformed row, or a UnicodeDecodeError
        raise SchemaError(f"{path}: malformed table ({exc})") from exc
    if data.size == 0:
        return np.empty((0, columns))
    if data.shape[1] != columns:
        raise SchemaError(f"{path}: expected {columns} columns")
    return data


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# scenario files

def read_scenario(path: Path) -> tuple[TireScenario, SensorSpec]:
    """Read a flat scenario JSON carrying tire and sensor fields."""
    payload = _read_object(path)
    known = set(_SCENARIO_FIELDS) | set(_SENSOR_FIELDS)
    unknown = set(payload) - known
    if unknown:
        raise SchemaError(f"{path}: unknown fields {sorted(unknown)}")
    missing = [f for f in _REQUIRED_SCENARIO_FIELDS if f not in payload]
    if missing:
        raise SchemaError(f"{path}: missing required fields {missing}")
    scenario_kwargs = {k: payload[k] for k in _SCENARIO_FIELDS if k in payload}
    sensor_kwargs = {k: payload[k] for k in _SENSOR_FIELDS if k in payload}
    try:
        if "dc_bias" in sensor_kwargs:
            sensor_kwargs["dc_bias"] = tuple(sensor_kwargs["dc_bias"])
        return TireScenario(**scenario_kwargs), SensorSpec(**sensor_kwargs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed scenario field ({exc})") from exc


def scenario_to_dict(scenario: TireScenario, sensor: SensorSpec) -> dict:
    payload = {**asdict(scenario), **asdict(sensor)}
    payload["dc_bias"] = list(sensor.dc_bias)
    return payload


def write_scenario(path: Path, scenario: TireScenario, sensor: SensorSpec) -> None:
    _write_json(Path(path), scenario_to_dict(scenario, sensor))


# ---------------------------------------------------------------------------
# trace CSV + sidecar

def write_trace(
    path: Path,
    trace: AccelTrace,
    truth: GroundTruth,
    scenario: TireScenario,
    sensor: SensorSpec,
) -> Path:
    """Write trace CSV plus its JSON sidecar; returns the sidecar path."""
    table = np.column_stack((trace.times, trace.samples))
    _write_table(path, TRACE_SCHEMA, _TRACE_HEADER, "%.12g,%.12g,%.12g,%.12g\n", table)

    sidecar = sidecar_path(path)
    payload = {
        "schema_version": SIDECAR_SCHEMA,
        "scenario": asdict(scenario),
        "sensor": {
            "sample_rate": sensor.sample_rate,
            "noise_std": sensor.noise_std,
            "dc_bias": list(sensor.dc_bias),
            "seed": sensor.seed,
        },
        "ground_truth": {k: list(map(float, v)) for k, v in asdict(truth).items()},
        "n_turns": truth.n_turns,
    }
    _write_json(sidecar, payload)
    return sidecar


def sidecar_path(trace_path: Path) -> Path:
    return Path(trace_path).with_suffix(".json")


def read_sidecar(path: Path) -> tuple[GroundTruth, TireScenario, SensorSpec]:
    """Read and validate a trace's JSON sidecar."""
    payload = read_json(path, SIDECAR_SCHEMA)
    try:
        scenario = TireScenario(**payload["scenario"])
        sensor_raw = dict(payload["sensor"])
        sensor_raw["dc_bias"] = tuple(sensor_raw["dc_bias"])
        sensor = SensorSpec(**sensor_raw)
        truth = GroundTruth(
            **{k: np.asarray(v, dtype=float) for k, v in payload["ground_truth"].items()}
        )
        if payload["n_turns"] != truth.n_turns:
            raise SchemaError(f"{path}: n_turns does not match the ground truth")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed sidecar ({exc})") from exc
    return truth, scenario, sensor


def read_trace(path: Path) -> tuple[AccelTrace, GroundTruth, TireScenario, SensorSpec]:
    """Read a trace CSV and its sidecar back into memory."""
    data = _read_table(path, TRACE_SCHEMA, _TRACE_HEADER)
    truth, scenario, sensor = read_sidecar(sidecar_path(path))
    n = data.shape[0]
    # The t column must agree with the sidecar's rate to within half a sample.
    if not np.all(np.abs(data[:, 0] * sensor.sample_rate - np.arange(n)) <= 0.5):
        raise SchemaError(
            f"{path}: t column does not match the sidecar sample_rate "
            f"{sensor.sample_rate:g} Hz"
        )
    trace = AccelTrace(
        sample_rate=sensor.sample_rate,
        samples=data[:, 1:4],
        duration=n / sensor.sample_rate,
    )
    return trace, truth, scenario, sensor


# ---------------------------------------------------------------------------
# model files

def write_load_models(
    path: Path, surface: LoadSurfaceModel, patch: PatchLoadModel
) -> None:
    payload = {
        "schema_version": LOAD_MODEL_SCHEMA,
        "surface": {
            "p00": surface.p00,
            "p10": surface.p10,
            "p01": surface.p01,
            "p11": surface.p11,
            "p02": surface.p02,
            "fit_residual_rms": surface.fit_residual_rms,
            "load_range": list(surface.load_range),
            "pressure_range": list(surface.pressure_range),
        },
        "patch": {
            "q0": patch.q0,
            "q1": patch.q1,
            "reference_pressure": patch.reference_pressure,
            "reference_tread": patch.reference_tread,
            "patch_length_range": list(patch.patch_length_range),
            "fit_residual_rms": patch.fit_residual_rms,
        },
    }
    _write_json(Path(path), payload)


def read_load_models(path: Path) -> tuple[LoadSurfaceModel, PatchLoadModel]:
    payload = read_json(Path(path), LOAD_MODEL_SCHEMA)
    try:
        s = payload["surface"]
        surface = LoadSurfaceModel(
            p00=s["p00"],
            p10=s["p10"],
            p01=s["p01"],
            p11=s["p11"],
            p02=s["p02"],
            fit_residual_rms=s["fit_residual_rms"],
            load_range=tuple(s["load_range"]),
            pressure_range=tuple(s["pressure_range"]),
        )
        p = payload["patch"]
        patch = PatchLoadModel(
            q0=p["q0"],
            q1=p["q1"],
            reference_pressure=p["reference_pressure"],
            reference_tread=p["reference_tread"],
            patch_length_range=tuple(p["patch_length_range"]),
            fit_residual_rms=p["fit_residual_rms"],
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed load model ({exc})") from exc
    return surface, patch


def write_slip_model(path: Path, model: SlipModel) -> None:
    payload = {
        "schema_version": SLIP_MODEL_SCHEMA,
        "beta0": model.beta0,
        "beta1": model.beta1,
        "beta2": model.beta2,
        "fit_residual_rms": model.fit_residual_rms,
        "slip_range": list(model.slip_range),
    }
    _write_json(Path(path), payload)


def read_slip_model(path: Path) -> SlipModel:
    payload = read_json(Path(path), SLIP_MODEL_SCHEMA)
    try:
        return SlipModel(
            beta0=payload["beta0"],
            beta1=payload["beta1"],
            beta2=payload["beta2"],
            fit_residual_rms=payload["fit_residual_rms"],
            slip_range=tuple(payload["slip_range"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed slip model ({exc})") from exc


# ---------------------------------------------------------------------------
# estimates, features, plot data

def write_estimates(
    path: Path,
    loads_lbf: np.ndarray,
    slips_deg: np.ndarray,
    valid: np.ndarray,
) -> None:
    table = np.column_stack((np.arange(len(loads_lbf)), loads_lbf, slips_deg, valid))
    _write_table(path, ESTIMATES_SCHEMA, _ESTIMATES_HEADER, "%d,%.12g,%.12g,%d\n", table)


def read_estimates(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = _read_table(path, ESTIMATES_SCHEMA, _ESTIMATES_HEADER)
    loads, slips, valid = data[:, 1], data[:, 2], data[:, 3] == 1.0
    if not np.isfinite(loads).all():
        raise SchemaError(f"{path}: load_lbf must be finite")
    if not (valid | (data[:, 3] == 0.0)).all():
        raise SchemaError(f"{path}: valid must be 0 or 1")
    return loads, slips, valid


def write_feature_table(path: Path, rows) -> None:
    table = np.array([(r.turn_index, r.patch_length, r.peak_radial_displacement,
                       r.peak_lateral_displacement, r.lateral_slope) for r in rows])
    _write_table(path, FEATURES_SCHEMA,
                 "turn,patch_length_m,peak_radial_mm,peak_lateral_mm,lateral_slope",
                 "%d,%.12g,%.12g,%.12g,%.12g\n", table)


def write_plot_data(path: Path, rows) -> None:
    """Long-format plotting CSV; rows are (series, x, y) triples."""
    _write_table(path, PLOT_SCHEMA, "series,x,y", "%s,%.12g,%.12g\n",
                 np.array(rows, dtype=object))


def write_report(path: Path, report: dict) -> None:
    payload = {"schema_version": REPORT_SCHEMA, **report}
    _write_json(Path(path), payload)


def read_ranges(path: Path) -> tuple[dict, int]:
    """Read a sweep ranges file: factor -> [lo, hi] plus optional points."""
    payload = _read_object(path)
    points = payload.pop("points", 7)
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise SchemaError(f"{path}: points must be an integer of at least 2")
    ranges = {}
    for factor, bounds in payload.items():
        try:
            lo, hi = map(float, bounds)  # ValueError unless exactly two values
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: {factor} must map to [lo, hi] ({exc})") from exc
        if not (isinstance(bounds, list) and math.isfinite(lo) and math.isfinite(hi)):
            raise SchemaError(f"{path}: {factor} must map to two finite numbers [lo, hi]")
        ranges[factor] = (lo, hi)
    return ranges, points


def write_sensitivity(path: Path, report) -> None:
    payload = {
        "schema_version": SENSITIVITY_SCHEMA,
        "ranges": {k: list(v) for k, v in report.ranges.items()},
        "center": report.center,
        "shares": report.shares,
        "spans": report.spans,
    }
    _write_json(Path(path), payload)
