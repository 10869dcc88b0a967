"""File formats: scenario JSON, trace ``.npy`` array with JSON sidecar,
model files, estimate tables, reports and plot data.

Every file this package writes names its schema version, but the trace, whose
version is its ``.npy`` header layout; readers reject unknown versions rather
than guessing.  All numeric formatting is fixed so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tokenize
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import GeometryError, ScenarioError, SchemaError
from .estimation import SWEEP_POINTS, LoadSurfaceModel, SlipModel
from .features import FEATURE_FIELDS
from .geometry import derive_geometry
from .scenario import SensorSpec, TireScenario
from .simulate import MIN_SAMPLES_PER_TURN, AccelTrace, GroundTruth, ground_truth

TRACE_SCHEMA = "tiresense.trace.v3"
SIDECAR_SCHEMA = "tiresense.sidecar.v3"
LOAD_MODEL_SCHEMA = "tiresense.load-model.v3"
SLIP_MODEL_SCHEMA = "tiresense.slip-model.v1"
ESTIMATES_SCHEMA = "tiresense.estimates.v1"
REPORT_SCHEMA = "tiresense.report.v1"
SENSITIVITY_SCHEMA = "tiresense.sensitivity.v1"
PLOT_SCHEMA = "tiresense.plot.v1"
FEATURES_SCHEMA = "tiresense.features.v1"
_ESTIMATES_HEADER = "turn,load_lbf,slip_deg,valid"

# Most points a sweep ranges file may ask for per factor: far more than a
# figure's curve needs, and the sweep stays well under a second.
MAX_SWEEP_POINTS = 1000

# Most .npy header bytes read_trace lets numpy parse.  np.save (numpy 2.4)
# writes 118 for any (rows, 3) <f8 array; a longer header-length field is a damaged file,
# whose "header" would be samples.
MAX_TRACE_HEADER_BYTES = 256


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


@functools.cache
def _field_types(cls) -> dict:
    """Each field's annotation, resolved once per dataclass."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _decode(hint, value):
    """``value`` as the field annotation ``hint`` allows it, or ValueError."""
    if hint is int and type(value) is int or (  # true and false are not numbers
        hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max
    ):
        return value
    args = get_args(hint)
    if get_origin(hint) is tuple and isinstance(value, list) and len(value) == len(args):
        items = tuple(map(_decode, args, value))
        if len(items) != 2 or items[0] <= items[1]:
            return items
    raise ValueError(value)


def _describe(hint) -> str:
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if len(args) == 2:
            return "a [lo, hi] range with lo <= hi"
        return f"a list of {len(args)} finite numbers"
    return "an integer" if hint is int else "a finite number"


def _field(path: Path, name: str, hint, value):
    if is_dataclass(hint):
        return _record(path, hint, value)
    try:
        return _decode(hint, value)
    except ValueError:
        raise SchemaError(
            f"{path}: {name} must be {_describe(hint)}, got {json.dumps(value)}"
        ) from None


def _record(path: Path, cls, payload):
    """The dataclass ``cls`` built from a JSON object holding exactly its
    fields, each checked against the field's annotation."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: {cls.__name__} fields must be a JSON object")
    types = _field_types(cls)
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise SchemaError(f"{path}: unknown fields {unknown}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in payload]
    if missing:
        raise SchemaError(f"{path}: missing required fields {missing}")
    # outside the try: a nested record's error already names the file
    values = {k: _field(path, k, types[k], v) for k, v in payload.items()}
    try:
        return cls(**values)
    except ScenarioError as exc:  # a value TireScenario or SensorSpec refuses
        raise ScenarioError(f"{path}: {exc}") from None


def _read_record(path: Path, schema: str, cls, remedy: str = ""):
    """The dataclass ``cls`` from a JSON file that names ``schema``; a file
    of another version is an error that ends with ``remedy``."""
    payload = _read_object(path)
    version = payload.pop("schema_version", None)
    if version != schema:
        raise SchemaError(f"{path}: schema_version {version!r} is not {schema!r}{remedy}")
    return _record(path, cls, payload)


def _write_table(
    path: Path, schema: str, header: str, row_format: str, table: np.ndarray
) -> None:
    """Write the schema and header lines, then one ``row_format`` line per row
    of the 2-D array ``table``; ``%.12g`` is the conversion ``format(x, ".12g")`` makes."""
    with Path(path).open("w") as handle:
        handle.write(f"# schema={schema}\n{header}\n")
        handle.write(row_format * len(table) % tuple(table.ravel().tolist()))


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# scenario files

def read_scenario(path: Path) -> tuple[TireScenario, SensorSpec]:
    """Read a flat scenario JSON carrying tire and sensor fields."""
    payload = _read_object(path)
    names = {f.name for f in fields(SensorSpec)}
    sensor = {k: v for k, v in payload.items() if k in names}
    tire = {k: v for k, v in payload.items() if k not in names}
    return _record(path, TireScenario, tire), _record(path, SensorSpec, sensor)


def scenario_to_dict(scenario: TireScenario, sensor: SensorSpec) -> dict:
    return {**asdict(scenario), **asdict(sensor)}


def write_scenario(path: Path, scenario: TireScenario, sensor: SensorSpec) -> None:
    _write_json(Path(path), scenario_to_dict(scenario, sensor))


# ---------------------------------------------------------------------------
# trace .npy + sidecar

@dataclass(frozen=True)
class _Sidecar:
    """A trace's JSON sidecar; the truth follows from it by ``ground_truth``."""

    scenario: TireScenario
    sensor: SensorSpec
    n_turns: int


def write_trace(
    path: Path,
    trace: AccelTrace,
    truth: GroundTruth,
    scenario: TireScenario,
    sensor: SensorSpec,
) -> Path:
    """Write the samples to exactly ``path`` and the JSON sidecar; returns the sidecar path."""
    with Path(path).open("wb") as handle:
        np.save(handle, np.ascontiguousarray(trace.samples, dtype="<f8"), allow_pickle=False)
    sidecar = sidecar_path(path)
    _write_json(sidecar, {"schema_version": SIDECAR_SCHEMA,
                          **asdict(_Sidecar(scenario, sensor, truth.n_turns))})
    return sidecar


def sidecar_path(trace_path: Path) -> Path:
    return Path(trace_path).with_suffix(".json")


def read_sidecar(path: Path) -> tuple[TireScenario, SensorSpec, int]:
    """Read and validate a trace's JSON sidecar: scenario, sensor, turn count."""
    # A v2 scenario may hold other simulator constants than today's.
    sidecar = _read_record(path, SIDECAR_SCHEMA, _Sidecar, "; regenerate it with simulate")
    try:
        derive_geometry(sidecar.scenario)  # a scenario no tire can have is no truth
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from None
    return sidecar.scenario, sidecar.sensor, sidecar.n_turns


def read_trace(path: Path) -> tuple[AccelTrace, GroundTruth, TireScenario, SensorSpec]:
    """Read a trace and its sidecar back into memory.  Sample ``i`` was
    taken at ``i / sample_rate``.  The ``.npy`` header, the file size and the
    sidecar's turns must agree on the rows before the samples are read."""
    with Path(path).open("rb") as handle:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy may warn on a Python 2 header
                if np.lib.format.read_magic(handle) != (1, 0):  # what np.save writes
                    raise ValueError("not .npy format 1.0")
                length = handle.read(2)  # the header-length field
                if (header_bytes := int.from_bytes(length, "little")) > MAX_TRACE_HEADER_BYTES:
                    raise ValueError(f"header of {header_bytes} bytes, "
                                     f"more than {MAX_TRACE_HEADER_BYTES}")
                handle.seek(-len(length), os.SEEK_CUR)
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
        except (ValueError, tokenize.TokenError) as exc:
            handle.seek(0)
            if handle.read(25) == b"# schema=tiresense.trace.":
                raise SchemaError(f"{path}: a CSV trace from before {TRACE_SCHEMA}; "
                                  "regenerate it with simulate") from None
            reason = str(exc).partition("\n")[0]
            raise SchemaError(f"{path}: not a {TRACE_SCHEMA} .npy array ({reason})") from None
        if dtype != np.dtype("<f8") or len(shape) != 2 or shape[1] != 3 or fortran_order:
            raise SchemaError(f"{path}: a {'Fortran' if fortran_order else 'C'}-order "
                              f"{dtype.str} array of shape {shape}, not a C-order <f8 "
                              "array of shape (rows, 3)")
        rows, left = shape[0], os.fstat(handle.fileno()).st_size - handle.tell()
        if rows * 24 != left:
            raise SchemaError(f"{path}: the header's {rows} rows take {rows * 24} bytes, "
                              f"but {left} follow it")
        scenario, sensor, n_turns = read_sidecar(sidecar_path(path))
        # Bounds the truth arrays by the trace before ground_truth allocates them.
        if not 1 <= n_turns <= rows / MIN_SAMPLES_PER_TURN:
            raise SchemaError(f"{path}: n_turns {n_turns} does not fit {rows} rows")
        truth = ground_truth(scenario, n_turns)
        if rows != (expected := truth.n_samples(sensor.sample_rate)):
            raise SchemaError(f"{path}: {rows} rows, but the sidecar's turns take {expected}")
        samples = np.fromfile(handle, dtype="<f8", count=3 * rows).reshape(rows, 3)
    try:
        trace = AccelTrace(sensor.sample_rate, samples)
    except ScenarioError as exc:  # a sample out of AccelTrace's bound
        raise SchemaError(f"{path}: {exc}") from None
    return trace, truth, scenario, sensor


# ---------------------------------------------------------------------------
# model files

def write_load_model(path: Path, model: LoadSurfaceModel) -> None:
    _write_json(Path(path), {"schema_version": LOAD_MODEL_SCHEMA, **asdict(model)})


def read_load_model(path: Path) -> LoadSurfaceModel:
    # v2 has v3's fields, but its surface maps another dip (each turn's own
    # maximum) to load, so applied to today's dips it biases every load.
    return _read_record(path, LOAD_MODEL_SCHEMA, LoadSurfaceModel,
                        "; refit with calibrate-load")


def write_slip_model(path: Path, model: SlipModel) -> None:
    _write_json(Path(path), {"schema_version": SLIP_MODEL_SCHEMA, **asdict(model)})


def read_slip_model(path: Path) -> SlipModel:
    return _read_record(path, SLIP_MODEL_SCHEMA, SlipModel)


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
    """The table ``write_estimates`` wrote.  The two header lines are checked
    on their own handle; the body is then parsed from the path, which lets
    numpy's reader take the file in large chunks."""
    try:
        with Path(path).open() as handle:
            found = [handle.readline().strip(), handle.readline().strip()]
        if found != [f"# schema={ESTIMATES_SCHEMA}", _ESTIMATES_HEADER]:
            raise SchemaError(f"{path}: header lines {found} are not {ESTIMATES_SCHEMA}'s")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a table may have no row
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=2)
    except ValueError as exc:  # a malformed row, or a UnicodeDecodeError
        raise SchemaError(f"{path}: malformed table ({exc})") from exc
    if data.size and data.shape[1] != 4:
        raise SchemaError(f"{path}: expected 4 columns")
    data = data.reshape(-1, 4)  # a table with no row reads as shape (0, 1)
    loads, slips, valid = data[:, 1], data[:, 2], data[:, 3] == 1.0
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise SchemaError(f"{path}: turn must count 0, 1, 2, ... by row")
    if not np.isfinite(loads).all():
        raise SchemaError(f"{path}: load_lbf must be finite")
    if np.isinf(slips).any():
        raise SchemaError(f"{path}: slip_deg must be finite or nan")
    if not (valid | (data[:, 3] == 0.0)).all():
        raise SchemaError(f"{path}: valid must be 0 or 1")
    return loads, slips, valid


def write_feature_table(path: Path, table: np.recarray) -> None:
    """The feature table ``extract_features`` returns, one line per turn."""
    _write_table(path, FEATURES_SCHEMA,
                 "turn,patch_length_m,peak_radial_mm,peak_lateral_mm,lateral_slope",
                 "%d,%.12g,%.12g,%.12g,%.12g\n",
                 np.column_stack([table[name] for name in FEATURE_FIELDS]))


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
    points = _field(path, "points", int, payload.pop("points", SWEEP_POINTS))
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise SchemaError(f"{path}: points must lie in [2, {MAX_SWEEP_POINTS}]")
    ranges = {
        factor: tuple(map(float, _field(path, factor, tuple[float, float], bounds)))
        for factor, bounds in payload.items()
    }
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
