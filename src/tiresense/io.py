"""File formats: scenario JSON, trace ``.npy`` array with JSON sidecar,
model files, estimate tables, reports and plot data.

Every file this package writes names its schema version but the trace,
whose version is its ``.npy`` header layout; the scenario file, which it
only reads, has its fields checked by name.  Readers reject unknown
versions rather than guessing.  All numeric formatting is fixed so
identical inputs produce byte-identical files.
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

from .errors import InvalidArgumentError, ScenarioError, SchemaError, naming, quote_count
from .estimation import LoadSurfaceModel, SensitivityReport, SlipModel
from .features import FEATURE_FIELDS
from .scenario import SensorSpec, TireScenario, derive_geometry
from .simulate import MIN_SAMPLES_PER_TURN, AccelTrace, GroundTruth, ground_truth, trace_rows

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

# Most .npy header bytes numpy may parse for read_trace (its max_header_size).
# np.save (numpy 2.4) writes 118 for any (rows, 3) <f8 array; a longer
# header-length field is a damaged file, whose "header" would be samples.
MAX_TRACE_HEADER_BYTES = 256


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _read_object(path: Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise SchemaError(f"not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError("expected a JSON object")
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


def _field(name: str, hint, value):
    if is_dataclass(hint):
        return _record(hint, value)
    try:
        return _decode(hint, value)
    except ValueError:
        raise SchemaError(f"{name} must be {_describe(hint)}, got {json.dumps(value)}") from None


def _record(cls, payload):
    """The dataclass ``cls`` built from a JSON object holding exactly its
    fields, each checked against the field's annotation."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{cls.__name__} fields must be a JSON object")
    types = _field_types(cls)
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise SchemaError(f"unknown fields {unknown}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in payload]
    if missing:
        raise SchemaError(f"missing required fields {missing}")
    return cls(**{k: _field(k, types[k], v) for k, v in payload.items()})


def _read_record(path: Path, schema: str, cls, remedy: str = ""):
    """The dataclass ``cls`` from a JSON file that names ``schema``; a file
    of another version is an error that ends with ``remedy``."""
    with naming(path):
        payload = _read_object(path)
        version = payload.pop("schema_version", None)
        if version != schema:
            raise SchemaError(f"schema_version {version!r} is not {schema!r}{remedy}")
        return _record(cls, payload)


def _write_table(path: Path, schema: str, header: str, *blocks) -> None:
    """Write the schema and header lines, then for each ``(row_format, table)``
    of ``blocks`` one ``row_format`` line per row of the 2-D array ``table``;
    ``%.12g`` is the conversion ``format(x, ".12g")`` makes."""
    with Path(path).open("w") as handle:
        handle.write(f"# schema={schema}\n{header}\n")
        for row_format, table in blocks:
            handle.write(row_format * len(table) % tuple(table.ravel().tolist()))


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# scenario files

def read_scenario(path: Path) -> tuple[TireScenario, SensorSpec]:
    """Read a flat scenario JSON carrying tire and sensor fields."""
    with naming(path):
        payload = _read_object(path)
        names = {f.name for f in fields(SensorSpec)}
        sensor = {k: v for k, v in payload.items() if k in names}
        tire = {k: v for k, v in payload.items() if k not in names}
        return _record(TireScenario, tire), _record(SensorSpec, sensor)


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
    """Write the samples to exactly ``path`` and the JSON sidecar; returns the
    sidecar path.  A trace whose rate or rows ``read_trace`` would refuse for
    this sensor and these turns raises InvalidArgumentError and writes nothing."""
    expected = trace_rows(scenario, sensor.sample_rate, truth.n_turns)
    if (trace.sample_rate, len(trace)) != (sensor.sample_rate, expected):
        raise InvalidArgumentError(
            f"{len(trace)} rows at {trace.sample_rate:g} Hz, but {truth.n_turns} turns "
            f"take {quote_count(expected)} rows at the sensor's {sensor.sample_rate:g} Hz")
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
    with naming(path):
        derive_geometry(sidecar.scenario)  # a scenario no tire can have is no truth
    return sidecar.scenario, sidecar.sensor, sidecar.n_turns


def read_trace(path: Path) -> tuple[AccelTrace, GroundTruth, TireScenario, SensorSpec]:
    """Read a trace and its sidecar back into memory.  Sample ``i`` was
    taken at ``i / sample_rate``.  The ``.npy`` header, the file size and the
    sidecar's turns must agree on the rows before the samples are read."""
    with naming(path), Path(path).open("rb") as handle:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy may warn on a Python 2 header
                if np.lib.format.read_magic(handle) != (1, 0):  # what np.save writes
                    raise ValueError("not .npy format 1.0")
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(
                    handle, max_header_size=MAX_TRACE_HEADER_BYTES)
        except (ValueError, tokenize.TokenError) as exc:
            handle.seek(0)
            if handle.read(25) == b"# schema=tiresense.trace.":
                raise SchemaError(f"a CSV trace from before {TRACE_SCHEMA}; "
                                  "regenerate it with simulate") from None
            reason = str(exc).partition("\n")[0]
            raise SchemaError(f"not a {TRACE_SCHEMA} .npy array ({reason})") from None
        if dtype != np.dtype("<f8") or len(shape) != 2 or shape[1] != 3 or fortran_order:
            raise SchemaError(f"a {'Fortran' if fortran_order else 'C'}-order "
                              f"{dtype.str} array of shape {shape}, not a C-order <f8 "
                              "array of shape (rows, 3)")
        rows, left = shape[0], os.fstat(handle.fileno()).st_size - handle.tell()
        if rows * 24 != left:
            raise SchemaError(f"the header's {quote_count(rows)} rows take "
                              f"{quote_count(rows * 24)} bytes, but {left} follow it")
        scenario, sensor, n_turns = read_sidecar(sidecar_path(path))
        # The trace bounds the truth arrays, and holds the rows of the sidecar's
        # turns, before ground_truth derives them: a period may overflow.
        if not 1 <= n_turns <= rows / MIN_SAMPLES_PER_TURN:
            raise SchemaError(f"n_turns {quote_count(n_turns)} does not fit {rows} rows")
        if rows != (expected := trace_rows(scenario, sensor.sample_rate, n_turns)):
            raise SchemaError(f"{rows} rows, but the sidecar's turns take {quote_count(expected)}")
        truth = ground_truth(scenario, n_turns)
        samples = np.fromfile(handle, dtype="<f8", count=3 * rows).reshape(rows, 3)
        try:
            trace = AccelTrace(sensor.sample_rate, samples)
        except ScenarioError as exc:  # a sample out of AccelTrace's bound
            raise SchemaError(str(exc)) from None
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
    _write_table(path, ESTIMATES_SCHEMA, _ESTIMATES_HEADER, ("%d,%.12g,%.12g,%d\n", table))


def read_estimates(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table ``write_estimates`` wrote, one row per turn.  Its two header
    lines are checked first, and the body is parsed from the same handle as
    plain text, whatever the file's name."""
    with naming(path):
        try:
            with Path(path).open() as handle:
                found = [handle.readline().strip(), handle.readline().strip()]
                if found != [f"# schema={ESTIMATES_SCHEMA}", _ESTIMATES_HEADER]:
                    raise SchemaError(f"header lines {found} are not {ESTIMATES_SCHEMA}'s")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a table may have no row
                    data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:  # a malformed row, or a UnicodeDecodeError
            raise SchemaError(f"malformed table ({exc})") from exc
        if data.size and data.shape[1] != 4:
            raise SchemaError("expected 4 columns")
        data = data.reshape(-1, 4)  # a table with no row reads as shape (0, 1)
        loads, slips, valid = data[:, 1], data[:, 2], data[:, 3] == 1.0
        if not np.array_equal(data[:, 0], np.arange(len(data))):
            raise SchemaError("turn must count 0, 1, 2, ... by row")
        if not np.isfinite(loads).all():
            raise SchemaError("load_lbf must be finite")
        if np.isinf(slips).any():
            raise SchemaError("slip_deg must be finite or nan")
        if not (valid | (data[:, 3] == 0.0)).all():
            raise SchemaError("valid must be 0 or 1")
    return loads, slips, valid


def write_feature_table(path: Path, table: np.recarray) -> None:
    """The feature table ``extract_features`` returns, one line per turn."""
    _write_table(path, FEATURES_SCHEMA,
                 "turn,patch_length_m,peak_radial_mm,peak_lateral_mm,lateral_slope",
                 ("%d,%.12g,%.12g,%.12g,%.12g\n", np.column_stack(
                     [np.arange(len(table)), *(table[name] for name in FEATURE_FIELDS)])))


def write_plot_data(path: Path, series: dict) -> None:
    """Long-format plotting CSV of ``series``, a mapping ``name -> (x, y)``:
    each series in turn, one ``name,x,y`` line per point."""
    _write_table(path, PLOT_SCHEMA, "series,x,y", *(
        (f"{name.replace('%', '%%')},%.12g,%.12g\n", np.column_stack((x, y)))
        for name, (x, y) in series.items()
    ))


def write_report(path: Path, report: dict) -> None:
    payload = {"schema_version": REPORT_SCHEMA, **report}
    _write_json(Path(path), payload)


def read_ranges(path: Path) -> dict:
    """Read a sweep ranges file: factor -> [lo, hi]; ``sensitivity_sweep`` checks the factors."""
    with naming(path):
        return {
            factor: tuple(map(float, _field(factor, tuple[float, float], bounds)))
            for factor, bounds in _read_object(path).items()
        }


def write_sensitivity(path: Path, report: SensitivityReport) -> None:
    """The report but its curves, which ``sweep --plot-data`` writes."""
    payload = asdict(report)
    del payload["curves"]
    _write_json(Path(path), {"schema_version": SENSITIVITY_SCHEMA, **payload})
