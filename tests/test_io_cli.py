import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tiresense
from tiresense import (
    InvalidArgumentError,
    ScenarioError,
    SchemaError,
    SensorSpec,
    TireSenseError,
    simulate,
)
from tiresense.cli import main
from tiresense.dsp import accel_to_displacement, double_integrate
from tiresense.errors import naming
from tiresense.estimation import (
    SWEEP_POINTS,
    LoadSurfaceModel,
    SlipModel,
    fit_load_surface,
    fit_slip_model,
)
from tiresense.features import FEATURE_FIELDS, extract_features
from tiresense.io import (
    MAX_TRACE_HEADER_BYTES,
    SIDECAR_SCHEMA,
    TRACE_SCHEMA,
    read_estimates,
    read_load_model,
    read_scenario,
    read_slip_model,
    read_trace,
    write_estimates,
    write_feature_table,
    write_load_model,
    write_plot_data,
    write_slip_model,
    write_trace,
)
from tiresense.scenario import derive_geometry
from tiresense.simulate import MAX_ABS_SAMPLE, AccelTrace, ground_truth

from conftest import scenario, scenario_payload, write_scenario

SENSOR = SensorSpec(noise_std=25.0, dc_bias=(5.0, 5.0, 5.0), seed=3)


def write_trace_files(path, scen, sensor, turns):
    trace, truth = simulate(scen, sensor, turns)
    write_trace(path, trace, truth, scen, sensor)
    return trace, truth


# ---------------------------------------------------------------------------
# file round trips

def test_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    scen = scenario(slip_angle=2.0)
    write_scenario(path, scen, SENSOR)
    back_scen, back_sensor = read_scenario(path)
    assert back_scen == scen
    assert back_sensor == SENSOR


def test_scenario_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "scenario.json"
    payload = scenario_payload(scenario(), SENSOR)
    payload["spin_rate"] = 3.0
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read_scenario(path)
    payload.pop("spin_rate")
    payload.pop("vertical_load")
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read_scenario(path)


def test_trace_round_trip(tmp_path):
    scen = scenario()
    path = tmp_path / "trace.csv"  # the format does not depend on the name
    trace, truth = write_trace_files(path, scen, SENSOR, 9)
    assert np.array_equal(np.load(path, allow_pickle=False), trace.samples)
    back_trace, back_truth, back_scen, back_sensor = read_trace(path)
    # the sidecar names its schema and holds the tire's six fields, no
    # simulator constant
    sidecar = json.loads(path.with_suffix(".json").read_text())
    assert sidecar["schema_version"] == SIDECAR_SCHEMA == "tiresense.sidecar.v3"
    assert sorted(sidecar) == ["n_turns", "scenario", "schema_version", "sensor"]
    assert sorted(sidecar["scenario"]) == ["inflation_pressure", "slip_angle", "tread_depth",
                                           "unloaded_radius", "vehicle_speed", "vertical_load"]
    assert back_scen == scen
    assert back_sensor == SENSOR
    assert back_truth.n_turns == truth.n_turns
    assert back_trace.samples.tobytes() == trace.samples.tobytes()
    for name, values in asdict(truth).items():
        assert getattr(back_truth, name).tobytes() == values.tobytes(), name


@pytest.mark.parametrize("change, line", [
    ({"sample_rate": 5000.0}, "^3770 rows at 10000 Hz, but 4 turns take 1885 rows "
     "at the sensor's 5000 Hz$"),
    ({"n_turns": 2}, "^3770 rows at 10000 Hz, but 2 turns take 1885 rows "
     "at the sensor's 10000 Hz$"),
], ids=["sample-rate", "n-turns"])
def test_write_trace_refuses_a_pair_read_trace_would_refuse(tmp_path, change, line):
    # The sensor's rate, or the truth's turns, disagree with the trace:
    # nothing is written, not even the sidecar.
    scen = scenario()
    trace, truth = simulate(scen, SENSOR, 4)
    sensor = replace(SENSOR, sample_rate=change.get("sample_rate", SENSOR.sample_rate))
    truth = ground_truth(scen, change.get("n_turns", truth.n_turns))
    with pytest.raises(InvalidArgumentError, match=line):
        write_trace(tmp_path / "trace.npy", trace, truth, scen, sensor)
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=25, deadline=None)
@given(
    radius=st.floats(0.25, 0.4),
    tread=st.floats(0.0, 8.0),
    load=st.floats(500.0, 1800.0),
    pressure=st.floats(25.0, 40.0),
    slip=st.floats(-6.0, 6.0),
    speed=st.floats(5.0, 40.0),
    turns=st.integers(1, 3),
)
# For these radius, tread and speed, 2*pi*r_eff/speed differs in the last bit
# from the simulator's 2*pi/(speed/r_eff).
@example(radius=0.3, tread=8.0, load=1000.0, pressure=32.0, slip=0.0, speed=25.0, turns=3)
@example(radius=0.31, tread=6.0, load=1000.0, pressure=32.0, slip=2.0, speed=25.0, turns=2)
@example(radius=0.3, tread=4.5, load=1000.0, pressure=32.0, slip=-3.0, speed=10.0, turns=1)
def test_read_trace_truth_is_simulate_truth(
    tmp_path_factory, radius, tread, load, pressure, slip, speed, turns
):
    # The sidecar stores no truth; read_trace derives it from the scenario,
    # and it must carry the same bits as the truth simulate returned.
    scen = scenario(unloaded_radius=radius, tread_depth=tread, vertical_load=load,
                    inflation_pressure=pressure, slip_angle=slip, vehicle_speed=speed)
    sensor = SensorSpec(sample_rate=2000.0, noise_std=0.0, dc_bias=(0.0, 0.0, 0.0))
    path = tmp_path_factory.mktemp("truth") / "trace.csv"
    _, truth = write_trace_files(path, scen, sensor, turns)
    back = read_trace(path)[1]
    for name, values in asdict(truth).items():
        assert np.array_equal(getattr(back, name), values), name


def test_trace_rejects_wrong_schema(tmp_path):
    # a CSV trace, as v1 and v2 wrote them, is named as one in a single line
    scen = scenario()
    path = tmp_path / "trace.csv"
    trace, _ = write_trace_files(path, scen, SENSOR, 1)
    for version in ("v1", "v2", "v999"):
        path.write_bytes(_csv_trace(version, trace.samples))
        with pytest.raises(SchemaError, match=f"CSV trace from before {TRACE_SCHEMA}; "
                           "regenerate it with simulate$"):
            read_trace(path)


def test_trace_refuses_oversized_header_before_parsing_it(tmp_path):
    # A \r inserted at byte 9 makes the header-length field 3446, so numpy
    # would parse 3.4 KB of samples as the header; its max_header_size
    # refuses them first.
    path = tmp_path / "trace.csv"
    write_trace_files(path, scenario(), SENSOR, 2)
    data = path.read_bytes()
    path.write_bytes(data[:9] + b"\r" + data[9:])
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: not a {TRACE_SCHEMA} .npy array (Header info length (3446) "
                "is large and may not be safe to load securely.)")):
            read_trace(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_trace_header_bound_holds_every_saved_trace():
    # np.save's header for a C-order (rows, 3) <f8 array, from no rows to
    # more than any file can hold, is within the bound read_trace keeps
    for rows in (0, 1, 10**18):
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (rows, 3)})
        if rows < 2:
            saved = io.BytesIO()
            np.save(saved, np.zeros((rows, 3)))
            assert saved.getvalue().startswith(header.getvalue())
        assert len(header.getvalue()) - 10 <= MAX_TRACE_HEADER_BYTES, rows


_SAMPLES = st.floats(-MAX_ABS_SAMPLE, MAX_ABS_SAMPLE)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(_SAMPLES, min_size=3 * 40, max_size=3 * 400))
@example(values=[-0.0, 5e-324, MAX_ABS_SAMPLE, -MAX_ABS_SAMPLE, 0.1, -5e-324] * 20)
def test_trace_samples_round_trip_bit_for_bit(tmp_path_factory, values):
    # write_trace stores the samples simulate made, and read_trace returns
    # them with every bit, -0.0 and subnormals included.
    samples = np.array(values[: len(values) // 3 * 3]).reshape(-1, 3)
    _, truth = simulate(scenario(), SENSOR, 1)
    # one turn at the rate that makes the turn exactly len(samples) long
    sensor = replace(SENSOR, sample_rate=float(len(samples) / truth.wheel_period_s[0]))
    path = tmp_path_factory.mktemp("bits") / "trace.npy"
    write_trace(path, AccelTrace(sensor.sample_rate, samples), truth, scenario(), sensor)
    back = read_trace(path)[0].samples
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.tobytes() == samples.tobytes()


def test_model_round_trips(tmp_path):
    surface = fit_load_surface(
        [
            (load, pressure, 0.001 * load + 0.2 * pressure - 0.004 * pressure**2)
            for load in (800.0, 1000.0, 1300.0)
            for pressure in (29.0, 32.0, 35.0)
        ]
    )
    path = tmp_path / "load_model.json"
    write_load_model(path, surface)
    assert read_load_model(path) == surface
    assert json.loads(path.read_text())["schema_version"] == "tiresense.load-model.v3"

    slip = fit_slip_model([(0.0, 0.0, 0.0), (10.0, 0.05, 3.0), (20.0, 0.09, 6.0)])
    slip_path = tmp_path / "slip_model.json"
    write_slip_model(slip_path, slip)
    assert read_slip_model(slip_path) == slip


def test_estimates_round_trip(tmp_path):
    path = tmp_path / "est.csv"
    loads = np.array([900.0, 1010.5, 1000.2])
    slips = np.array([0.1, np.nan, 0.3])
    valid = np.array([True, False, True])
    write_estimates(path, loads, slips, valid)
    loads_back, slips_back, valid_back = read_estimates(path)
    np.testing.assert_allclose(loads_back, loads, rtol=1e-9)
    assert np.isnan(slips_back[1])
    assert list(valid_back) == [True, False, True]


def test_plot_data_empty_has_header_only(tmp_path):
    path = tmp_path / "plot.csv"
    for series in ({}, {"empty": ([], [])}):
        write_plot_data(path, series)
        lines = path.read_text().splitlines()
        assert lines == ["# schema=tiresense.plot.v1", "series,x,y"]
    write_estimates(path, np.array([]), np.array([]), np.array([], dtype=bool))
    assert path.read_text().splitlines()[1:] == ["turn,load_lbf,slip_deg,valid"]
    loads, slips, valid = read_estimates(path)
    assert loads.shape == slips.shape == valid.shape == (0,) and valid.dtype == bool
    empty = np.rec.fromarrays([np.empty(0)] * 4, names=FEATURE_FIELDS)
    write_feature_table(path, empty)
    assert path.read_text().splitlines()[1:] == [
        "turn,patch_length_m,peak_radial_mm,peak_lateral_mm,lateral_slope"
    ]


def _g(value):
    return format(float(value), ".12g")


def _g_values(array):
    # What a reader should return for a column written with %.12g.
    return np.array([float(_g(v)) for v in array.ravel()]).reshape(array.shape)


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


def _reference(schema, header, lines):
    return "".join(f"{line}\n" for line in [f"# schema={schema}", header, *lines])


@pytest.mark.parametrize("n_rows", [8192, 16385])
def test_writers_match_row_by_row_reference(tmp_path, n_rows):
    # Each table writer against the same table formatted one row and one
    # value at a time with format(x, ".12g"); the estimates reader returns
    # exactly the floats of that text.
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 4)) * 10.0 ** rng.integers(-20, 20, (n_rows, 4))
    table[1, :] = [-0.0, 5e-324, 1e300, 123456789012345.0]
    with_nan = table.copy()
    with_nan[2, 1:3] = np.nan

    valid = with_nan[:, 3] > 0
    path = tmp_path / "est.csv"
    write_estimates(path, with_nan[:, 0], with_nan[:, 1], valid)
    expected = [
        f"{i},{_g(load)},{_g(slip)},{int(v)}"
        for i, (load, slip, v) in enumerate(zip(with_nan[:, 0], with_nan[:, 1], valid))
    ]
    assert path.read_bytes() == _reference(
        "tiresense.estimates.v1", "turn,load_lbf,slip_deg,valid", expected
    ).encode()
    loads, slips, valid_back = read_estimates(path)
    _assert_same_bits(loads, _g_values(with_nan[:, 0]))
    _assert_same_bits(slips, _g_values(with_nan[:, 1]))
    assert np.array_equal(valid_back, valid)

    rows = np.rec.fromarrays(with_nan.T, names=FEATURE_FIELDS)
    path = tmp_path / "features.csv"
    write_feature_table(path, rows)
    expected = [
        f"{i},{_g(r.patch_length)},{_g(r.peak_radial_displacement)},"
        f"{_g(r.peak_lateral_displacement)},{_g(r.lateral_slope)}"
        for i, r in enumerate(rows)
    ]
    assert path.read_bytes() == _reference(
        "tiresense.features.v1",
        "turn,patch_length_m,peak_radial_mm,peak_lateral_mm,lateral_slope",
        expected,
    ).encode()

    # Python ints, Python floats, numpy floats and numpy arrays; a name is
    # written as it is, a % in it too
    xs, ys = list(range(n_rows)), table[:, 0].tolist()
    xs[3:6], ys[3:6] = ([np.float64(v) for v in column] for column in table[3:6, :2].T)
    series = {"s0": (xs[0::3], ys[0::3]), "s%d": (xs[1::3], table[1::3, 0]),
              "s2": (np.arange(2, n_rows, 3), table[2::3, 0])}
    path = tmp_path / "plot.csv"
    write_plot_data(path, series)
    expected = [f"{name},{_g(x)},{_g(y)}"
                for name, (x_values, y_values) in series.items()
                for x, y in zip(x_values, y_values)]
    assert path.read_bytes() == _reference(
        "tiresense.plot.v1", "series,x,y", expected
    ).encode()


# ---------------------------------------------------------------------------
# readers on damaged files

@pytest.fixture(scope="module")
def clean_tables(tmp_path_factory):
    """A 2-turn trace (.npy and sidecar) and a 4-row estimates table; the
    damaged copies go to bad.csv, next to a copy of the sidecar."""
    root = tmp_path_factory.mktemp("damaged")
    write_trace_files(root / "trace.csv", scenario(), SENSOR, 2)
    (root / "bad.json").write_bytes((root / "trace.json").read_bytes())
    write_estimates(root / "est.csv", np.array([900.0, 950.5, -0.0, 1e300]),
                    np.array([0.5, np.nan, 1.0, 2.0]), np.array([True, False, True, True]))
    return root


# Bytes read_trace may allocate beyond twice the file: the sidecar, the
# truth and the header, not the samples.
_READ_OVERHEAD = 2**18

_INSERTS = [b"\xff", b"\xc3", b"\n", b"\r", b",", b"#", b"\x00", b"-", b".", b"9",
            b"nan", b"inf", b"1e999", b"1e300"]
_BYTES = st.sampled_from(_INSERTS) | st.binary(min_size=1, max_size=4)
_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**31)),
    st.tuples(st.just("insert"), st.integers(0, 2**31), _BYTES),
    st.tuples(st.just("overwrite"), st.integers(0, 2**31), _BYTES),
    st.tuples(st.sampled_from(["drop-comma", "double-comma"]), st.integers(0, 2**31)),
)


def _mutate(data: bytes, mutations) -> bytes:
    for kind, position, *inserted in mutations:
        if kind == "truncate":
            data = data[: position % (len(data) + 1)]
        elif kind in ("insert", "overwrite"):
            at = position % (len(data) + 1)
            end = at + len(inserted[0]) if kind == "overwrite" else at
            data = data[:at] + inserted[0] + data[end:]
        else:
            commas = [i for i, byte in enumerate(data) if byte == ord(",")]
            if commas:
                at = commas[position % len(commas)]
                data = data[:at] + (b",," if kind == "double-comma" else b"") + data[at + 1 :]
    return data


@settings(max_examples=40, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_readers_return_or_raise_tiresense_error(clean_tables, mutations):
    # A damaged trace or estimates table is either still a valid table or
    # a TireSenseError; no other exception leaves the reader.  Reading a
    # damaged trace allocates no more than the file holds, whatever its
    # header claims.
    root = clean_tables
    (root / "bad.csv").write_bytes(_mutate((root / "trace.csv").read_bytes(), mutations))
    tracemalloc.start()
    try:
        trace = read_trace(root / "bad.csv")[0]
    except TireSenseError:
        pass
    else:
        assert np.isfinite(trace.samples).all()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 2 * (root / "bad.csv").stat().st_size + _READ_OVERHEAD

    (root / "bad.csv").write_bytes(_mutate((root / "est.csv").read_bytes(), mutations))
    try:
        loads, slips, valid = read_estimates(root / "bad.csv")
    except TireSenseError:
        pass
    else:
        assert np.isfinite(loads).all() and valid.dtype == bool
        assert loads.shape == slips.shape == valid.shape


# ---------------------------------------------------------------------------
# CLI

def cli(*argv):
    return main([str(a) for a in argv])


def _seeded_scenario(root, seed):
    """The workspace's scenario file with the sensor seed ``seed``."""
    path = root / f"scenario_seed{seed}.json"
    write_scenario(path, scenario(), replace(SENSOR, seed=seed))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario file, calibration traces, and one evaluation trace."""
    root = tmp_path_factory.mktemp("cli")
    scen = scenario()
    write_scenario(root / "scenario.json", scen, SENSOR)

    calib = root / "calib"
    calib.mkdir()
    seed = 0
    for load in (800.0, 1150.0, 1500.0):
        for pressure in (29.0, 32.0, 35.0):
            seed += 1
            write_trace_files(
                calib / f"load_{int(load)}_{int(pressure)}.csv",
                scenario(vertical_load=load, inflation_pressure=pressure),
                SensorSpec(noise_std=25.0, seed=seed),
                6,
            )
    slip_dir = root / "slip"
    slip_dir.mkdir()
    for angle in (0.0, 3.0, 6.0):
        seed += 1
        write_trace_files(
            slip_dir / f"slip_{int(angle)}.csv",
            scenario(slip_angle=angle),
            SensorSpec(noise_std=25.0, seed=seed),
            6,
        )
    return root


def test_cli_simulate_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    scenario_file = _seeded_scenario(tmp_path, 7)
    assert cli("simulate", "--scenario", scenario_file, "--turns", 3, "--out", out_a) == 0
    assert cli("simulate", "--scenario", scenario_file, "--turns", 3, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_full_workflow(workspace, tmp_path):
    load_model = tmp_path / "load_model.json"
    slip_model = tmp_path / "slip_model.json"
    assert cli("calibrate-load", "--traces", workspace / "calib",
               "--out", load_model) == 0
    assert cli("calibrate-slip", "--traces", workspace / "slip",
               "--out", slip_model) == 0

    trace = tmp_path / "run.csv"
    assert cli("simulate", "--scenario", _seeded_scenario(tmp_path, 21),
               "--turns", 8, "--out", trace) == 0
    estimates = tmp_path / "est.csv"
    assert cli("estimate", "--trace", trace, "--load-model", load_model,
               "--slip-model", slip_model, "--out", estimates) == 0
    report_path = tmp_path / "report.json"
    assert cli("evaluate", "--estimates", estimates,
               "--truth", tmp_path / "run.json", "--report", report_path) == 0

    report = json.loads(report_path.read_text())
    assert report["schema_version"] == "tiresense.report.v1"
    assert report["load"]["true_lbf"] == 1000.0
    assert report["load"]["converged_relative_error"] < 0.05
    assert report["load"]["convergence_turn"] <= 8
    assert report["slip"]["error_max"] < 1.0
    assert report["skipped_turns"] == 0
    assert len(report["inputs"]["estimates_sha256"]) == 64


def test_cli_session_leaves_numpy_ma_unimported(workspace, tmp_path):
    # np.median and np.percentile of a float array import numpy.ma, about
    # 15 ms of a cold command; one fresh interpreter runs both calibrations,
    # an estimate with a slip model and an evaluation through cli.main
    trace = tmp_path / "run.npy"
    assert cli("simulate", "--scenario", _seeded_scenario(tmp_path, 21),
               "--turns", 8, "--out", trace) == 0
    lm, sm, est = tmp_path / "lm.json", tmp_path / "sm.json", tmp_path / "est.csv"
    commands = [
        ["calibrate-load", "--traces", workspace / "calib", "--out", lm],
        ["calibrate-slip", "--traces", workspace / "slip", "--out", sm],
        ["estimate", "--trace", trace, "--load-model", lm, "--slip-model", sm, "--out", est],
        ["evaluate", "--estimates", est, "--truth", tmp_path / "run.json",
         "--report", tmp_path / "report.json"],
    ]
    code = ("import sys\nfrom tiresense.cli import main\n"
            f"codes = [main(argv) for argv in {[list(map(str, c)) for c in commands]!r}]\n"
            "print(codes, 'numpy.ma' in sys.modules)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[0, 0, 0, 0] False"
    assert json.loads((tmp_path / "report.json").read_text())["skipped_turns"] == 0


def test_cli_estimate_deterministic(workspace, tmp_path):
    # Each input twice, into new files: the load model alone, then every
    # output estimate writes and evaluate's report.
    load_model, slip_model = tmp_path / "lm.json", tmp_path / "sm.json"
    assert cli("calibrate-load", "--traces", workspace / "calib",
               "--out", load_model) == 0
    assert cli("calibrate-slip", "--traces", workspace / "slip", "--out", slip_model) == 0
    trace = tmp_path / "t.csv"
    assert cli("simulate", "--scenario", _seeded_scenario(tmp_path, 3),
               "--turns", 5, "--out", trace) == 0

    def outputs(run, full):
        est = tmp_path / f"{run}_est.csv"
        args = ["estimate", "--trace", trace, "--load-model", load_model, "--out", est]
        if not full:
            assert cli(*args) == 0
            return [est]
        features, report = (tmp_path / f"{run}_{name}" for name in
                            ("features.csv", "report.json"))
        assert cli(*args, "--slip-model", slip_model, "--features", features) == 0
        assert cli("evaluate", "--estimates", est, "--truth", tmp_path / "t.json",
                   "--report", report) == 0
        return [est, features, report]

    for full in (False, True):
        for a, b in zip(outputs(f"a{full}", full), outputs(f"b{full}", full)):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_cli_evaluate_reads_estimates_whatever_their_suffix(workspace, tmp_path):
    # An estimates table is plain text under any name: a .gz suffix names
    # no compression, and evaluate reports on it as on est.csv.
    load_model = tmp_path / "lm.json"
    assert cli("calibrate-load", "--traces", workspace / "calib", "--out", load_model) == 0
    trace = tmp_path / "t.npy"
    assert cli("simulate", "--scenario", _seeded_scenario(tmp_path, 4),
               "--turns", 5, "--out", trace) == 0
    reports = []
    for name in ("est.csv", "est.csv.gz"):
        assert cli("estimate", "--trace", trace, "--load-model", load_model,
                   "--out", tmp_path / name) == 0
        reports.append(tmp_path / f"{name}.report.json")
        assert cli("evaluate", "--estimates", tmp_path / name, "--truth", tmp_path / "t.json",
                   "--report", reports[-1]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_cli_estimate_reads_no_load_or_slip_truth(workspace, tmp_path):
    # The estimators know the speed, the pressure and the sensor, not the
    # load or the slip, so a sidecar that states another load or slip for
    # the same samples moves no output byte.
    load_model, slip_model = tmp_path / "lm.json", tmp_path / "sm.json"
    assert cli("calibrate-load", "--traces", workspace / "calib", "--out", load_model) == 0
    assert cli("calibrate-slip", "--traces", workspace / "slip", "--out", slip_model) == 0
    source = tmp_path / "source.csv"
    assert cli("simulate", "--scenario", _seeded_scenario(tmp_path, 9),
               "--turns", 6, "--out", source) == 0
    sidecar = json.loads(source.with_suffix(".json").read_text())
    outputs = []
    for i, changes in enumerate(({}, {"vertical_load": 400.0}, {"vertical_load": 1100.0},
                                 {"slip_angle": 3.0})):
        trace, est, features = (tmp_path / f"{i}{name}" for name in
                                (".csv", "_est.csv", "_features.csv"))
        trace.write_bytes(source.read_bytes())
        trace.with_suffix(".json").write_text(
            json.dumps({**sidecar, "scenario": {**sidecar["scenario"], **changes}}))
        assert cli("estimate", "--trace", trace, "--load-model", load_model,
                   "--slip-model", slip_model, "--out", est, "--features", features) == 0
        outputs.append((est.read_bytes(), features.read_bytes()))
    assert outputs[1:] == outputs[:1] * 3


def test_cli_estimate_emits_feature_table(workspace, tmp_path):
    # A trace at 3 degrees of slip: the features file is the same with and
    # without a slip model, and its lateral columns are measured, not zeros.
    load_model, slip_model = tmp_path / "lm.json", tmp_path / "sm.json"
    assert cli("calibrate-load", "--traces", workspace / "calib", "--out", load_model) == 0
    assert cli("calibrate-slip", "--traces", workspace / "slip", "--out", slip_model) == 0
    files = []
    for extra in ((), ("--slip-model", slip_model)):
        files.append(tmp_path / f"features{len(extra)}.csv")
        assert cli("estimate", "--trace", workspace / "slip" / "slip_3.csv",
                   "--load-model", load_model, "--out", tmp_path / "est.csv",
                   "--features", files[-1], *extra) == 0
    assert files[0].read_bytes() == files[1].read_bytes()
    lines = files[0].read_text().splitlines()
    assert lines[1] == "turn,patch_length_m,peak_radial_mm,peak_lateral_mm,lateral_slope"
    table = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
    assert len(table) == 6  # one row per turn
    assert (table[:, 3] > 0).all() and (table[:, 4] != 0).all()


def test_cli_evaluate_length_mismatch(tmp_path):
    trace = tmp_path / "t.csv"
    assert cli("simulate", "--scenario", _seeded_scenario(tmp_path, 5),
               "--turns", 4, "--out", trace) == 0
    est = tmp_path / "est.csv"
    write_estimates(est, np.array([1000.0, 1001.0]), np.array([np.nan] * 2),
                    np.array([True, True]))
    report = tmp_path / "report.json"
    assert cli("evaluate", "--estimates", est, "--truth", tmp_path / "t.json",
               "--report", report) == 1
    assert not report.exists()  # no partial report


def test_cli_skipped_turn_still_evaluates(workspace, tmp_path):
    # a turn whose edges cannot be found is flagged invalid, not dropped,
    # so the estimate table still lines up with the sidecar truth
    load_model = tmp_path / "lm.json"
    assert cli("calibrate-load", "--traces", workspace / "calib",
               "--out", load_model) == 0
    scen = scenario()
    sensor = SensorSpec(noise_std=25.0, seed=31)
    trace, truth = simulate(scen, sensor, 5)
    samples = trace.samples.copy()
    period = round(truth.wheel_period_s[0] * trace.sample_rate)
    samples[period : 2 * period, 0] = 0.0
    from tiresense.simulate import AccelTrace

    broken = AccelTrace(sample_rate=trace.sample_rate, samples=samples)
    path = tmp_path / "broken.csv"
    write_trace(path, broken, truth, scen, sensor)
    est = tmp_path / "est.csv"
    assert cli("estimate", "--trace", path, "--load-model", load_model,
               "--out", est) == 0
    report_path = tmp_path / "report.json"
    assert cli("evaluate", "--estimates", est, "--truth", tmp_path / "broken.json",
               "--report", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["n_turns"] == 5
    assert report["skipped_turns"] == 1


def test_cli_missing_file_is_io_error(tmp_path):
    assert cli("simulate", "--scenario", tmp_path / "nope.json",
               "--turns", 2, "--out", tmp_path / "x.csv") == 2


def test_cli_schema_mismatch_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unloaded_radius": 0.3}))
    assert cli("simulate", "--scenario", bad, "--turns", 2,
               "--out", tmp_path / "x.csv") == 1


def test_cli_unknown_flag_exits_nonzero(workspace, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tiresense", "simulate",
         "--scenario", str(workspace / "scenario.json"),
         "--turns", "2", "--out", str(tmp_path / "x.csv"), "--frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stderr


def test_cli_sweep(tmp_path):
    ranges = tmp_path / "ranges.json"
    ranges.write_text(json.dumps(
        {"load": [800, 1500], "pressure": [29, 35], "tread": [2, 8]}
    ))
    out = tmp_path / "table3.json"
    plot = tmp_path / "sweep.csv"
    assert cli("sweep", "--ranges", ranges, "--out", out, "--plot-data", plot) == 0
    table = json.loads(out.read_text())
    assert table["schema_version"] == "tiresense.sensitivity.v1"
    shares = table["shares"]["peak_radial_displacement"]
    assert shares["load"] >= 80.0
    lines = plot.read_text().splitlines()
    assert lines[1] == "series,x,y"
    # each factor in turn: its patch series, then its peak series, at
    # SWEEP_POINTS values each
    expected = []
    for factor, (lo, hi) in (("load", (800, 1500)), ("pressure", (29, 35)), ("tread", (2, 8))):
        patch, peak = [], []
        for value in np.linspace(lo, hi, SWEEP_POINTS).tolist():
            fields = {"load": 1150.0, "pressure": 32.0, "tread": 5.0, factor: value}
            geom = derive_geometry(scenario(vertical_load=fields["load"],
                                            inflation_pressure=fields["pressure"],
                                            tread_depth=fields["tread"]))
            patch.append(f"patch_length_vs_{factor},{value:.12g},{geom.patch_chord:.12g}")
            peak.append(f"peak_radial_vs_{factor},{value:.12g},{geom.deflection_mm:.12g}")
        expected += patch + peak
    assert lines[2:] == expected


def test_cli_simulate_plot_integration(tmp_path):
    out = tmp_path / "t.csv"
    fig8 = tmp_path / "fig8.csv"
    assert cli("simulate", "--scenario", _seeded_scenario(tmp_path, 2),
               "--turns", 3, "--out", out,
               "--plot-integration", fig8) == 0
    # The first revolution of the trace, which starts at top dead centre:
    # round(period * fs) samples at x = i / fs, integrated at 1 / period.
    trace, truth, _, _ = read_trace(out)
    period, fs = float(truth.wheel_period_s[0]), trace.sample_rate
    n = round(period * fs)
    turn = trace.a_radial[:n]
    series = {
        "filtered_mm": accel_to_displacement(-turn, fs, 1.0 / period),
        "unfiltered_mm": -double_integrate(turn, fs) * 1e3,
    }
    lines = fig8.read_text().splitlines()
    assert lines[:2] == ["# schema=tiresense.plot.v1", "series,x,y"]
    assert lines[2:] == [f"{name},{i / fs:.12g},{y:.12g}"
                         for name, values in series.items()
                         for i, y in enumerate(values.tolist())]
    assert len(lines) == 2 + 2 * n


# ---------------------------------------------------------------------------
# malformed inputs: one-line error, exit 1, no traceback, no output file

@pytest.mark.parametrize("p10", [0.0, 0.02], ids=["zero-model", "vanishing-at-32-psi"])
def test_cli_estimate_marks_every_turn_invalid_when_the_sensitivity_vanishes(
    bad_inputs, tmp_path, p10
):
    # p10 + p11 * 32 psi is exactly 0: no turn can be inverted
    payload = {**json.loads((bad_inputs / "lm.json").read_text()),
               "p10": p10, "p11": -p10 / 32.0}
    model = tmp_path / "lm.json"
    model.write_text(json.dumps(payload))
    est = tmp_path / "est.csv"
    assert cli("estimate", "--trace", bad_inputs / "trace.csv", "--load-model", model,
               "--out", est) == 0
    _, _, valid = read_estimates(est)
    assert len(valid) == 4 and not valid.any()


def run_python(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(tiresense.__file__).parents[1])}
    return subprocess.run([sys.executable, *map(str, argv)],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bad")
    write_trace_files(root / "trace.csv", scenario(), SENSOR, 4)
    surface = fit_load_surface(
        [
            (load, pressure, 0.001 * load + 0.2 * pressure - 0.004 * pressure**2)
            for load in (800.0, 1000.0, 1300.0)
            for pressure in (29.0, 32.0, 35.0)
        ]
    )
    write_load_model(root / "lm.json", surface)
    write_slip_model(root / "sm.json",
                     fit_slip_model([(0.0, 0.0, 0.0), (10.0, 0.05, 3.0), (20.0, 0.09, 6.0)]))
    return root


def _ranges(root, **changes):
    """sweep on the criterion-4 ranges with ``changes``; a None drops the factor."""
    ranges = {"load": [800, 1500], "pressure": [29, 35], "tread": [2, 8], **changes}
    path = root / "ranges.json"
    path.write_text(json.dumps({k: v for k, v in ranges.items() if v is not None}))
    return ["sweep", "--ranges", path, "--out", root / "out"]


def _estimate(root, trace="trace.csv", *extra):
    return ["estimate", "--trace", root / trace, "--load-model", root / "lm.json",
            "--out", root / "out", *extra]


def _evaluate(root):
    return ["evaluate", "--estimates", root / "est.csv",
            "--truth", root / "trace.json", "--report", root / "out"]


def _no_valid_turn(root):
    write_estimates(root / "est.csv", np.full(4, 1000.0), np.full(4, np.nan),
                    np.zeros(4, dtype=bool))
    return _evaluate(root)


def _npy(array, save=np.save) -> bytes:
    out = io.BytesIO()
    save(out, array)
    return out.getvalue()


def _edited_trace(root, name, edit):
    """estimate on ``edit`` of trace.csv's bytes and samples, beside a copy
    of its sidecar."""
    data = (root / "trace.csv").read_bytes()
    (root / f"{name}.csv").write_bytes(edit(data, np.load(io.BytesIO(data))))
    (root / f"{name}.json").write_bytes((root / "trace.json").read_bytes())
    return _estimate(root, f"{name}.csv")


def _csv_trace(version, samples) -> bytes:
    """The samples as the CSV trace ``version`` wrote them: v1 with a t column."""
    time = version == "v1"
    rows = "".join(f"{_g(i / SENSOR.sample_rate)}," * time + ",".join(map(_g, row)) + "\n"
                   for i, row in enumerate(samples))
    return (f"# schema=tiresense.trace.{version}\n{'t,' * time}a_tangential,a_lateral,"
            f"a_radial\n{rows}").encode()


def _with_header(data: bytes, **changes) -> bytes:
    """``data`` with fields of its .npy header changed, at the same length."""
    end = 10 + int.from_bytes(data[8:10], "little")
    header = {**ast.literal_eval(data[10:end].decode("latin1")), **changes}
    return data[:10] + repr(header).encode("latin1").ljust(end - 11) + b"\n" + data[end:]


def _rate_mismatch(root):
    sidecar = json.loads((root / "trace.json").read_text())
    sidecar["sensor"]["sample_rate"] = 5000.0
    (root / "slow.json").write_text(json.dumps(sidecar))
    (root / "slow.csv").write_bytes((root / "trace.csv").read_bytes())
    return _estimate(root, "slow.csv")


def _short_estimates_row(root):
    _no_valid_turn(root)
    lines = (root / "est.csv").read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 2)[0]
    (root / "est.csv").write_text("\n".join(lines) + "\n")
    return _evaluate(root)


def _two_column_estimates(root):
    lines = ["# schema=tiresense.estimates.v1", "turn,load_lbf,slip_deg,valid"]
    lines += [f"{i},1000" for i in range(4)]
    (root / "est.csv").write_text("\n".join(lines) + "\n")
    return _evaluate(root)


def _every_turn_skipped(root, command):
    # a calibration set with no feature row left: no tangential edge anywhere
    trace, truth, scen, sensor = read_trace(root / "trace.csv")
    samples = trace.samples.copy()
    samples[:, 0] = 0.0
    (root / "dead").mkdir(exist_ok=True)
    write_trace(root / "dead" / "dead.csv",
                AccelTrace(trace.sample_rate, samples), truth, scen, sensor)
    return [command, "--traces", root / "dead", "--out", root / "out"]


def _two_turns(root, command):
    """``command`` on a 2-turn trace, shorter than the period search needs."""
    (root / "two").mkdir(exist_ok=True)
    write_trace_files(root / "two" / "two.npy", scenario(), SENSOR, 2)
    if command == "estimate":
        return _estimate(root, "two/two.npy")
    return [command, "--traces", root / "two", "--out", root / "out"]


def _turns_short_of_sidecar(root):
    # At 5 m/s and 500 Hz, with noise 100, segmentation finds 19 of the 20
    # turns of this seed; an estimate of 19 rows would not line up with the
    # sidecar's truth.
    write_trace_files(root / "short.npy", scenario(slip_angle=3.0, vehicle_speed=5.0),
                      SensorSpec(sample_rate=500.0, noise_std=100.0, seed=4), 20)
    return _estimate(root, "short.npy")


# Damaged traces read_trace must reject with a one-line SchemaError; each
# edit maps the clean trace's bytes and samples to the damaged file's bytes.
_DAMAGED_TRACES = {
    # the last row cut after its first field
    "truncated-csv": lambda data, samples: data[:-16],
    # the .npy header, and no sample after it
    "header-only-trace": lambda data, samples: data[: -samples.nbytes],
    # a non-UTF-8 byte before the magic string
    "trace-non-utf8": lambda data, samples: b"\xff" + data,
    "trace-v1": lambda data, samples: _csv_trace("v1", samples),
    "trace-v2-csv": lambda data, samples: _csv_trace("v2", samples),
    "trace-dropped-row": lambda data, samples: _npy(np.delete(samples, len(samples) // 2, 0)),
    "trace-repeated-row": lambda data, samples: _npy(np.insert(
        samples, len(samples) // 2, samples[len(samples) // 2], 0)),
    "trace-empty-file": lambda data, samples: b"",
    "trace-truncated-body": lambda data, samples: data[: -samples.nbytes // 2],
    "trace-bad-magic": lambda data, samples: b"\x93NUMPX" + data[6:],
    "trace-format-2.0": lambda data, samples: data[:6] + b"\x02" + data[7:],
    "trace-float32": lambda data, samples: _npy(samples.astype("<f4")),
    "trace-big-endian": lambda data, samples: _npy(samples.astype(">f8")),
    "trace-fortran-order": lambda data, samples: _npy(np.asfortranarray(samples)),
    "trace-two-columns": lambda data, samples: _npy(samples[:, :2]),
    "trace-one-dimension": lambda data, samples: _npy(samples.ravel()),
    "trace-object-pickle": lambda data, samples: _npy(samples.astype(object)),
    "trace-npz": lambda data, samples: _npy(samples, np.savez),
    # a 1e11-row header on the clean body: np.load would try to allocate
    # 2.18 TiB before it found the body short
    "trace-header-1e11-rows": lambda data, samples: _with_header(data, shape=(10**11, 3)),
    # rows of 51 digits, which the error quotes to 12
    "trace-header-1e50-rows": lambda data, samples: _with_header(data, shape=(10**50, 3)),
    # numpy reads a Python 2 long in the shape, with a warning in newer
    # versions that must not reach stderr
    "trace-header-python2": lambda data, samples: data.replace(b", 3), } ", b"L, 2), }", 1),
    "trace-header-unclosed": lambda data, samples: data.replace(b"}", b" ", 1),
}


def _non_utf8_estimates(root):
    _no_valid_turn(root)
    (root / "est.csv").write_bytes(b"\xff" + (root / "est.csv").read_bytes())
    return _evaluate(root)


def _non_utf8_load_model(root):
    (root / "bad_lm.json").write_bytes(b"\xff{}")
    return ["estimate", "--trace", root / "trace.csv", "--load-model",
            root / "bad_lm.json", "--out", root / "out"]


def _estimates_field(root, column, value):
    write_estimates(root / "est.csv", np.full(4, 1000.0), np.full(4, np.nan),
                    np.ones(4, dtype=bool))
    lines = (root / "est.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[column] = value
    lines[3] = ",".join(fields)
    (root / "est.csv").write_text("\n".join(lines) + "\n")
    return _evaluate(root)


def _evaluate_truth(root, sidecar):
    write_estimates(root / "est.csv", np.full(4, 1000.0), np.full(4, np.nan),
                    np.ones(4, dtype=bool))
    (root / "truth.json").write_text(json.dumps(sidecar))
    return ["evaluate", "--estimates", root / "est.csv",
            "--truth", root / "truth.json", "--report", root / "out"]


def _truth_load(root, load):
    sidecar = json.loads((root / "trace.json").read_text())
    sidecar["scenario"]["vertical_load"] = load
    return _evaluate_truth(root, sidecar)


def _scenario_file(root, turns=2, **changes):
    payload = {**scenario_payload(scenario(), SENSOR), **changes}
    (root / "scenario.json").write_text(json.dumps(payload))
    return ["simulate", "--scenario", root / "scenario.json", "--turns", turns,
            "--out", root / "out"]


def _load_model_file(root, **changes):
    payload = {**json.loads((root / "lm.json").read_text()), **changes}
    (root / "bad_lm.json").write_text(json.dumps(payload))
    return ["estimate", "--trace", root / "trace.csv", "--load-model",
            root / "bad_lm.json", "--out", root / "out"]


def _load_model_v1(root):
    # The surface nested beside the patch-length model, as v1 wrote it.
    argv = _load_model_file(root)
    surface = json.loads((root / "lm.json").read_text())
    del surface["schema_version"]
    patch = {"q0": -1043.0, "q1": 8849.5, "reference_pressure": 29.0,
             "reference_tread": 8.0, "patch_length_range": [0.204, 0.292],
             "fit_residual_rms": 37.0}
    (root / "bad_lm.json").write_text(json.dumps(
        {"schema_version": "tiresense.load-model.v1", "surface": surface, "patch": patch}))
    return argv


def _load_model_v2(root):
    # v3's fields under v2's name: a surface fitted on the max-based dip.
    return _load_model_file(root, schema_version="tiresense.load-model.v2")


def _slip_model_file(root, **changes):
    payload = {**json.loads((root / "sm.json").read_text()), **changes}
    (root / "bad_sm.json").write_text(json.dumps(payload))
    return _estimate(root, "trace.csv", "--slip-model", root / "bad_sm.json")


def _estimate_sidecar(root, **changes):
    """estimate on a copy of trace.csv whose sidecar has ``changes`` at the top."""
    sidecar = {**json.loads((root / "trace.json").read_text()), **changes}
    (root / "edited.json").write_text(json.dumps(sidecar))
    (root / "edited.csv").write_bytes((root / "trace.csv").read_bytes())
    return _estimate(root, "edited.csv")


def _estimate_scenario(root, **changes):
    """estimate on a copy of trace.csv whose sidecar scenario has ``changes``."""
    sidecar = json.loads((root / "trace.json").read_text())
    return _estimate_sidecar(root, scenario={**sidecar["scenario"], **changes})


# The simulator's constants as a v2 scenario or sidecar held them.
_V2_CONSTANTS = {"stiffness_c0": 120.0, "stiffness_c1": 2.5, "wear_radius_gain": 5.3,
                 "release_angle": None}


def _sidecar_v2(root) -> dict:
    sidecar = json.loads((root / "trace.json").read_text())
    sidecar["scenario"].update(_V2_CONSTANTS)
    return {**sidecar, "schema_version": "tiresense.sidecar.v2"}


def _sidecar_v1(root):
    # The truth stored beside the scenario, one list per field, as v1 wrote it.
    _, truth, _, _ = read_trace(root / "trace.csv")
    stored = {k: v.tolist() for k, v in asdict(truth).items()}
    return _estimate_sidecar(root, schema_version="tiresense.sidecar.v1",
                             ground_truth=stored)


# What the error line of a case must name, where the case says.
_LINE_NAMES = {
    "simulate-noise-1e200": f"{os.sep}scenario.json: sensor noise or bias",
    "simulate-bias-1e308": f"{os.sep}scenario.json: sensor noise or bias",
    "simulate-radius-below-tread": f"{os.sep}scenario.json: effective radius ",
    "simulate-load-20000": f"{os.sep}scenario.json: deflection ",
    "simulate-sample-rate-100": f"{os.sep}scenario.json: sample rate 100 Hz gives fewer",
    "simulate-release-window": f"{os.sep}scenario.json: release window extends past",
    "load-model-v1": "; refit with calibrate-load",
    "load-model-v2": "; refit with calibrate-load",
    "scenario-with-v2-constants":
        "unknown fields ['release_angle', 'stiffness_c0', 'stiffness_c1', 'wear_radius_gain']",
    "turns-short-of-sidecar": f"{os.sep}short.npy: found 19 of the sidecar's 20 turns",
    "estimate-two-turns": f"{os.sep}two.npy: need at least 3 periods of 0.8 x the hint",
    "calibrate-load-two-turns": f"{os.sep}two.npy: need at least 3 periods of 0.8 x the hint",
    "extra-factor": f"{os.sep}ranges.json: ranges name ['load', 'pressure', 'speed', 'tread'], "
                    "not ['load', 'pressure', 'tread']",
    # a value that is no range is refused as it is decoded, before the factors are checked
    "points": f"{os.sep}ranges.json: points must be a [lo, hi] range with lo <= hi, got 5",
    "points-range": f"{os.sep}ranges.json: ranges name ['load', 'points', 'pressure', 'tread'], "
                    "not ['load', 'pressure', 'tread']",
    "missing-factor": f"{os.sep}ranges.json: ranges name ['load', 'pressure'], "
                      "not ['load', 'pressure', 'tread']",
    "sweep-negative-load": f"{os.sep}ranges.json: vertical_load must be positive",
    "sweep-pressure-3500":
        f"{os.sep}ranges.json: inflation_pressure must lie in (0, 1000.0] psi, got 3500.0",
    "sweep-tread-400": f"{os.sep}ranges.json: tread_depth must lie in [0, 8.0] mm, got 400.0",
    "sweep-load-1e300": f"{os.sep}ranges.json: deflection 2.224e+298 mm reaches ",
    "no-valid-turn": f"{os.sep}est.csv: no valid turn to evaluate",
    "evaluate-n-turns-1e400":
        f"{os.sep}est.csv: 4 estimate rows do not match the above 1.798e+308 turns of ",
    "sidecar-vehicle-speed-1e-300": f"{os.sep}edited.csv: ",
    "sidecar-vehicle-speed-5e-324":
        f"{os.sep}edited.csv: 3770 rows, but the sidecar's turns take above 1.798e+308",
    "sidecar-radius-1e308":
        f"{os.sep}edited.csv: 3770 rows, but the sidecar's turns take above 1.798e+308",
    "calibrate-load-every-turn-skipped": f"{os.sep}dead: design matrix is rank deficient",
    "calibrate-slip-every-turn-skipped": f"{os.sep}dead: design matrix is rank deficient",
    "simulate-turns-1e14": f"{os.sep}scenario.json: ",
    "estimates-load-1e300": f"{os.sep}est.csv: overflow encountered in ",
    "sidecar-n-turns-1e400": f"{os.sep}edited.csv: n_turns above 1.798e+308 does not fit ",
    "simulate-turns-1e300": f"{os.sep}scenario.json: 1e+300 turns at 10000 Hz need more ",
    "simulate-period-1e303-ms": f"{os.sep}scenario.json: sample rate 1e-305 Hz gives fewer ",
    "simulate-rolling-rate-0":
        f"{os.sep}scenario.json: 2 turns at 10000 Hz need more samples than one array holds",
    "sidecar-rolling-rate-0":
        f"{os.sep}edited.csv: 3770 rows, but the sidecar's turns take above 1.798e+308",
    "simulate-rolling-rate-inf":
        f"{os.sep}scenario.json: sample rate 10000 Hz gives fewer than 20 samples per 0 ms turn",
    "sidecar-pressure-1e300": f"{os.sep}edited.json: inflation_pressure must lie in (0, ",
    "truth-zero-load": f"{os.sep}truth.json: vertical_load must be positive",
    "truth-degenerate-geometry": f"{os.sep}truth.json: deflection ",
}


@pytest.mark.parametrize(
    "make_argv",
    [
        pytest.param(lambda root: _ranges(root, speed=[10, 30]), id="extra-factor"),
        pytest.param(lambda root: _ranges(root, points=5), id="points"),
        pytest.param(lambda root: _ranges(root, points=[1, 5]), id="points-range"),
        pytest.param(lambda root: _ranges(root, tread=None), id="missing-factor"),
        pytest.param(lambda root: _ranges(root, load=[-5, 1500]), id="sweep-negative-load"),
        # the error quotes the bound past MAX_PRESSURE_PSI or FULL_TREAD_MM,
        # not the range's centre
        pytest.param(lambda root: _ranges(root, pressure=[29, 3500]),
                     id="sweep-pressure-3500"),
        pytest.param(lambda root: _ranges(root, tread=[2, 400]), id="sweep-tread-400"),
        # each of these quotes a figure of hundreds of digits, or one past
        # the float range, in a bounded form
        pytest.param(lambda root: _ranges(root, load=[1e300, 1e300]), id="sweep-load-1e300"),
        pytest.param(lambda root: _evaluate_truth(
            root, {**json.loads((root / "trace.json").read_text()), "n_turns": 10**400}),
            id="evaluate-n-turns-1e400"),
        pytest.param(lambda root: _estimate_scenario(root, vehicle_speed=1e-300),
                     id="sidecar-vehicle-speed-1e-300"),
        # the period, and so the sidecar's rows, overflow to infinity
        pytest.param(lambda root: _estimate_scenario(root, vehicle_speed=5e-324),
                     id="sidecar-vehicle-speed-5e-324"),
        pytest.param(lambda root: _estimate_scenario(root, unloaded_radius=1e308),
                     id="sidecar-radius-1e308"),
        pytest.param(lambda root: _estimate_sidecar(root, n_turns=10**400),
                     id="sidecar-n-turns-1e400"),
        pytest.param(lambda root: _scenario_file(root, turns=10**300),
                     id="simulate-turns-1e300"),
        pytest.param(lambda root: _scenario_file(root, vehicle_speed=1e-300, sample_rate=1e-305),
                     id="simulate-period-1e303-ms"),
        # the rolling rate underflows to 0, and overflows to infinity
        pytest.param(lambda root: _scenario_file(root, unloaded_radius=3.0, vehicle_speed=5e-324),
                     id="simulate-rolling-rate-0"),
        pytest.param(lambda root: _estimate_scenario(root, unloaded_radius=3.0,
                                                     vehicle_speed=5e-324),
                     id="sidecar-rolling-rate-0"),
        pytest.param(lambda root: _scenario_file(root, unloaded_radius=1e-10, vertical_load=1e-300,
                                                 vehicle_speed=1e300),
                     id="simulate-rolling-rate-inf"),
        pytest.param(_no_valid_turn, id="no-valid-turn"),
        pytest.param(_rate_mismatch, id="sample-rate-mismatch"),
        *(pytest.param(lambda root, n=name, e=edit: _edited_trace(root, n, e), id=name)
          for name, edit in _DAMAGED_TRACES.items()),
        pytest.param(lambda root: _scenario_file(root, unloaded_radius="0.3"),
                     id="string-scenario-field"),
        pytest.param(_short_estimates_row, id="estimates-short-row"),
        pytest.param(_two_column_estimates, id="estimates-two-columns"),
        pytest.param(lambda root: _ranges(root, tread=[2, 8, 9]), id="three-bounds"),
        pytest.param(lambda root: _ranges(root, tread=[2, float("inf")]),
                     id="infinite-bound"),
        pytest.param(lambda root: _evaluate_truth(root, {"schema_version": SIDECAR_SCHEMA}),
                     id="truth-without-scenario"),
        pytest.param(lambda root: _truth_load(root, "x"), id="truth-string-load"),
        pytest.param(lambda root: _truth_load(root, 0), id="truth-zero-load"),
        pytest.param(lambda root: _truth_load(root, 20000), id="truth-degenerate-geometry"),
        pytest.param(lambda root: _every_turn_skipped(root, "calibrate-load"),
                     id="calibrate-load-every-turn-skipped"),
        pytest.param(lambda root: _every_turn_skipped(root, "calibrate-slip"),
                     id="calibrate-slip-every-turn-skipped"),
        pytest.param(_turns_short_of_sidecar, id="turns-short-of-sidecar"),
        pytest.param(lambda root: _two_turns(root, "estimate"), id="estimate-two-turns"),
        pytest.param(lambda root: _two_turns(root, "calibrate-load"),
                     id="calibrate-load-two-turns"),
        pytest.param(_non_utf8_estimates, id="estimates-non-utf8"),
        pytest.param(_non_utf8_load_model, id="load-model-non-utf8"),
        pytest.param(lambda root: _estimates_field(root, 1, "nan"), id="estimates-nan-load"),
        pytest.param(lambda root: _estimates_field(root, 1, "inf"), id="estimates-inf-load"),
        # finite, but its squared error overflows
        pytest.param(lambda root: _estimates_field(root, 1, "1e300"), id="estimates-load-1e300"),
        pytest.param(lambda root: _estimates_field(root, 3, "2"), id="estimates-valid-2"),
        pytest.param(lambda root: _estimates_field(root, 3, "nan"), id="estimates-valid-nan"),
        *(pytest.param(lambda root, v=value: _estimates_field(root, 0, v),
                       id=f"estimates-turn-{name}")
          for name, value in [("1e300", "1e300"), ("nan", "nan"), ("repeat", "0"),
                              ("4", "4"), ("2.5", "2.5")]),
        pytest.param(lambda root: _estimates_field(root, 2, "inf"), id="estimates-inf-slip"),
        pytest.param(lambda root: _estimates_field(root, 2, "-inf"),
                     id="estimates-minus-inf-slip"),
        pytest.param(_sidecar_v1, id="sidecar-v1"),
        # the trace is unchanged; the sidecar's scenario takes a different
        # number of rows for its turns
        pytest.param(lambda root: _estimate_scenario(root, vehicle_speed=24.0),
                     id="sidecar-vehicle-speed-24"),
        pytest.param(lambda root: _estimate_scenario(root, tread_depth=2.0),
                     id="sidecar-tread-2"),
        pytest.param(lambda root: _estimate_sidecar(root, spin_rate=3.0),
                     id="sidecar-unknown-field"),
        pytest.param(lambda root: _estimate_sidecar(root, n_turns=10**12),
                     id="sidecar-n-turns-1e12"),
        pytest.param(lambda root: _estimate_sidecar(root, n_turns=0),
                     id="sidecar-n-turns-0"),
        # finite, but above MAX_PRESSURE_PSI: refused as the sidecar is read
        pytest.param(lambda root: _estimate_scenario(root, inflation_pressure=1e300),
                     id="sidecar-pressure-1e300"),
        pytest.param(lambda root: _scenario_file(root, sample_rate=1e300),
                     id="simulate-sample-rate-1e300"),
        pytest.param(lambda root: _scenario_file(root, turns=10**17),
                     id="simulate-turns-1e17"),
        # finite, but the samples they make exceed MAX_ABS_SAMPLE
        pytest.param(lambda root: _scenario_file(root, noise_std=1e200),
                     id="simulate-noise-1e200"),
        pytest.param(lambda root: _scenario_file(root, dc_bias=[1e308] * 3),
                     id="simulate-bias-1e308"),
        # refused by simulate's geometry and resolution checks
        pytest.param(lambda root: _scenario_file(root, unloaded_radius=0.04, tread_depth=0.0),
                     id="simulate-radius-below-tread"),
        pytest.param(lambda root: _scenario_file(root, vertical_load=20000.0),
                     id="simulate-load-20000"),
        pytest.param(lambda root: _scenario_file(root, sample_rate=100.0),
                     id="simulate-sample-rate-100"),
        # a contact half-angle that rounds to pi / 2; one ulp less load simulates
        pytest.param(lambda root: _scenario_file(root, unloaded_radius=1.0, tread_depth=8.0,
                                                 inflation_pressure=32.0,
                                                 vertical_load=44961.788774192355),
                     id="simulate-release-window"),
        # about 700 TiB of truth arrays: more than the address space, so the
        # allocator refuses it at once
        pytest.param(lambda root: _scenario_file(root, turns=10**14),
                     id="simulate-turns-1e14"),
        pytest.param(lambda root: _load_model_file(root, p00="x"),
                     id="load-model-string-coefficient"),
        pytest.param(lambda root: _load_model_file(root, p01=None),
                     id="load-model-null-coefficient"),
        pytest.param(lambda root: _load_model_file(root, p10=True),
                     id="load-model-bool-coefficient"),
        pytest.param(lambda root: _load_model_file(root, p11=float("nan")),
                     id="load-model-nan-coefficient"),
        pytest.param(_load_model_v1, id="load-model-v1"),
        pytest.param(_load_model_v2, id="load-model-v2"),
        pytest.param(lambda root: _slip_model_file(root, slip_range=[0, 3, 6]),
                     id="slip-model-three-bounds"),
        pytest.param(lambda root: _slip_model_file(root, slip_range=[6, 0]),
                     id="slip-model-reversed-range"),
        pytest.param(lambda root: _scenario_file(root, unloaded_radius=float("inf")),
                     id="scenario-infinite-radius"),
        pytest.param(lambda root: _scenario_file(root, stiffness_c1=float("inf")),
                     id="scenario-stiffness-field"),
        pytest.param(lambda root: _scenario_file(root, **_V2_CONSTANTS),
                     id="scenario-with-v2-constants"),
        pytest.param(lambda root: _scenario_file(root, vertical_load=True),
                     id="scenario-bool-load"),
    ],
)
def test_cli_malformed_input_is_one_line_error(bad_inputs, capsys, make_argv, request):
    # In process: an escaping exception or any warning fails the test.
    (bad_inputs / "out").unlink(missing_ok=True)
    code = cli(*make_argv(bad_inputs))
    _assert_one_line_error(code, capsys.readouterr().err, bad_inputs, request.node.callspec.id)


def test_cli_malformed_input_is_one_line_error_cold(bad_inputs):
    # One case of the matrix through the interpreter's entry path.
    (bad_inputs / "out").unlink(missing_ok=True)
    argv = _scenario_file(bad_inputs, unloaded_radius=float("inf"))
    proc = run_python("-m", "tiresense", *argv)
    assert "Traceback" not in proc.stderr
    _assert_one_line_error(proc.returncode, proc.stderr, bad_inputs, "scenario-infinite-radius")


def _assert_one_line_error(code, err, root, case):
    assert code == 1, err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {root}{os.sep}"), "names no input"
    assert not re.search(r"\d{16}", err), "a figure of more than 15 digits"
    assert _LINE_NAMES.get(case, "") in err
    assert not (root / "out").exists()


@pytest.mark.parametrize("make_argv, option, value", [
    pytest.param(_estimate, "--lambda", "0.98", id="--lambda-0.98"),
    pytest.param(_estimate, "--p0", "1e6", id="--p0-1e6"),
    pytest.param(_estimate, "--plot-data", "fig11.csv", id="--plot-data-fig11.csv"),
    pytest.param(_scenario_file, "--seed", "7", id="simulate---seed-7"),
])
def test_cli_estimate_has_no_rls_options(bad_inputs, capsys, make_argv, option, value):
    # The RLS runs at estimation's DEFAULT_FORGETTING and INITIAL_COVARIANCE,
    # and no option of estimate sets either.  Nor does estimate write fig 11:
    # its series are est.csv's load_lbf and the report's load.true_lbf.  And
    # simulate's sensor seed is the scenario file's, which no option overrides.
    (bad_inputs / "out").unlink(missing_ok=True)
    with pytest.raises(SystemExit) as exited:
        cli(*make_argv(bad_inputs), option, value)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
    assert not (bad_inputs / "out").exists()


@pytest.mark.parametrize("name", sorted(_DAMAGED_TRACES))
def test_damaged_trace_is_one_line_schema_error(bad_inputs, name):
    # In-process, so an unclosed handle fails as a ResourceWarning, and a
    # MemoryError or any other exception fails the test; the read
    # allocates no more than the file holds.
    path = _edited_trace(bad_inputs, name, _DAMAGED_TRACES[name])[2]
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError) as raised:
            read_trace(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert str(raised.value).startswith(f"{path}: ")
    assert "\n" not in str(raised.value)
    assert peak < 2 * path.stat().st_size + _READ_OVERHEAD


def test_a_trace_refusal_names_the_innermost_file(bad_inputs):
    trace = _estimate_scenario(bad_inputs, inflation_pressure=1e300)[2]
    sidecar = bad_inputs / "edited.json"
    with pytest.raises(ScenarioError) as raised:
        read_trace(trace)
    assert str(raised.value).startswith(f"{sidecar}: inflation_pressure must lie in ")
    assert raised.value.path == sidecar
    # the sidecar reads, but its turns take other rows than the trace holds
    _estimate_scenario(bad_inputs, vehicle_speed=24.0)
    with pytest.raises(SchemaError) as raised:
        read_trace(trace)
    assert str(raised.value) == f"{trace}: 3770 rows, but the sidecar's turns take 3142"
    assert raised.value.path == trace


def test_naming_makes_arithmetic_failures_named_refusals():
    with pytest.raises(TireSenseError) as raised, naming("scenario.json"):
        raise OverflowError("int too large to convert to float")
    assert type(raised.value) is TireSenseError
    assert str(raised.value) == "scenario.json: int too large to convert to float"
    assert raised.value.path == "scenario.json"
    with pytest.raises(SchemaError, match="^inner.json: bad$"):
        with naming("outer"), naming("inner.json"):
            raise SchemaError("bad")


def test_estimate_with_every_turn_skipped_writes_every_turn_invalid(bad_inputs, tmp_path):
    # No tangential edge anywhere, so no turn is left to average into either
    # channel's mean row: an estimate is still a row per turn, all invalid.
    trace, truth, scen, sensor = read_trace(bad_inputs / "trace.csv")
    samples = trace.samples.copy()
    samples[:, 0] = 0.0
    dead = tmp_path / "dead.npy"
    write_trace(dead, AccelTrace(trace.sample_rate, samples), truth, scen, sensor)
    estimates, features = tmp_path / "est.csv", tmp_path / "features.csv"
    assert cli("estimate", "--trace", dead, "--load-model", bad_inputs / "lm.json",
               "--slip-model", bad_inputs / "sm.json", "--out", estimates,
               "--features", features) == 0
    _, slips, valid = read_estimates(estimates)
    assert len(valid) == truth.n_turns and not valid.any()
    assert np.isnan(slips).all()
    assert len(features.read_text().splitlines()) == 2 + truth.n_turns


def test_calibrate_takes_every_file_but_the_sidecars(workspace, tmp_path, capsys):
    # The trace format does not depend on the file name: a.npy, b.csv and c
    # give the model that slip_0, slip_3 and slip_6 give, and a
    # subdirectory is not a trace.
    mixed = tmp_path / "mixed"
    (mixed / "sub").mkdir(parents=True)
    for source, name in zip(("slip_0", "slip_3", "slip_6"), ("a.npy", "b.csv", "c")):
        source = workspace / "slip" / source
        (mixed / name).write_bytes(source.with_suffix(".csv").read_bytes())
        (mixed / name).with_suffix(".json").write_bytes(source.with_suffix(".json").read_bytes())
    assert cli("calibrate-slip", "--traces", workspace / "slip", "--out", tmp_path / "ref.json") == 0
    assert cli("calibrate-slip", "--traces", mixed, "--out", tmp_path / "mixed.json") == 0
    assert (tmp_path / "mixed.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    # a trace with no sidecar is an i/o error, not a file to skip
    (mixed / "d.csv").write_bytes((mixed / "b.csv").read_bytes())
    capsys.readouterr()
    assert cli("calibrate-slip", "--traces", mixed, "--out", tmp_path / "out.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "d.json" in err and len(err.splitlines()) == 1

    empty = tmp_path / "empty"
    empty.mkdir()
    for command in ("calibrate-load", "calibrate-slip"):
        assert cli(command, "--traces", empty, "--out", tmp_path / "out.json") == 1
        assert capsys.readouterr().err == f"error: {empty}: no trace files found\n"
    assert not (tmp_path / "out.json").exists()


def test_calibrate_skips_a_trace_with_every_turn_skipped(workspace, tmp_path):
    # Beside live traces, a trace with no patch anywhere adds no row: the
    # model is the fit over the finite rows of every trace, stacked by hand.
    for command, source, lateral, fit, write, columns in (
        ("calibrate-load", "calib", False, fit_load_surface, write_load_model,
         lambda scen, turn: (scen.vertical_load, scen.inflation_pressure,
                             turn.peak_radial_displacement)),
        ("calibrate-slip", "slip", True, fit_slip_model, write_slip_model,
         lambda scen, turn: (turn.peak_lateral_displacement, turn.lateral_slope,
                             scen.slip_angle)),
    ):
        traces = tmp_path / source
        traces.mkdir()
        rows = []
        for path in sorted((workspace / source).glob("*.csv")):
            for name in (path, path.with_suffix(".json")):
                (traces / name.name).write_bytes(name.read_bytes())
            trace, truth, scen, sensor = read_trace(path)
            table, _ = extract_features(trace, scen.vehicle_speed, scen.unloaded_radius,
                                        include_lateral=lateral)
            rows += [columns(scen, turn) for turn in table if np.isfinite(turn.patch_length)]
        samples = trace.samples.copy()
        samples[:, 0] = 0.0
        write_trace(traces / "dead.npy", AccelTrace(trace.sample_rate, samples),
                    truth, scen, sensor)
        assert cli(command, "--traces", traces, "--out", tmp_path / "model.json") == 0
        write(tmp_path / "by_hand.json", fit(rows))
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "by_hand.json").read_bytes()


def test_v1_and_v2_load_models_are_refit(bad_inputs):
    for make in (_load_model_v1, _load_model_v2):
        make(bad_inputs)
        with pytest.raises(SchemaError) as raised:
            read_load_model(bad_inputs / "bad_lm.json")
        assert str(raised.value).endswith(
            "is not 'tiresense.load-model.v3'; refit with calibrate-load")


def test_v1_and_v2_sidecars_are_regenerated(bad_inputs, capsys):
    v2 = _sidecar_v2(bad_inputs)
    for argv in (_sidecar_v1(bad_inputs), _estimate_sidecar(bad_inputs, **v2),
                 _evaluate_truth(bad_inputs, v2)):
        assert cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(
            "is not 'tiresense.sidecar.v3'; regenerate it with simulate\n"), err
        assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# every JSON input, mutated one value at a time

# The fixed replacement values.  1e300 is finite, but its square is not.
_REPLACEMENTS = ["x", None, True, [], {}, float("nan"), float("inf"), float("-inf"), -1, 0,
                 1e300]
_DROP = "drop"


def _json_paths(value, prefix=()):
    """The key or index path of every value nested in a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from _json_paths(child, (*prefix, key))


def _no_constant(name):
    raise AssertionError(f"output holds {name}")


def _json_output(path):
    return json.loads(path.read_text(), parse_constant=_no_constant)


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("json")
    write_scenario(root / "scenario.json", scenario(), SENSOR)
    write_trace_files(root / "trace.csv", scenario(slip_angle=2.0), SENSOR, 4)
    write_load_model(root / "load_model.json", LoadSurfaceModel(
        p00=8.34, p10=0.0433, p01=-0.667, p11=-0.000408, p02=0.0112,
        fit_residual_rms=0.52, load_range=(800.0, 1500.0), pressure_range=(29.0, 35.0)))
    write_slip_model(root / "slip_model.json", SlipModel(
        beta0=0.0, beta1=0.3, beta2=1.0, fit_residual_rms=0.05, slip_range=(0.0, 6.0)))
    write_estimates(root / "est.csv", np.full(4, 1000.0), np.full(4, 2.0),
                    np.ones(4, dtype=bool))
    (root / "ranges.json").write_text(json.dumps(
        {"load": [800, 1500], "pressure": [29, 35], "tread": [2, 8]}))
    # trace.json again, mutated as the sidecar that estimate reads beside bad.csv
    (root / "sidecar.json").write_bytes((root / "trace.json").read_bytes())
    (root / "bad.csv").write_bytes((root / "trace.csv").read_bytes())
    return root


# input file -> (argv with that file replaced by bad.json, check of an exit-0 output)
_JSON_RUNS = {
    "scenario.json": (
        lambda r: ["simulate", "--scenario", r / "bad.json", "--turns", 2,
                   "--out", r / "sim.csv"],
        lambda r: read_trace(r / "sim.csv")[1].n_turns == 2,
    ),
    "load_model.json": (
        lambda r: ["estimate", "--trace", r / "trace.csv", "--load-model", r / "bad.json",
                   "--slip-model", r / "slip_model.json", "--out", r / "out.csv"],
        lambda r: len(read_estimates(r / "out.csv")[0]) == 4,
    ),
    "slip_model.json": (
        lambda r: ["estimate", "--trace", r / "trace.csv", "--load-model",
                   r / "load_model.json", "--slip-model", r / "bad.json",
                   "--out", r / "out.csv"],
        lambda r: len(read_estimates(r / "out.csv")[0]) == 4,
    ),
    "sidecar.json": (
        lambda r: ["estimate", "--trace", r / "bad.csv", "--load-model", r / "load_model.json",
                   "--slip-model", r / "slip_model.json", "--out", r / "out.csv"],
        lambda r: len(read_estimates(r / "out.csv")[0]) == 4,
    ),
    "trace.json": (
        lambda r: ["evaluate", "--estimates", r / "est.csv", "--truth", r / "bad.json",
                   "--report", r / "out.json"],
        lambda r: _json_output(r / "out.json")["n_turns"] == 4,
    ),
    "ranges.json": (
        lambda r: ["sweep", "--ranges", r / "bad.json", "--out", r / "out.json"],
        lambda r: _json_output(r / "out.json")["schema_version"] == "tiresense.sensitivity.v1",
    ),
}


def _run_mutated(root, name, key_path, replacement):
    """Run ``name``'s command on the input with the value at ``key_path``
    replaced or dropped: no exception leaves main, and the command exits 0
    with output that reads back, or 1 or 2 with one line on stderr."""
    bad = json.loads((root / name).read_text())
    *parents, last = key_path
    target = bad
    for key in parents:
        target = target[key]
    if replacement == _DROP:
        del target[last]
    else:
        target[last] = replacement
    (root / "bad.json").write_text(json.dumps(bad))
    for output in ("sim.csv", "sim.json", "out.csv", "out.json"):
        (root / output).unlink(missing_ok=True)

    make_argv, output_reads_back = _JSON_RUNS[name]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli(*make_argv(root))
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().splitlines()) <= 1
    if code == 0:
        assert output_reads_back(root)


@pytest.mark.parametrize("name", sorted(_JSON_RUNS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cli_survives_any_json_mutation(json_inputs, name, data):
    # One key dropped or one value replaced, at any depth.
    paths = sorted(_json_paths(json.loads((json_inputs / name).read_text())), key=str)
    _run_mutated(json_inputs, name, data.draw(st.sampled_from(paths)),
                 data.draw(st.sampled_from([_DROP, *_REPLACEMENTS])))


# Mutations checked whatever hypothesis draws.
@pytest.mark.parametrize("name, key_path, replacement", [
    pytest.param("sidecar.json", ("scenario", "inflation_pressure"), 1e300,
                 id="sidecar-pressure-1e300"),
])
def test_cli_survives_pinned_json_mutation(json_inputs, name, key_path, replacement):
    _run_mutated(json_inputs, name, key_path, replacement)


# ---------------------------------------------------------------------------
# damaged trace and estimates bytes, through the whole command

@pytest.fixture(scope="module")
def csv_inputs(json_inputs, tmp_path_factory):
    """The 4-turn trace and models of ``json_inputs`` plus the estimates
    they give; damaged copies go to bad.csv, next to a copy of the sidecar."""
    root = tmp_path_factory.mktemp("csv")
    for name in ("trace.csv", "trace.json", "load_model.json", "slip_model.json"):
        (root / name).write_bytes((json_inputs / name).read_bytes())
    (root / "bad.json").write_bytes((root / "trace.json").read_bytes())
    assert cli("estimate", "--trace", root / "trace.csv", "--load-model",
               root / "load_model.json", "--slip-model", root / "slip_model.json",
               "--out", root / "est.csv") == 0
    return root


# damaged file -> (argv that reads it as bad.csv, check of an exit-0 output)
_CSV_RUNS = {
    "trace.csv": (
        lambda r: ["estimate", "--trace", r / "bad.csv", "--load-model",
                   r / "load_model.json", "--slip-model", r / "slip_model.json",
                   "--out", r / "out.csv"],
        lambda r: len(read_estimates(r / "out.csv")[0]) > 0,
    ),
    "est.csv": (
        lambda r: ["evaluate", "--estimates", r / "bad.csv", "--truth", r / "trace.json",
                   "--report", r / "out.json"],
        lambda r: _json_output(r / "out.json")["n_turns"] == 4,
    ),
}


def _set_sample(data: bytes, row: int, column: int, value) -> bytes:
    """The .npy trace ``data`` with one sample replaced."""
    samples = np.load(io.BytesIO(data))
    samples[row, column] = float(value)
    return _npy(samples)


def _set_field(data: bytes, row: int, column: int, text: bytes) -> bytes:
    """``data`` with one field of one body row (after the header lines) replaced."""
    lines = data.split(b"\n")
    fields = lines[2 + row].split(b",")
    fields[column] = text
    lines[2 + row] = b",".join(fields)
    return b"\n".join(lines)


_KINDS = ["truncate", "insert", "drop-comma", "double-comma"]


def _random_damage(data: bytes, seed: int) -> bytes:
    """One to three random mutations of the kinds ``_mutate`` applies."""
    rng = np.random.default_rng(seed)
    return _mutate(data, [
        (_KINDS[rng.integers(len(_KINDS))], int(rng.integers(2**31)),
         _INSERTS[rng.integers(len(_INSERTS))])
        for _ in range(rng.integers(1, 4))
    ])


@pytest.mark.parametrize(
    "name, damage, expected_code",
    [
        # beyond MAX_ABS_SAMPLE, so read_trace rejects them
        pytest.param("trace.csv", lambda d: _set_sample(d, 1000, 2, 1e300), 1,
                     id="radial-1e300"),
        pytest.param("trace.csv", lambda d: _set_sample(d, 1000, 2, -1e160), 1,
                     id="radial-minus-1e160"),
        # at the bound, so read_trace accepts it; the command still ends cleanly
        pytest.param("trace.csv", lambda d: _set_sample(d, 1000, 2, 1e100), None,
                     id="radial-1e100"),
        # finite, so the reader accepts them; the arithmetic then overflows
        pytest.param("est.csv", lambda d: _set_field(d, 2, 1, b"1e300"), 1,
                     id="load-1e300"),
        pytest.param("est.csv", lambda d: _set_field(d, 2, 2, b"1e300"), 1,
                     id="slip-1e300"),
        # fewer rows than the sidecar's turns take
        pytest.param("trace.csv", lambda d: _npy(np.load(io.BytesIO(d))[: -len(d) // 240]),
                     1, id="last-rows-cut"),
        # still a valid table, so the command runs through
        pytest.param("trace.csv", lambda d: _set_sample(d, 1000, 2, 2000), 0,
                     id="radial-2000"),
        pytest.param("est.csv", lambda d: _set_field(d, 2, 3, b"0"), 0, id="valid-0"),
        *(pytest.param(name, lambda d, seed=seed: _random_damage(d, seed), None,
                       id=f"{name}-{seed}")
          for name in _CSV_RUNS for seed in range(20)),
    ],
)
def test_cli_survives_damaged_csv(csv_inputs, capsys, name, damage, expected_code):
    # A damaged table ends the command with 0 and output that reads back,
    # or with 1 or 2 and one line on stderr.
    root = csv_inputs
    (root / "bad.csv").write_bytes(damage((root / name).read_bytes()))
    for output in ("out.csv", "out.json"):
        (root / output).unlink(missing_ok=True)
    make_argv, output_reads_back = _CSV_RUNS[name]
    capsys.readouterr()
    code = cli(*make_argv(root))
    assert code in (0, 1, 2)
    assert len(capsys.readouterr().err.splitlines()) == (code != 0)
    if expected_code is not None:
        assert code == expected_code
    if code == 0:
        assert output_reads_back(root)


# Values for one field of the estimates table: not a number, not finite,
# finite but huge, or a number outside its column's values.
_FIELD_VALUES = [b"nan", b"inf", b"-inf", b"1e300", b"1.7976931348623157e308", b"-0", b"2",
                 b"0.5", b"x", b"", b"9" * 400]


@settings(max_examples=200, deadline=None)
@given(row=st.integers(0, 3), column=st.integers(0, 3), value=st.sampled_from(_FIELD_VALUES))
def test_evaluate_survives_any_estimates_field(csv_inputs, row, column, value):
    # One field of one row replaced: evaluate exits 0 with a report of finite
    # numbers, or 1 or 2 with one error line; no exception leaves main.
    root = csv_inputs
    (root / "bad.csv").write_bytes(_set_field((root / "est.csv").read_bytes(), row, column, value))
    (root / "out.json").unlink(missing_ok=True)
    make_argv, output_reads_back = _CSV_RUNS["est.csv"]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli(*make_argv(root))
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == []
        assert output_reads_back(root)
    else:
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith(("error: ", "i/o error: "))


@pytest.mark.parametrize("value", [b"1e300", b"1e200", b"-1e160", b"1.0000001e100",
                                   b"nan", b"-inf"])
def test_bad_trace_sample_error_names_file_and_first_line(csv_inputs, capsys, value):
    # the first bad sample is in row 1000, counting from 0 as numpy indexes
    root = csv_inputs
    data = (root / "trace.csv").read_bytes()
    (root / "bad.csv").write_bytes(_set_sample(_set_sample(data, 2000, 0, value), 1000, 2, value))
    capsys.readouterr()
    assert cli(*_CSV_RUNS["trace.csv"][0](root)) == 1
    assert capsys.readouterr().err == (
        f"error: {root / 'bad.csv'}: row 1000: samples must be finite "
        "and at most 1e+100 m/s^2 in magnitude\n"
    )


def test_cli_import_does_not_load_scipy():
    proc = run_python("-c", "import sys, tiresense.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
