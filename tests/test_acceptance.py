"""Acceptance suite: one test per release criterion, tolerances pinned.

The heavy fixtures (calibration grids, 50-seed runs) are shared at module
scope; the whole file runs end to end in well under a minute.  Each test
prints a PASS line with the measured number next to its threshold.
"""

import json

import numpy as np
import pytest

from tiresense import SensorSpec, TireScenario, simulate
from tiresense.cli import main
from tiresense.dsp import accel_to_displacement, double_integrate
from tiresense.estimation import (
    convergence_turn,
    estimate_load_stream,
    fit_load_surface,
    fit_patch_load_model,
    fit_slip_model,
    predict_slip,
    rls,
    sensitivity_sweep,
)
from tiresense.features import extract_features

from conftest import scenario, write_scenario

FS = 10_000.0
BIAS = (5.0, 5.0, 5.0)
GRID_LOADS = (800.0, 1033.0, 1267.0, 1500.0)
GRID_PRESSURES = (29.0, 32.0, 35.0)

# Criterion 7 runs in a rougher measurement regime (4x the default white
# noise, calibration matched) so the absolute error scale of the reference
# road results is reproduced; at default noise the displacement estimator is
# several times better than the reference numbers.
WORN_NOISE = 100.0
SEEDS = 50


def feature_rows(scen, seed, turns, noise, lateral=False):
    sensor = SensorSpec(noise_std=noise, dc_bias=BIAS, seed=seed)
    trace, _ = simulate(scen, sensor, turns)
    rows, _ = extract_features(
        trace, scen.vehicle_speed, scen.unloaded_radius, include_lateral=lateral
    )
    return rows


def calibrate(speed, turns, seed0, noise):
    """Load-surface and patch models from a noise-matched grid at tread 8."""
    surface_samples, patch_samples = [], []
    seed = seed0
    for load in GRID_LOADS:
        for pressure in GRID_PRESSURES:
            seed += 1
            rows = feature_rows(
                scenario(vertical_load=load, inflation_pressure=pressure,
                         vehicle_speed=speed),
                seed, turns, noise,
            )
            for r in rows:
                surface_samples.append((load, pressure, r.peak_radial_displacement))
                if pressure == 32.0:
                    patch_samples.append((load, r.patch_length))
    surface = fit_load_surface(surface_samples)
    patch = fit_patch_load_model(patch_samples)
    return surface, patch


@pytest.fixture(scope="module")
def highway_models():
    return calibrate(speed=20.0, turns=40, seed0=100, noise=25.0)


@pytest.fixture(scope="module")
def rough_models():
    return calibrate(speed=10.0, turns=60, seed0=300, noise=WORN_NOISE)


def test_criterion_1_drift_elimination(default_scenario, biased_sensor):
    # without filtering, a 5 m/s^2 bias alone grows as b t^2 / 2
    biased = np.full(int(FS), 5.0)
    drift = double_integrate(biased, FS)
    assert abs(drift[-1]) == pytest.approx(2.5, rel=1e-3)
    assert abs(drift[-1]) > 1.0

    # with the per-turn pipeline, the bias changes nothing measurable
    trace, truth = simulate(default_scenario, biased_sensor, 3)
    period_samples = round(truth.wheel_period_s[0] * FS)
    turn = trace.a_radial[:period_samples]
    rotation = 1.0 / truth.wheel_period_s[0]
    with_bias = accel_to_displacement(turn + 5.0, FS, rotation)
    without = accel_to_displacement(turn, FS, rotation)
    worst = np.abs(with_bias - without).max()
    assert worst < 0.01
    print(f"\nPASS criterion 1: unfiltered drift 2.5 m; biased-vs-clean "
          f"pipeline difference {worst:.2e} mm < 0.01 mm")


def test_criterion_2_integration_fidelity():
    rotation = 10.0  # cutoff 3 Hz
    t = np.arange(int(FS)) / FS
    worst = 0.0
    for multiple in (4, 6, 10):
        freq = multiple * 0.3 * rotation
        amp = 0.005
        accel = -((2 * np.pi * freq) ** 2) * amp * np.sin(2 * np.pi * freq * t)
        profile = accel_to_displacement(accel, FS, rotation)
        design = np.column_stack(
            [np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t),
             np.ones_like(t), t]
        )
        coef, *_ = np.linalg.lstsq(design, profile, rcond=None)
        recovered = np.hypot(coef[0], coef[1])
        error = abs(recovered - amp * 1e3) / (amp * 1e3)
        worst = max(worst, error)
        assert error < 0.05
    print(f"\nPASS criterion 2: amplitude error <= {100 * worst:.2f}% "
          f"at 4-10x cutoff (limit 5%)")


def test_criterion_3_monotonicity_grid():
    grid = {}
    for load in (800.0, 1150.0, 1500.0):
        for pressure in GRID_PRESSURES:
            for tread in (2.0, 5.0, 8.0):
                rows = feature_rows(
                    scenario(vertical_load=load, inflation_pressure=pressure,
                             tread_depth=tread, vehicle_speed=10.0),
                    seed=1, turns=6, noise=0.0,
                )
                grid[(load, pressure, tread)] = (
                    float(np.mean([r.patch_length for r in rows])),
                    float(np.mean([r.peak_radial_displacement for r in rows])),
                )
    loads, treads = (800.0, 1150.0, 1500.0), (2.0, 5.0, 8.0)
    for pressure in GRID_PRESSURES:
        for tread in treads:
            seq = [grid[(lo, pressure, tread)][0] for lo in loads]
            assert seq[0] < seq[1] < seq[2], "patch length not increasing in load"
    for load in loads:
        for tread in treads:
            seq = [grid[(load, p, tread)][0] for p in GRID_PRESSURES]
            assert seq[0] > seq[1] > seq[2], "patch length not decreasing in pressure"
    for load in loads:
        for pressure in GRID_PRESSURES:
            seq = [grid[(load, pressure, t)][0] for t in treads]
            assert seq[0] < seq[1] < seq[2], "patch length not shrinking with wear"
    worst_spread = 0.0
    for load in loads:
        for pressure in GRID_PRESSURES:
            dips = [grid[(load, pressure, t)][1] for t in treads]
            worst_spread = max(worst_spread, (max(dips) - min(dips)) / np.mean(dips))
    assert worst_spread < 0.05
    print(f"\nPASS criterion 3: strict monotonicity on 27-point grid; "
          f"radial tread spread {100 * worst_spread:.2f}% < 5%")


def test_criterion_4_sensitivity_shares():
    report = sensitivity_sweep(
        {"load": (800.0, 1500.0), "pressure": (29.0, 35.0), "tread": (2.0, 8.0)}
    )
    radial = report.shares["peak_radial_displacement"]
    patch = report.shares["contact_patch_length"]
    assert radial["load"] >= 80.0
    assert radial["pressure"] <= 15.0
    assert radial["tread"] <= 5.0
    assert patch["tread"] >= 15.0
    for shares in report.shares.values():
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)
    print(f"\nPASS criterion 4: radial load {radial['load']:.1f}% (>=80), "
          f"pressure {radial['pressure']:.1f}% (<=15), tread {radial['tread']:.1f}% "
          f"(<=5); patch tread {patch['tread']:.1f}% (>=15)")


def test_criterion_5_rls_matches_batch():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 100))
        y = rng.normal(1200.0, 80.0, n)
        estimates, covariances = rls(y, forgetting=1.0)
        assert np.all(covariances > 0.0)
        worst = max(worst, abs(estimates[-1] - y.mean()) / abs(y.mean()))
    assert worst < 1e-3
    print(f"\nPASS criterion 5: RLS(lambda=1) vs batch mean, worst "
          f"{100 * worst:.4f}% < 0.1%; covariance positive throughout")


def test_criterion_6_load_convergence(highway_models):
    surface, _ = highway_models
    scen = scenario(vehicle_speed=20.0)
    failures = 0
    errors, convergence = [], []
    for seed in range(SEEDS):
        rows = feature_rows(scen, 1000 + seed, turns=22, noise=25.0)
        result = estimate_load_stream(
            surface,
            np.array([r.peak_radial_displacement for r in rows]),
            scen.inflation_pressure,
        )
        error = abs(result.estimates_lbf[-1] - scen.vertical_load) / scen.vertical_load
        errors.append(error)
        convergence.append(convergence_turn(*result))
        if error > 0.026 or convergence[-1] > 20:
            failures += 1
    assert failures <= int(0.05 * SEEDS)
    print(f"\nPASS criterion 6: {SEEDS - failures}/{SEEDS} runs with error <= 2.6% "
          f"and convergence <= 20 (max error {100 * max(errors):.2f}%, "
          f"max convergence turn {max(convergence)})")


def test_dip_has_no_speed_bias(highway_models):
    # The 20 m/s calibration applied at 5 m/s, where a turn is four times
    # longer and its integrated noise larger: a dip taken at each noisy
    # profile's own maximum reads high there, and the load with it.
    surface, _ = highway_models
    scen = scenario(vehicle_speed=5.0)
    errors = []
    for seed in range(1, 7):
        rows = feature_rows(scen, seed, turns=100, noise=25.0)
        result = estimate_load_stream(
            surface, rows.peak_radial_displacement, scen.inflation_pressure
        )
        errors.append(abs(result.estimates_lbf[-1] - scen.vertical_load) / scen.vertical_load)
    assert max(errors) <= 0.026
    print("\nPASS dip bias: converged load errors at 5 m/s against a 20 m/s "
          f"calibration, seeds 1-6: {', '.join(f'{100 * e:.2f}%' for e in errors)} (<= 2.6%)")


def test_lateral_peak_has_no_noise_bias():
    # At 5 m/s a turn is four times longer than at 20 m/s and its integrated
    # noise larger: a peak taken at each noisy profile's own maximum reads
    # high there, and the slip with it.
    scen = scenario(vehicle_speed=5.0, slip_angle=3.0)
    clean = np.nanmean(feature_rows(scen, 1, turns=100, noise=0.0, lateral=True)
                       .peak_lateral_displacement)
    peaks = [np.nanmean(feature_rows(scen, seed, turns=100, noise=100.0, lateral=True)
                        .peak_lateral_displacement) for seed in range(1, 5)]
    bias = np.mean(peaks) / clean - 1.0
    assert abs(bias) <= 0.03
    print(f"\nPASS lateral bias: mean lateral peak at 5 m/s, 3 deg, noise 100, "
          f"seeds 1-4: {np.mean(peaks):.2f} mm against {clean:.2f} mm noise-free "
          f"({100 * bias:+.1f}%, within 3%); per seed "
          f"{', '.join(f'{100 * (p / clean - 1.0):+.1f}%' for p in peaks)}")


def test_criterion_7_baseline_ordering(rough_models):
    surface, patch = rough_models
    worn = scenario(vertical_load=1500.0, tread_depth=2.0, vehicle_speed=10.0)
    radial_errors, patch_errors = [], []
    for seed in range(SEEDS):
        rows = feature_rows(worn, 2000 + seed, turns=20, noise=WORN_NOISE)
        result = estimate_load_stream(
            surface,
            np.array([r.peak_radial_displacement for r in rows]),
            worn.inflation_pressure,
        )
        radial_errors.append(
            abs(result.estimates_lbf[-1] - worn.vertical_load) / worn.vertical_load
        )
        patch_estimates, _ = rls(patch.q0 + patch.q1 * rows.patch_length)
        patch_errors.append(
            abs(patch_estimates[-1] - worn.vertical_load) / worn.vertical_load
        )
    radial_errors = np.array(radial_errors)
    patch_errors = np.array(patch_errors)
    assert np.all(patch_errors > radial_errors), "ordering must hold on every seed"
    patch_mean = patch_errors.mean()
    radial_mean = radial_errors.mean()
    assert 0.0265 <= patch_mean <= 0.106  # 5.3% within a factor of two
    assert 0.013 <= radial_mean <= 0.052  # 2.6% within a factor of two
    print(f"\nPASS criterion 7: worn-tire patch error {100 * patch_mean:.2f}% "
          f"(band 2.65-10.6) > radial error {100 * radial_mean:.2f}% "
          f"(band 1.3-5.2) on all {SEEDS} seeds")


def test_criterion_8_slip_accuracy():
    train_angles = np.arange(0.0, 7.0)
    test_angles = np.arange(0.5, 6.0)
    per_trace = {}
    samples = []
    for i, angle in enumerate(train_angles):
        rows = feature_rows(
            scenario(slip_angle=float(angle)), 40 + i, turns=40, noise=25.0,
            lateral=True,
        )
        per_trace[angle] = rows
        samples.extend(
            (r.peak_lateral_displacement, r.lateral_slope, float(angle))
            for r in rows
        )
    model = fit_slip_model(samples)

    for feature in ("peak_lateral_displacement", "lateral_slope"):
        means = [
            np.mean([getattr(r, feature) for r in per_trace[a]]) for a in train_angles
        ]
        coef = np.polyfit(train_angles, means, 1)
        residual = np.array(means) - np.polyval(coef, train_angles)
        r_squared = 1 - residual.var() / np.var(means)
        assert r_squared >= 0.98

    worst = 0.0
    for j, angle in enumerate(test_angles):
        rows = feature_rows(
            scenario(slip_angle=float(angle)), 60 + j, turns=40, noise=25.0,
            lateral=True,
        )
        peak = np.mean([r.peak_lateral_displacement for r in rows])
        slope = np.mean([r.lateral_slope for r in rows])
        worst = max(worst, abs(predict_slip(model, peak, slope) - angle))
    assert worst <= 0.2
    print(f"\nPASS criterion 8: held-out slip error max {worst:.3f} deg <= 0.2; "
          f"both features linear with R^2 >= 0.98")


def test_criterion_9_round_trip_identity():
    from tiresense.estimation import LoadSurfaceModel, load_measurement

    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    while checked < 1000:
        p00, p01, p02 = rng.normal(0, 5), rng.normal(0, 1), rng.normal(0, 0.01)
        p10, p11 = rng.normal(0.02, 0.02), rng.normal(0, 5e-4)
        pressure = rng.uniform(29.0, 35.0)
        load = rng.uniform(0.0, 2000.0)
        if abs(p10 + p11 * pressure) < 1e-3 * max(abs(p10), 1e-6):
            continue
        model = LoadSurfaceModel(
            p00=p00, p10=p10, p01=p01, p11=p11, p02=p02, fit_residual_rms=0.0,
            load_range=(800.0, 1500.0), pressure_range=(29.0, 35.0),
        )
        y = load_measurement(model, model.forward(load, pressure), pressure)
        worst = max(worst, abs(y - load) / max(abs(load), 1.0))
        checked += 1
    assert worst < 1e-9
    print(f"\nPASS criterion 9: inversion identity on 1000 coefficient sets, "
          f"worst relative error {worst:.2e} < 1e-9")


def test_criterion_10_end_to_end_determinism(tmp_path):
    scen = scenario()
    sensor = SensorSpec(seed=7)
    write_scenario(tmp_path / "scenario.json", scen, sensor)
    outputs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"{tag}.csv"
        assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"),
                     "--turns", "6", "--out", str(trace)]) == 0
        calib = tmp_path / f"calib_{tag}"
        calib.mkdir()
        seed = 0
        for load in (800.0, 1150.0, 1500.0):
            for pressure in GRID_PRESSURES:
                seed += 1
                sub = scenario(vertical_load=load, inflation_pressure=pressure)
                sub_sensor = SensorSpec(seed=seed)
                tr, truth = simulate(sub, sub_sensor, 5)
                from tiresense.io import write_trace

                write_trace(calib / f"{int(load)}_{int(pressure)}.csv",
                            tr, truth, sub, sub_sensor)
        model = tmp_path / f"model_{tag}.json"
        assert main(["calibrate-load", "--traces", str(calib),
                     "--out", str(model)]) == 0
        est = tmp_path / f"est_{tag}.csv"
        assert main(["estimate", "--trace", str(trace), "--load-model", str(model),
                     "--out", str(est)]) == 0
        report = tmp_path / f"report_{tag}.json"
        assert main(["evaluate", "--estimates", str(est),
                     "--truth", str(tmp_path / f"{tag}.json"),
                     "--report", str(report)]) == 0
        outputs.append(
            (trace.read_bytes(), model.read_bytes(), est.read_bytes(),
             json.loads(report.read_text()))
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    assert outputs[0][3] == outputs[1][3]  # hashes included: inputs identical
    print("\nPASS criterion 10: simulate/calibrate/estimate/evaluate twice "
          "with the same seed produced byte-identical artifacts")
