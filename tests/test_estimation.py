import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiresense import DenominatorError, RankDeficiencyError, SensorSpec, simulate
from tiresense.estimation import (
    LoadSurfaceModel,
    RlsState,
    SlipModel,
    estimate_load_patch,
    estimate_load_stream,
    fit_load_surface,
    fit_patch_load_model,
    fit_slip_model,
    load_measurement,
    predict_slip,
    rls_update,
    sensitivity_sweep,
)
from tiresense.features import extract_features

from conftest import scenario

TABLE_RANGES = {"load": (800.0, 1500.0), "pressure": (29.0, 35.0), "tread": (2.0, 8.0)}


def surface_from(p00, p10, p01, p11, p02):
    return LoadSurfaceModel(
        p00=p00, p10=p10, p01=p01, p11=p11, p02=p02,
        fit_residual_rms=0.0, load_range=(800.0, 1500.0), pressure_range=(29.0, 35.0),
    )


# ---------------------------------------------------------------------------
# load surface

def test_exact_surface_recovery():
    true = (-5.0, 0.02, 0.1, -2e-4, -1e-3)
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(30):
        load = rng.uniform(800, 1500)
        pressure = rng.uniform(29, 35)
        peak = (
            true[0] + true[1] * load + true[2] * pressure
            + true[3] * load * pressure + true[4] * pressure**2
        )
        samples.append((load, pressure, peak))
    model = fit_load_surface(samples)
    for got, want in zip(
        (model.p00, model.p10, model.p01, model.p11, model.p02), true
    ):
        assert got == pytest.approx(want, rel=1e-6)


def test_simulated_grid_residual_small():
    sensor = SensorSpec(noise_std=0.0, dc_bias=(5.0, 5.0, 5.0), seed=1)
    samples = []
    for load in (800.0, 1150.0, 1500.0):
        for pressure in (29.0, 32.0, 35.0):
            scen = scenario(vertical_load=load, inflation_pressure=pressure)
            trace, _ = simulate(scen, sensor, 4)
            rows, _ = extract_features(trace, 20.0, 0.3, include_lateral=False)
            for r in rows:
                samples.append((load, pressure, r.peak_radial_displacement))
    model = fit_load_surface(samples)
    peaks = [s[2] for s in samples]
    assert model.fit_residual_rms < 0.05 * (max(peaks) - min(peaks))


def test_single_pressure_is_rank_deficient():
    samples = [(load, 32.0, 0.03 * load) for load in (800.0, 1000.0, 1200.0, 1400.0)]
    with pytest.raises(RankDeficiencyError):
        fit_load_surface(samples)


# ---------------------------------------------------------------------------
# measurement inversion

def test_forward_example_value():
    model = surface_from(-5.0, 0.02, 0.1, -2e-4, -1e-3)
    assert model.forward(1000.0, 32.0) == pytest.approx(10.776, abs=1e-9)


def test_measurement_inverts_forward_exactly():
    model = surface_from(-5.0, 0.02, 0.1, -2e-4, -1e-3)
    y = load_measurement(model, model.forward(1000.0, 32.0), 32.0)
    assert y == pytest.approx(1000.0, rel=1e-12)


def test_zero_load_peak_maps_to_zero():
    model = surface_from(-5.0, 0.02, 0.1, -2e-4, -1e-3)
    y = load_measurement(model, model.forward(0.0, 30.0), 30.0)
    assert y == pytest.approx(0.0, abs=1e-9)


def test_vanishing_denominator_raises():
    model = surface_from(0.0, 1.0, 0.0, -1.0 / 32.0, 0.0)
    with pytest.raises(DenominatorError):
        load_measurement(model, 5.0, 32.0)


def test_round_trip_identity_random_coefficients():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 1000:
        p00, p01, p02 = rng.normal(0, 5), rng.normal(0, 1), rng.normal(0, 0.01)
        p10, p11 = rng.normal(0.02, 0.02), rng.normal(0, 5e-4)
        pressure = rng.uniform(29, 35)
        load = rng.uniform(0, 2000)
        if abs(p10 + p11 * pressure) < 1e-3 * max(abs(p10), 1e-6):
            continue  # invertibility invariant excluded
        model = surface_from(p00, p10, p01, p11, p02)
        y = load_measurement(model, model.forward(load, pressure), pressure)
        assert y == pytest.approx(load, rel=1e-9, abs=1e-9)
        checked += 1


# ---------------------------------------------------------------------------
# recursive least squares

def test_rls_hand_iterated_example():
    state = RlsState(theta=0.0, covariance=1e6, forgetting=1.0)
    state = rls_update(state, 1000.0)
    assert state.theta == pytest.approx(1000.0 * 1e6 / (1.0 + 1e6), rel=1e-12)
    assert 999.99 < state.theta < 1000.0
    for _ in range(19):
        state = rls_update(state, 1000.0)
    assert state.theta == pytest.approx(1000.0, rel=1e-4)


def test_rls_fixed_point():
    state = RlsState(theta=750.0, covariance=100.0, forgetting=0.98)
    updated = rls_update(state, 750.0)
    assert updated.theta == pytest.approx(750.0, rel=1e-12)


def test_rls_matches_batch_least_squares():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(5, 100)
        y = rng.normal(1000.0, 50.0, n)
        state = RlsState(theta=0.0, covariance=1e6, forgetting=1.0)
        for value in y:
            state = rls_update(state, value)
            assert state.covariance > 0.0
        assert state.theta == pytest.approx(np.mean(y), rel=1e-3)


@pytest.mark.parametrize("forgetting", [0.95, 0.98, 1.0])
def test_covariance_stays_positive_over_long_runs(forgetting):
    rng = np.random.default_rng(int(forgetting * 100))
    state = RlsState(theta=0.0, covariance=1e6, forgetting=forgetting)
    low = np.inf
    for value in rng.normal(1000.0, 100.0, 100_000):
        state = rls_update(state, value)
        low = min(low, state.covariance)
    assert low > 0.0
    assert np.isfinite(state.theta)


def test_rls_state_validation():
    with pytest.raises(ValueError):
        RlsState(forgetting=0.0)
    with pytest.raises(ValueError):
        RlsState(covariance=-1.0)


# ---------------------------------------------------------------------------
# load stream

def test_noise_free_stream_reaches_calibration_floor():
    sensor = SensorSpec(noise_std=0.0, dc_bias=(5.0, 5.0, 5.0), seed=1)
    samples = []
    for load in (800.0, 1150.0, 1500.0):
        for pressure in (29.0, 32.0, 35.0):
            trace, _ = simulate(
                scenario(vertical_load=load, inflation_pressure=pressure), sensor, 4
            )
            rows, _ = extract_features(trace, 20.0, 0.3, include_lateral=False)
            samples.extend(
                (load, pressure, r.peak_radial_displacement) for r in rows
            )
    model = fit_load_surface(samples)
    trace, _ = simulate(scenario(vertical_load=1000.0), sensor, 12)
    rows, _ = extract_features(trace, 20.0, 0.3, include_lateral=False)
    result = estimate_load_stream(
        model,
        np.array([r.peak_radial_displacement for r in rows]),
        np.full(len(rows), 32.0),
    )
    assert abs(result.converged_estimate - 1000.0) / 1000.0 < 0.01
    assert result.convergence_turn <= 20
    assert result.skipped_turns == 0


def test_stream_skips_invalid_features():
    model = surface_from(0.0, 0.03, 0.0, 0.0, 0.0)
    peaks = np.array([30.0, np.nan, 30.0, np.inf, 30.0])
    result = estimate_load_stream(model, peaks, np.full(5, 32.0))
    assert result.skipped_turns == 2
    assert list(result.valid) == [True, False, True, False, True]
    assert result.estimates_lbf[1] == result.estimates_lbf[0]  # carried forward


# ---------------------------------------------------------------------------
# patch baseline

def test_patch_model_exact_fit_and_flagging():
    samples = [(600.0 + 4000.0 * length, length) for length in (0.18, 0.2, 0.22, 0.25)]
    model = fit_patch_load_model(samples, 32.0, 8.0)
    assert model.q0 == pytest.approx(600.0, rel=1e-9)
    assert model.q1 == pytest.approx(4000.0, rel=1e-9)
    inside, in_range = estimate_load_patch(model, 0.21)
    assert in_range
    assert inside == pytest.approx(600.0 + 4000.0 * 0.21, rel=1e-12)
    zero, in_range = estimate_load_patch(model, 0.0)
    assert not in_range  # extrapolation is flagged
    assert zero == pytest.approx(model.q0, rel=1e-12)


def test_patch_model_collinear_raises():
    with pytest.raises(RankDeficiencyError):
        fit_patch_load_model([(1000.0, 0.2), (1100.0, 0.2), (1200.0, 0.2)], 32.0, 8.0)


# ---------------------------------------------------------------------------
# slip regression

def test_slip_exact_recovery():
    rng = np.random.default_rng(5)
    beta = (0.1, 0.25, 12.0)
    samples = []
    for _ in range(20):
        peak, slope = rng.uniform(0, 25), rng.uniform(0, 0.12)
        samples.append((peak, slope, beta[0] + beta[1] * peak + beta[2] * slope))
    model = fit_slip_model(samples)
    assert model.beta0 == pytest.approx(beta[0], rel=1e-6)
    assert model.beta1 == pytest.approx(beta[1], rel=1e-6)
    assert model.beta2 == pytest.approx(beta[2], rel=1e-6)


def test_slip_zero_features_predict_intercept():
    # unbiased training: slip 0 comes with zero features, so beta0 is ~0 and
    # the all-zero-feature prediction lands on it
    samples = [(peak, peak / 100.0, 0.3 * peak) for peak in (0.0, 5.0, 10.0, 20.0)]
    samples += [(7.0, 0.02, 2.1), (15.0, 0.09, 4.6)]
    model = fit_slip_model(samples)
    assert abs(model.beta0) < 0.1
    assert predict_slip(model, 0.0, 0.0) == pytest.approx(model.beta0, abs=1e-9)


def test_slip_prediction_clamped():
    model = SlipModel(
        beta0=0.0, beta1=1.0, beta2=0.0, fit_residual_rms=0.0, slip_range=(0.0, 6.0)
    )
    assert predict_slip(model, 100.0, 0.0) == pytest.approx(7.2)
    assert predict_slip(model, -100.0, 0.0) == pytest.approx(-1.2)


def test_slip_prediction_on_arrays_matches_scalar_calls():
    model = SlipModel(
        beta0=0.3, beta1=0.25, beta2=11.0, fit_residual_rms=0.1, slip_range=(0.0, 6.0)
    )
    peaks = np.array([0.0, 3.7, 100.0, -100.0, np.nan, 5.0, 1e-3])
    slopes = np.array([0.0, 0.021, 0.0, 0.0, 0.01, np.nan, -0.3])
    batched = predict_slip(model, peaks, slopes)
    scalars = [predict_slip(model, p, s) for p, s in zip(peaks.tolist(), slopes.tolist())]
    assert batched.shape == peaks.shape
    assert batched.tobytes() == np.array(scalars).tobytes()  # NaN bits too
    assert np.isnan(batched[4:6]).all()


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.1, 10.0))
def test_slip_prediction_equivariant_under_feature_scaling(scale):
    rng = np.random.default_rng(9)
    samples = [
        (peak, slope, 0.2 + 0.25 * peak + 11.0 * slope)
        for peak, slope in rng.uniform(0.0, 1.0, (12, 2)) * [20.0, 0.1]
    ]
    scaled = [(peak * scale, slope * scale, slip) for peak, slope, slip in samples]
    base = fit_slip_model(samples)
    rescaled = fit_slip_model(scaled)
    for peak, slope, _ in samples[:4]:
        assert predict_slip(rescaled, peak * scale, slope * scale) == pytest.approx(
            predict_slip(base, peak, slope), rel=1e-6
        )


# ---------------------------------------------------------------------------
# sensitivity sweep

def test_sensitivity_shares_sum_to_100():
    report = sensitivity_sweep(TABLE_RANGES)
    for feature, shares in report.shares.items():
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)


def test_sensitivity_table_bands():
    report = sensitivity_sweep(TABLE_RANGES)
    radial = report.shares["peak_radial_displacement"]
    assert 80.0 <= radial["load"] <= 90.0
    assert 10.0 <= radial["pressure"] <= 15.0
    assert radial["tread"] < 5.0
    patch = report.shares["contact_patch_length"]
    assert patch["load"] == max(patch.values())  # load effect dominates
    assert 15.0 <= patch["tread"] <= 20.0


def test_collapsed_range_has_zero_share():
    ranges = dict(TABLE_RANGES)
    ranges["tread"] = (5.0, 5.0)
    report = sensitivity_sweep(ranges)
    assert report.shares["contact_patch_length"]["tread"] == 0.0
    assert report.shares["peak_radial_displacement"]["tread"] == 0.0


def test_sweep_requires_all_factors():
    with pytest.raises(ValueError):
        sensitivity_sweep({"load": (800.0, 1500.0)})
