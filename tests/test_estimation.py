import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiresense import (
    DenominatorError,
    InvalidArgumentError,
    RankDeficiencyError,
    SensorSpec,
    TireScenario,
    simulate,
)
from tiresense.estimation import (
    SWEEP_POINTS,
    LoadSurfaceModel,
    SlipModel,
    convergence_turn,
    estimate_load_stream,
    fit_load_surface,
    fit_patch_load_model,
    fit_slip_model,
    load_measurement,
    predict_slip,
    rls,
    sensitivity_sweep,
)
from tiresense.features import extract_features
from tiresense.scenario import derive_geometry

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


def lstsq_fit(design_columns, target):
    """The coefficients and residual RMS of ``np.linalg.lstsq`` on a design."""
    design = np.column_stack(design_columns)
    coefficients = np.linalg.lstsq(design, target, rcond=None)[0]
    residual = target - design @ coefficients
    return [*coefficients.tolist(), float(np.sqrt(np.mean(residual**2)))]


def test_fits_return_the_lstsq_solution_of_their_design():
    rng = np.random.default_rng(17)
    load, pressure = rng.uniform(800, 1500, 25), rng.uniform(29, 35, 25)
    peak, length = rng.uniform(10, 30, 25), rng.uniform(0.15, 0.3, 25)
    slope, slip = rng.uniform(-0.1, 0.1, 25), rng.uniform(-6, 6, 25)
    ones = np.ones(25)

    surface = fit_load_surface(np.column_stack([load, pressure, peak]))
    assert [surface.p00, surface.p10, surface.p01, surface.p11, surface.p02,
            surface.fit_residual_rms] == lstsq_fit(
        [ones, load, pressure, load * pressure, pressure**2], peak)
    assert surface.load_range == (load.min(), load.max())
    assert surface.pressure_range == (pressure.min(), pressure.max())

    patch = fit_patch_load_model(np.column_stack([load, length]))
    assert [patch.q0, patch.q1, patch.fit_residual_rms] == lstsq_fit([ones, length], load)

    slip_model = fit_slip_model(np.column_stack([peak, slope, slip]))
    assert [slip_model.beta0, slip_model.beta1, slip_model.beta2,
            slip_model.fit_residual_rms] == lstsq_fit([ones, peak, slope], slip)
    assert slip_model.slip_range == (slip.min(), slip.max())


FITS = [(fit_load_surface, "load, pressure, peak"), (fit_patch_load_model, "load, patch_length"),
        (fit_slip_model, "peak, slope, slip")]


@pytest.mark.parametrize("fit, columns", FITS, ids=[fit.__name__ for fit, _ in FITS])
def test_fits_reject_too_few_rows_and_name_their_columns(fit, columns):
    width = len(columns.split(", "))
    for rows in (np.empty((0, width)), np.arange(1.0, width + 1.0)[None]):
        with pytest.raises(RankDeficiencyError):
            fit(rows)
    with pytest.raises(InvalidArgumentError, match=rf"^samples must be rows of \({columns}\)$"):
        fit(np.ones((10, width + 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.01e100, 1e308])
@pytest.mark.parametrize("fit, columns", FITS, ids=[fit.__name__ for fit, _ in FITS])
def test_fits_refuse_non_finite_samples(fit, columns, bad, capfd):
    # lstsq would not converge on them, with a LAPACK line on stderr, or
    # would return NaN coefficients; from about 1e154 the design's products
    # or the residual's squares overflow
    rows = np.random.default_rng(5).uniform(1.0, 2.0, (10, len(columns.split(", "))))
    rows[4] = bad
    with pytest.raises(InvalidArgumentError,
                       match=r"^samples must be finite and at most 1e\+100 in magnitude$"):
        fit(rows)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("fit, columns", FITS, ids=[fit.__name__ for fit, _ in FITS])
def test_a_fit_at_the_sample_bound_keeps_a_finite_residual(fit, columns):
    rng = np.random.default_rng(5)
    rows = rng.uniform(1.0, 2.0, (10, len(columns.split(", "))))
    target = 0 if fit is fit_patch_load_model else -1
    rows[:, target] = 1e100 * rng.uniform(0.5, 1.0, len(rows))
    assert math.isfinite(fit(rows).fit_residual_rms)


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
    # sensitivity zero at 32 psi only, and zero at every pressure
    for p10 in (1.0, 0.0):
        model = surface_from(0.0, p10, 0.0, -p10 / 32.0, 0.0)
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


def test_measurement_of_an_array_equals_the_scalar_calls():
    model = surface_from(-5.0, 0.02, 0.1, -2e-4, -1e-3)
    peaks = np.random.default_rng(3).uniform(5.0, 40.0, 200)
    peaks[[4, 9]] = np.nan, np.inf
    array = load_measurement(model, peaks, 31.7)
    scalars = np.array([load_measurement(model, float(p), 31.7) for p in peaks])
    assert np.array_equal(array, scalars, equal_nan=True)


# ---------------------------------------------------------------------------
# recursive least squares

def rls_reference(values, forgetting, covariance=1e6):
    """The per-step scalar update, one call per turn, skipping non-finite."""
    theta, estimates = 0.0, []
    for y in values:
        if np.isfinite(y):
            gain = covariance / (forgetting + covariance)
            theta = theta + gain * (y - theta)
            covariance = (covariance - gain * covariance) / forgetting
        estimates.append(theta)
    return np.array(estimates)


def test_rls_hand_iterated_example():
    estimates, _ = rls(np.full(20, 1000.0), forgetting=1.0)
    assert estimates[0] == pytest.approx(1000.0 * 1e6 / (1.0 + 1e6), rel=1e-12)
    assert 999.99 < estimates[0] < 1000.0
    assert estimates[-1] == pytest.approx(1000.0, rel=1e-4)


@pytest.mark.parametrize("forgetting", [0.9, 0.98, 1.0])
def test_rls_matches_scalar_reference_bit_for_bit(forgetting):
    rng = np.random.default_rng(11)
    values = rng.normal(1000.0, 50.0, 300)
    values[[0, 7, 100]] = np.nan
    values[[8, 150]] = np.inf
    values[[9, 299]] = -np.inf
    estimates, _ = rls(values, forgetting=forgetting)
    assert np.array_equal(estimates, rls_reference(values, forgetting))
    assert estimates[0] == 0.0  # a leading gap keeps the start value


def test_rls_matches_batch_least_squares():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(5, 100)
        y = rng.normal(1000.0, 50.0, n)
        estimates, covariances = rls(y, forgetting=1.0)
        assert np.all(covariances > 0.0)
        assert estimates[-1] == pytest.approx(np.mean(y), rel=1e-3)


@pytest.mark.parametrize("forgetting", [0.95, 0.98, 1.0])
def test_covariance_stays_positive_over_long_runs(forgetting):
    rng = np.random.default_rng(int(forgetting * 100))
    estimates, covariances = rls(rng.normal(1000.0, 100.0, 100_000), forgetting=forgetting)
    assert covariances.min() > 0.0
    assert np.isfinite(estimates[-1])


def test_rls_state_validation():
    for forgetting in (0.0, float("nan"), 1.5):
        with pytest.raises(InvalidArgumentError, match="forgetting factor"):
            rls([1000.0], forgetting=forgetting)
    # the first gain rounds to 1, so P collapses to 0 after one turn
    with pytest.raises(InvalidArgumentError, match="covariance must stay positive"):
        rls([1000.0], forgetting=1e-300)


def test_rls_overflow_raises():
    # y - theta overflows when measurements near the float limit change sign
    with pytest.raises(InvalidArgumentError, match="overflow"):
        rls([1.7e308, -1.7e308])


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
        model, np.array([r.peak_radial_displacement for r in rows]), 32.0
    )
    assert abs(result.estimates_lbf[-1] - 1000.0) / 1000.0 < 0.01
    assert convergence_turn(*result) <= 20
    assert result.valid.all()


def test_convergence_turn_refuses_no_estimate():
    with pytest.raises(InvalidArgumentError, match="^no estimate to converge$"):
        convergence_turn(np.zeros(0), np.zeros(0, dtype=bool))


def test_stream_skips_invalid_features():
    model = surface_from(0.0, 0.03, 0.0, 0.0, 0.0)
    peaks = np.array([30.0, np.nan, 30.0, np.inf, 30.0])
    result = estimate_load_stream(model, peaks, 32.0)
    assert list(result.valid) == [True, False, True, False, True]
    assert result.estimates_lbf[1] == result.estimates_lbf[0]  # carried forward


def test_stream_without_inversion_marks_every_turn_invalid():
    model = surface_from(0.0, 1.0, 0.0, -1.0 / 32.0, 0.0)  # no load term at 32 psi
    result = estimate_load_stream(model, np.array([5.0, 6.0, np.nan]), 32.0)
    assert not result.valid.any()
    assert np.array_equal(result.estimates_lbf, np.zeros(3))


# ---------------------------------------------------------------------------
# patch baseline

def test_patch_model_exact_fit_and_flagging():
    samples = [(600.0 + 4000.0 * length, length) for length in (0.18, 0.2, 0.22, 0.25)]
    model = fit_patch_load_model(samples)
    assert model.q0 == pytest.approx(600.0, rel=1e-9)
    assert model.q1 == pytest.approx(4000.0, rel=1e-9)
    assert model.fit_residual_rms == pytest.approx(0.0, abs=1e-9)


def test_patch_model_collinear_raises():
    with pytest.raises(RankDeficiencyError):
        fit_patch_load_model([(1000.0, 0.2), (1100.0, 0.2), (1200.0, 0.2)])


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

SWEEP_FEATURES = ("peak_radial_displacement", "contact_patch_length")


def swept_features(values):
    """The two swept features of the 0.3 m tire at factor ``values``."""
    geom = derive_geometry(TireScenario(
        unloaded_radius=0.3, vertical_load=values["load"],
        inflation_pressure=values["pressure"], tread_depth=values["tread"]))
    return geom.deflection_mm, geom.patch_chord


def reference_sweep(ranges):
    """The sweep as a loop over dicts of lists: (shares, spans, curves)."""
    center = {factor: 0.5 * (lo + hi) for factor, (lo, hi) in ranges.items()}
    spans = {f: {} for f in SWEEP_FEATURES}
    curves = {}
    for factor, (lo, hi) in ranges.items():
        values = dict(center)
        swept = {"value": [], **{feature: [] for feature in SWEEP_FEATURES}}
        for value in np.linspace(lo, hi, SWEEP_POINTS):
            values[factor] = float(value)
            swept["value"].append(values[factor])
            for feature, y in zip(SWEEP_FEATURES, swept_features(values)):
                swept[feature].append(y)
        for feature in SWEEP_FEATURES:
            spans[feature][factor] = float(max(swept[feature]) - min(swept[feature]))
        curves[factor] = swept
    shares = {}
    for feature in SWEEP_FEATURES:
        total = sum(spans[feature].values())
        if total > 0.0:
            shares[feature] = {
                factor: 100.0 * spans[feature][factor] / total
                for factor in ("load", "pressure", "tread")
            }
        else:
            shares[feature] = {factor: 0.0 for factor in ("load", "pressure", "tread")}
    return shares, spans, curves


@pytest.mark.parametrize("ranges", [
    TABLE_RANGES,
    {**TABLE_RANGES, "tread": (5.0, 5.0)},
    # Over these wide ranges the three patch spans sum to another last bit
    # in this key order than in the order load, pressure, tread.
    {"tread": (0.0, 8.0), "load": (100.0, 2000.0), "pressure": (20.0, 40.0)},
], ids=["criterion-4", "collapsed-tread", "tread-load-pressure"])
def test_sweep_matches_reference_bit_for_bit(ranges):
    shares, spans, curves = reference_sweep(ranges)
    report = sensitivity_sweep(ranges)
    assert report.shares == shares and report.spans == spans
    assert [list(span) for span in report.spans.values()] == [list(ranges)] * 2
    assert list(report.curves) == list(curves)
    for factor, curve in curves.items():
        expected = np.column_stack(
            [curve["value"], curve["peak_radial_displacement"], curve["contact_patch_length"]])
        assert report.curves[factor].tobytes() == expected.tobytes()
    # Each feature is monotone in each factor, so a span is the feature's
    # change between the range ends, however many points lie between.
    center = {factor: 0.5 * (lo + hi) for factor, (lo, hi) in ranges.items()}
    for factor, (lo, hi) in ranges.items():
        at_lo, at_hi = (swept_features({**center, factor: end}) for end in (lo, hi))
        for feature, y_lo, y_hi in zip(SWEEP_FEATURES, at_lo, at_hi):
            assert report.spans[feature][factor] == abs(y_hi - y_lo)


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
