import numpy as np
import pytest

from tiresense import (
    ResolutionError,
    ScenarioError,
    SensorSpec,
    derive_geometry,
    ground_truth,
    simulate,
)
from tiresense.simulate import AccelTrace

from conftest import scenario


def phase_angle(trace, scen):
    """Wrapped liner angle from the downward vertical at each sample."""
    geom = derive_geometry(scen)
    omega = scen.vehicle_speed / geom.effective_radius
    psi = np.pi - omega * np.arange(len(trace)) / trace.sample_rate
    return np.mod(psi + np.pi, 2 * np.pi) - np.pi


def test_zero_slip_lateral_channel_is_zero(default_scenario, quiet_sensor):
    trace, _ = simulate(default_scenario, quiet_sensor, 3)
    assert np.all(trace.a_lateral == 0.0)


def test_centripetal_level_outside_patch(default_scenario, quiet_sensor):
    trace, _ = simulate(default_scenario, quiet_sensor, 5)
    geom = derive_geometry(default_scenario)
    omega = default_scenario.vehicle_speed / geom.effective_radius
    psi = phase_angle(trace, default_scenario)
    outside = np.abs(psi) > 1.5 * geom.contact_half_angle
    level = trace.a_radial[outside].mean()
    assert level == pytest.approx(omega**2 * geom.effective_radius, rel=0.02)
    center = np.abs(psi) < 0.3 * geom.contact_half_angle
    assert np.abs(trace.a_radial[center]).max() < 0.05 * omega**2 * geom.effective_radius


def test_tangential_extrema_at_patch_edges(default_scenario, quiet_sensor):
    trace, truth = simulate(default_scenario, quiet_sensor, 4)
    geom = derive_geometry(default_scenario)
    omega = default_scenario.vehicle_speed / geom.effective_radius
    fs = trace.sample_rate
    period_samples = truth.wheel_period_s[0] * fs
    for k in range(4):
        lo = int(round(k * period_samples))
        hi = int(round((k + 1) * period_samples))
        turn = trace.a_tangential[lo:hi]
        entry = (np.pi - geom.contact_half_angle + 2 * np.pi * k) / omega * fs
        exit_ = (np.pi + geom.contact_half_angle + 2 * np.pi * k) / omega * fs
        assert abs(lo + np.argmax(turn) - entry) <= 2
        assert abs(lo + np.argmin(turn) - exit_) <= 2


def test_ground_truth_matches_geometry(default_scenario, quiet_sensor):
    trace, truth = simulate(default_scenario, quiet_sensor, 3)
    geom = derive_geometry(default_scenario)
    assert np.all(truth.true_deflection_mm == geom.deflection_mm)
    np.testing.assert_allclose(
        truth.contact_half_angle_rad,
        np.arccos((geom.effective_radius - geom.deflection) / geom.effective_radius),
    )
    np.testing.assert_allclose(
        truth.true_patch_chord_m,
        2 * geom.effective_radius * np.sin(truth.contact_half_angle_rad),
    )
    np.testing.assert_allclose(
        truth.true_patch_arc_m,
        2 * geom.effective_radius * truth.contact_half_angle_rad,
    )
    assert truth.wheel_period_s[0] == pytest.approx(
        2 * np.pi * geom.effective_radius / default_scenario.vehicle_speed, rel=1e-12
    )


def test_brush_truth_is_odd_in_slip(quiet_sensor):
    pos = simulate(scenario(slip_angle=3.0), quiet_sensor, 2)[1]
    neg = simulate(scenario(slip_angle=-3.0), quiet_sensor, 2)[1]
    geom = derive_geometry(scenario(slip_angle=3.0))
    expected = np.tan(np.radians(3.0)) * geom.patch_chord * 1e3
    assert pos.true_peak_lateral_mm[0] == pytest.approx(expected, rel=1e-12)
    assert neg.true_peak_lateral_mm[0] == pytest.approx(-expected, rel=1e-12)
    assert neg.true_lateral_slope[0] == -pos.true_lateral_slope[0]


def test_fixed_seed_reproduces_trace_bit_for_bit(default_scenario):
    sensor = SensorSpec(seed=42)
    a, _ = simulate(default_scenario, sensor, 2)
    b, _ = simulate(default_scenario, sensor, 2)
    assert np.array_equal(a.samples, b.samples)


def test_seed_irrelevant_without_noise(default_scenario):
    a, ta = simulate(default_scenario, SensorSpec(noise_std=0.0, seed=1), 2)
    b, tb = simulate(default_scenario, SensorSpec(noise_std=0.0, seed=999), 2)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(ta.true_patch_chord_m, tb.true_patch_chord_m)


def test_sample_count_and_finiteness(default_scenario, noisy_sensor):
    trace, truth = simulate(default_scenario, noisy_sensor, 3)
    assert len(trace) == round(3 * truth.wheel_period_s[0] * trace.sample_rate)
    assert np.all(np.isfinite(trace.samples))
    assert truth.n_turns == 3


def test_resolution_error_on_coarse_sampling(default_scenario):
    slow = SensorSpec(sample_rate=100.0, noise_std=0.0)
    with pytest.raises(ResolutionError):
        simulate(default_scenario, slow, 1)


def test_geometry_error_propagates(quiet_sensor):
    with pytest.raises(Exception) as info:
        simulate(scenario(vertical_load=20000.0), quiet_sensor, 1)
    assert "degenerate" in str(info.value) or "radius" in str(info.value)


def test_n_turns_must_be_positive(default_scenario, quiet_sensor):
    with pytest.raises(ScenarioError):
        simulate(default_scenario, quiet_sensor, 0)
    with pytest.raises(ScenarioError):
        ground_truth(default_scenario, 0)


def test_trace_invariants_enforced():
    with pytest.raises(ScenarioError):
        AccelTrace(sample_rate=100.0, samples=np.zeros((5, 2)))
    bad = np.zeros((10, 3))
    bad[3, 1] = np.inf
    with pytest.raises(ScenarioError):
        AccelTrace(sample_rate=10.0, samples=bad)
