import importlib
import tracemalloc

import numpy as np
import pytest

from tiresense import (
    ScenarioError,
    SensorSpec,
    derive_geometry,
    ground_truth,
    simulate,
)
from tiresense.simulate import AccelTrace, _liner_positions, _rolling, trace_rows

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
    np.testing.assert_allclose(
        truth.contact_half_angle_rad,
        np.arccos((geom.effective_radius - geom.deflection) / geom.effective_radius),
    )
    assert truth.wheel_period_s[0] == pytest.approx(
        2 * np.pi * geom.effective_radius / default_scenario.vehicle_speed, rel=1e-12
    )


def test_fixed_seed_reproduces_trace_bit_for_bit(default_scenario):
    sensor = SensorSpec(seed=42)
    a, _ = simulate(default_scenario, sensor, 2)
    b, _ = simulate(default_scenario, sensor, 2)
    assert np.array_equal(a.samples, b.samples)


def test_seed_irrelevant_without_noise(default_scenario):
    a, _ = simulate(default_scenario, SensorSpec(noise_std=0.0, seed=1), 2)
    b, _ = simulate(default_scenario, SensorSpec(noise_std=0.0, seed=999), 2)
    assert np.array_equal(a.samples, b.samples)


def test_sample_count_and_finiteness(default_scenario, noisy_sensor):
    trace, truth = simulate(default_scenario, noisy_sensor, 3)
    assert len(trace) == round(3 * truth.wheel_period_s[0] * trace.sample_rate)
    assert np.all(np.isfinite(trace.samples))
    assert truth.n_turns == 3


def test_resolution_error_on_coarse_sampling(default_scenario):
    slow = SensorSpec(sample_rate=100.0, noise_std=0.0)
    with pytest.raises(ScenarioError, match=r"^sample rate 100 Hz gives fewer than 20 samples "
                       r"per .* ms turn$"):
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


@pytest.mark.parametrize("n_turns", [
    pytest.param(2.5, id="2.5"),
    pytest.param(3.0, id="float-3"),
    pytest.param(np.float64(3.0), id="float64-3"),
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
])
def test_n_turns_must_be_a_whole_number(default_scenario, quiet_sensor, n_turns):
    # a count of turns is an integer, even where a float holds a whole number
    with pytest.raises(ScenarioError, match="^n_turns must be a whole number of at least 1$"):
        simulate(default_scenario, quiet_sensor, n_turns)


@pytest.mark.parametrize("n_turns", [pytest.param(3, id="int"), pytest.param(np.int64(3), id="int64")])
def test_trace_rows_overflow_to_inf(n_turns):
    # a count whose rows overflow reads inf, whatever integer type holds it
    assert trace_rows(scenario(unloaded_radius=1e300), 1e300, n_turns) == np.inf


def test_trace_invariants_enforced():
    with pytest.raises(ScenarioError):
        AccelTrace(sample_rate=100.0, samples=np.zeros((5, 2)))
    for value in (np.inf, 1e101):  # 1e101 is finite, but beyond MAX_ABS_SAMPLE
        bad = np.zeros((10, 3))
        bad[3, 1] = value
        with pytest.raises(ScenarioError, match="^row 3: "):
            AccelTrace(sample_rate=10.0, samples=bad)
    assert len(AccelTrace(sample_rate=10.0, samples=np.zeros((0, 3)))) == 0


def reference_samples(scen, sensor, n_turns):
    """simulate's samples by the plain formula: the channels stacked by
    column_stack, then noise and bias each added out of place.  The sine
    and cosine are taken of the interior angles alone, not sliced from the
    ones ``_liner_positions`` computes for every position."""
    geom, omega, period = _rolling(scen)
    fs = sensor.sample_rate
    n = round(n_turns * period * fs)
    dt = 1.0 / fs
    t_pos = (np.arange(n + 2) - 1.0) * dt
    x, y, z, _, _ = _liner_positions(t_pos, scen, geom, omega)
    psi = np.mod(np.pi - omega * t_pos + np.pi, 2.0 * np.pi) - np.pi
    ax = (x[2:] - 2.0 * x[1:-1] + x[:-2]) * fs * fs
    ay = (y[2:] - 2.0 * y[1:-1] + y[:-2]) * fs * fs
    az = (z[2:] - 2.0 * z[1:-1] + z[:-2]) * fs * fs
    sin_psi, cos_psi = np.sin(psi[1:-1]), np.cos(psi[1:-1])
    samples = np.column_stack([ax * cos_psi + az * sin_psi, ay,
                               -ax * sin_psi + az * cos_psi])
    rng = np.random.default_rng(sensor.seed)
    if sensor.noise_std > 0.0:
        samples = samples + rng.normal(0.0, sensor.noise_std, samples.shape)
    return samples + np.asarray(sensor.dc_bias, dtype=float)


@pytest.mark.parametrize(
    "slip, sensor, n_turns",
    [
        (0.0, SensorSpec(seed=7), 3),
        (2.5, SensorSpec(noise_std=0.0, dc_bias=(5.0, -3.0, 0.5), seed=1), 7),
        (-2.5, SensorSpec(sample_rate=7919.0, seed=11), 40),
        (1.0, SensorSpec(seed=5), 400),
        (0.5, SensorSpec(sample_rate=4001.0, seed=2), 2),
        (3.0, SensorSpec(sample_rate=9973.0, seed=4), 11),
    ],
)
def test_samples_match_reference_formula_bit_for_bit(slip, sensor, n_turns):
    trace, _ = simulate(scenario(slip_angle=slip), sensor, n_turns)
    expected = reference_samples(scenario(slip_angle=slip), sensor, n_turns)
    assert trace.samples.flags.c_contiguous
    assert trace.samples.shape == expected.shape
    assert trace.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_turns", [3, 40])
@pytest.mark.parametrize("sample_rate", [10000.0, 7919.0])
def test_bytes_do_not_depend_on_block_size(monkeypatch, n_turns, sample_rate):
    # A block edge that lost its neighbour sample would change the
    # acceleration there, and noise drawn other than in sample order (say
    # per channel) would put different draws on the rows of a short block.
    # the package attribute tiresense.simulate is the function, not the module
    simulate_module = importlib.import_module("tiresense.simulate")
    scen = scenario(slip_angle=-2.5)
    sensor = SensorSpec(sample_rate=sample_rate, dc_bias=(5.0, -3.0, 0.5), seed=3)
    expected, _ = simulate(scen, sensor, n_turns)
    n = len(expected)
    for block in (7, 1000, n - 1, n, n + 1):
        monkeypatch.setattr(simulate_module, "BLOCK_SAMPLES", block)
        trace, _ = simulate(scen, sensor, n_turns)
        assert trace.samples.tobytes() == expected.samples.tobytes(), block


def test_peak_memory_stays_within_one_and_a_quarter_traces(noisy_sensor):
    # tracemalloc sees numpy's buffers; the samples alone are one trace, and
    # the block temporaries add a small fraction of a 400-turn trace.
    tracemalloc.start()
    try:
        trace, _ = simulate(scenario(slip_angle=2.0), noisy_sensor, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * trace.samples.nbytes
