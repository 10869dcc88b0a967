import numpy as np
import pytest

from tiresense import EdgeOrderError, SensorSpec, derive_geometry, simulate
from tiresense.dsp import (
    DisplacementProfile,
    _patch_edges,
    detect_patch_edges,
    estimate_period,
    segment_turns,
)
from tiresense.features import (
    extract_features,
    lateral_features,
    patch_length,
    peak_radial_displacement,
)
from tiresense.simulate import AccelTrace

from conftest import scenario

QUIET = SensorSpec(noise_std=0.0, dc_bias=(5.0, 5.0, 5.0), seed=1)


def features_of(scen, sensor=QUIET, turns=6, lateral=False):
    trace, _ = simulate(scen, sensor, turns)
    rows, skipped = extract_features(
        trace, scen.vehicle_speed, scen.unloaded_radius, include_lateral=lateral
    )
    assert skipped == 0
    return rows


def test_patch_length_formula():
    assert patch_length((100, 210), 20.0, 10_000.0) == pytest.approx(0.22, rel=1e-12)


def test_patch_length_tracks_patch_arc():
    scen = scenario(vehicle_speed=20.0)
    geom = derive_geometry(scen)
    rows = features_of(scen)
    measured = np.mean([r.patch_length for r in rows])
    assert measured == pytest.approx(geom.patch_arc, rel=0.02)


def test_patch_length_increases_with_load():
    lengths = []
    for load in np.linspace(800, 1500, 5):
        rows = features_of(scenario(vertical_load=load, vehicle_speed=10.0))
        lengths.append(np.mean([r.patch_length for r in rows]))
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


def test_peak_radial_tracks_deflection_linearly():
    deflections, dips = [], []
    for load in np.linspace(800, 1500, 6):
        scen = scenario(vertical_load=load)
        rows = features_of(scen)
        deflections.append(derive_geometry(scen).deflection_mm)
        dips.append(np.mean([r.peak_radial_displacement for r in rows]))
    coef = np.polyfit(deflections, dips, 1)
    residual = np.array(dips) - np.polyval(coef, deflections)
    r_squared = 1 - residual.var() / np.var(dips)
    assert r_squared >= 0.98


def test_flat_profile_has_zero_dip():
    profile = DisplacementProfile(samples=np.zeros(500))
    assert peak_radial_displacement(profile, (200, 300)) == 0.0


def test_peak_radial_nearly_tread_blind():
    fresh = features_of(scenario(tread_depth=8.0))
    worn = features_of(scenario(tread_depth=2.0))
    dip_fresh = np.mean([r.peak_radial_displacement for r in fresh])
    dip_worn = np.mean([r.peak_radial_displacement for r in worn])
    assert abs(dip_worn - dip_fresh) / dip_fresh < 0.05


def test_sensitivity_ordering_on_measured_features():
    # load moves the patch length far more than tread does, but tread still
    # has a strictly positive effect; the radial dip barely notices tread
    base = dict(vehicle_speed=10.0)
    length = lambda **kw: np.mean(
        [r.patch_length for r in features_of(scenario(**base, **kw))]
    )
    load_span = abs(length(vertical_load=1500.0) - length(vertical_load=800.0))
    tread_span = abs(length(tread_depth=8.0) - length(tread_depth=2.0))
    assert load_span > tread_span > 0.0


def test_lateral_peak_matches_brush_model():
    # load chosen so the patch chord is 0.2 m: true peak tan(2 deg) * 200 mm
    scen = scenario(vertical_load=771.4, slip_angle=2.0)
    geom = derive_geometry(scen)
    assert geom.patch_chord == pytest.approx(0.2, abs=5e-4)
    rows = features_of(scen, lateral=True)
    peak = np.mean([r.peak_lateral_displacement for r in rows])
    true_peak = np.tan(np.radians(2.0)) * geom.patch_chord * 1e3
    assert true_peak == pytest.approx(6.984, abs=2e-3)
    assert peak == pytest.approx(true_peak, rel=0.10)


def test_zero_slip_lateral_features_vanish():
    rows = features_of(scenario(slip_angle=0.0), lateral=True)
    assert np.mean([r.peak_lateral_displacement for r in rows]) < 0.05
    assert abs(np.mean([r.lateral_slope for r in rows])) < 1e-3


def test_slip_sweep_monotone_and_linear():
    slips = np.arange(0.0, 6.5, 1.0)
    peaks, slopes = [], []
    for slip in slips:
        rows = features_of(scenario(slip_angle=slip), lateral=True, turns=4)
        peaks.append(np.mean([r.peak_lateral_displacement for r in rows]))
        slopes.append(np.mean([r.lateral_slope for r in rows]))
    assert all(a < b for a, b in zip(peaks, peaks[1:]))
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    for values in (peaks, slopes):
        coef = np.polyfit(slips, values, 1)
        residual = np.array(values) - np.polyval(coef, slips)
        assert 1 - residual.var() / np.var(values) >= 0.98


def test_lateral_features_odd_in_slip():
    pos = features_of(scenario(slip_angle=4.0), lateral=True, turns=4)
    neg = features_of(scenario(slip_angle=-4.0), lateral=True, turns=4)
    peak_pos = np.mean([r.peak_lateral_displacement for r in pos])
    peak_neg = np.mean([r.peak_lateral_displacement for r in neg])
    slope_pos = np.mean([r.lateral_slope for r in pos])
    slope_neg = np.mean([r.lateral_slope for r in neg])
    assert peak_neg == pytest.approx(peak_pos, rel=0.01)  # magnitude, even
    assert slope_neg == pytest.approx(-slope_pos, rel=0.01)  # signed, odd


def test_features_deterministic_for_fixed_seed():
    scen = scenario()
    sensor = SensorSpec(seed=3)
    first = features_of(scen, sensor=sensor, turns=4)
    second = features_of(scen, sensor=sensor, turns=4)
    assert [r.peak_radial_displacement for r in first] == [
        r.peak_radial_displacement for r in second
    ]
    assert [r.patch_length for r in first] == [r.patch_length for r in second]


def test_failed_turn_keeps_row_with_nan_features():
    # wreck one turn's tangential channel: its edges cannot be detected, but
    # the row survives (NaN) so tables stay aligned with the turn count
    scen = scenario()
    trace, truth = simulate(scen, QUIET, 6)
    samples = trace.samples.copy()
    period = round(truth.wheel_period_s[0] * trace.sample_rate)
    samples[2 * period : 3 * period, 0] = 0.0
    from tiresense.simulate import AccelTrace

    broken = AccelTrace(
        sample_rate=trace.sample_rate, samples=samples, duration=trace.duration
    )
    rows, skipped = extract_features(broken, 20.0, 0.3, include_lateral=False)
    assert len(rows) == 6
    assert skipped == 1
    assert np.isnan(rows[2].patch_length)
    assert np.isnan(rows[2].peak_radial_displacement)
    assert all(np.isfinite(r.patch_length) for i, r in enumerate(rows) if i != 2)


def test_noise_only_turn_is_skipped():
    # a turn whose tangential channel carries only sensor-level noise has no
    # entry or exit spike; its largest noise samples are not patch edges
    scen = scenario()
    trace, truth = simulate(scen, SensorSpec(noise_std=25.0, seed=31), 5)
    period = round(truth.wheel_period_s[0] * trace.sample_rate)
    for seed in range(10):
        samples = trace.samples.copy()
        samples[period : 2 * period, 0] = np.random.default_rng(seed).normal(
            0.0, 25.0, period
        )
        noisy = AccelTrace(trace.sample_rate, samples, trace.duration)
        rows, skipped = extract_features(noisy, 20.0, 0.3, include_lateral=False)
        assert len(rows) == 5
        assert skipped == 1, f"seed {seed}"
        assert np.isnan(rows[1].patch_length)
        assert all(np.isfinite(r.patch_length) for i, r in enumerate(rows) if i != 1)


def test_edge_batch_matches_each_turn_and_extract_features_skips_the_rest():
    # healthy turns mixed with one turn per rejection rule, each written over
    # the tangential channel of its own segment (the radial channel, which
    # segment_turns reads, is untouched)
    scen = scenario()
    trace, _ = simulate(scen, QUIET, 10)
    segments = segment_turns(trace, estimate_period(trace, 20.0, 0.3))
    length = len(segments[0])  # 942: 9-sample smoothing, 471 = half a turn
    wiggle = np.where(np.arange(length) % 2, 1.0, -1.0)  # MAD 1: floor 14.8

    def spikes(entry, exit_, height):
        turn = wiggle.copy()
        turn[entry] += height
        turn[exit_] -= height
        return turn

    samples = trace.samples.copy()
    broken = {
        1: (1, lambda turn: -turn, "do not bracket a patch"),
        3: (2, lambda turn: spikes(3, 300, 100.0), "window end"),
        5: (3, lambda turn: spikes(400, 405, 100.0), "no wider than"),
        7: (4, lambda turn: spikes(300, 500, 5.0), "noise floor"),
    }
    for index, (_, make, _) in broken.items():
        start = segments[index].start_index
        samples[start : start + length, 0] = make(samples[start : start + length, 0])
    mixed = AccelTrace(trace.sample_rate, samples, trace.duration)

    batch = np.stack([mixed.a_tangential[s.start_index : s.end_index] for s in segments])
    edges = _patch_edges(batch)
    expected = [broken[i][0] if i in broken else 0 for i in range(len(segments))]
    assert edges.failed.tolist() == expected
    for index, turn in enumerate(batch):
        if index in broken:
            with pytest.raises(EdgeOrderError, match=broken[index][2]):
                detect_patch_edges(turn)
        else:
            single = detect_patch_edges(turn)
            assert (edges.leading[index], edges.trailing[index]) == single

    rows, skipped = extract_features(mixed, 20.0, 0.3)
    assert skipped == len(broken)
    nan_rows = [i for i, r in enumerate(rows) if np.isnan(r.patch_length)]
    assert nan_rows == sorted(broken)
    for i in broken:
        assert np.isnan(rows[i].peak_radial_displacement)
        assert np.isnan(rows[i].lateral_slope)


def test_lateral_features_signature():
    # synthetic triangle profile: slope of the first 30% is recovered
    n = 400
    profile_samples = np.zeros(n)
    lead, trail = 100, 200
    profile_samples[lead:trail] = np.linspace(0.0, 10.0, trail - lead)
    profile = DisplacementProfile(profile_samples)
    peak, slope = lateral_features(profile, (lead, trail), 20.0, 10_000.0)
    assert peak == pytest.approx(10.0, rel=1e-6)
    travel_per_sample_mm = 20.0 / 10_000.0 * 1e3
    expected_slope = (10.0 / (trail - lead)) / travel_per_sample_mm
    assert slope == pytest.approx(expected_slope, rel=0.05)
