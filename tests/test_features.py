import tracemalloc

import numpy as np
import pytest

from tiresense import SensorSpec, derive_geometry, simulate
from tiresense.dsp import (
    _line_slope,
    accel_to_displacement,
    detect_patch_edges,
    estimate_period,
    segment_turns,
)
from tiresense.features import FEATURE_FIELDS, extract_features, lateral_features
from tiresense.simulate import AccelTrace

from conftest import edges_of, scenario

QUIET = SensorSpec(noise_std=0.0, dc_bias=(5.0, 5.0, 5.0), seed=1)


def features_of(scen, sensor=QUIET, turns=6, lateral=False):
    trace, _ = simulate(scen, sensor, turns)
    rows, skipped = extract_features(
        trace, scen.vehicle_speed, scen.unloaded_radius, include_lateral=lateral
    )
    assert skipped == 0
    return rows


# Per-turn references for the batched features: one turn's profile and its
# (leading, trailing) edges in, one number (or pair) out.

def reference_patch_length(edges, wheel_speed, sample_rate):
    leading, trailing = edges
    return wheel_speed * (trailing - leading) / sample_rate


def reference_peak_radial(profile, edges):
    # relative to the profile maximum, so invariant to detrending
    leading, trailing = edges
    return float(np.max(profile) - profile[(leading + trailing) // 2])


def reference_lateral(profile, edges, wheel_speed, sample_rate):
    leading, trailing = edges
    patch_samples = trailing - leading
    search_end = min(len(profile), trailing + patch_samples)
    peak = float(np.max(np.abs(profile[leading:search_end])))
    fit_n = max(2, int(round(0.3 * patch_samples)))
    segment = profile[leading : leading + fit_n]
    slope = float(_line_slope(segment)) / (wheel_speed / sample_rate * 1e3)
    return peak, slope


def test_patch_length_formula():
    assert reference_patch_length((100, 210), 20.0, 10_000.0) == pytest.approx(
        0.22, rel=1e-12
    )


def test_flat_profile_has_zero_dip():
    assert reference_peak_radial(np.zeros(500), (200, 300)) == 0.0


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

    broken = AccelTrace(sample_rate=trace.sample_rate, samples=samples)
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
        noisy = AccelTrace(trace.sample_rate, samples)
        rows, skipped = extract_features(noisy, 20.0, 0.3, include_lateral=False)
        assert len(rows) == 5
        assert skipped == 1, f"seed {seed}"
        assert np.isnan(rows[1].patch_length)
        assert all(np.isfinite(r.patch_length) for i, r in enumerate(rows) if i != 1)


def broken_turn_trace(slip_angle=0.0):
    """A 10-turn trace with one turn broken per edge rule: healthy turns
    mixed with turns whose tangential channel is written over (the radial
    channel, which segment_turns reads, is untouched).  Returns the trace,
    its segments and {turn: (rule, make)}."""
    trace, _ = simulate(scenario(slip_angle=slip_angle), QUIET, 10)
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
        1: (1, lambda turn: -turn),
        3: (2, lambda turn: spikes(3, 300, 100.0)),
        5: (3, lambda turn: spikes(400, 405, 100.0)),
        7: (4, lambda turn: spikes(300, 500, 5.0)),
    }
    for index, (_, make) in broken.items():
        start = segments[index].start_index
        samples[start : start + length, 0] = make(samples[start : start + length, 0])
    mixed = AccelTrace(trace.sample_rate, samples)
    return mixed, segments, broken


def test_edge_batch_matches_each_turn_and_extract_features_skips_the_rest():
    mixed, segments, broken = broken_turn_trace()
    batch = np.stack([mixed.a_tangential[s.start_index : s.end_index] for s in segments])
    edges = detect_patch_edges(batch)
    expected = [broken[i][0] if i in broken else 0 for i in range(len(segments))]
    assert edges.failed.tolist() == expected
    # each row on its own gives the same edges, rule and spike heights
    for index, turn in enumerate(batch):
        single = detect_patch_edges(turn[None])
        assert [field[0] for field in single] == [field[index] for field in edges]

    rows, skipped = extract_features(mixed, 20.0, 0.3)
    assert skipped == len(broken)
    nan_rows = [i for i, r in enumerate(rows) if np.isnan(r.patch_length)]
    assert nan_rows == sorted(broken)
    for i in broken:
        assert np.isnan(rows[i].peak_radial_displacement)
        assert np.isnan(rows[i].lateral_slope)


def test_extract_features_matches_per_turn_reference():
    mixed, segments, broken = broken_turn_trace(slip_angle=3.0)
    table, skipped = extract_features(mixed, 20.0, 0.3, include_lateral=True)
    assert table.dtype.names == FEATURE_FIELDS
    assert skipped == len(broken)
    # every turn keeps its number, the skipped ones included
    assert table.turn_index.tolist() == list(range(len(segments)))

    fs, length = mixed.sample_rate, len(segments[0])
    turns = np.stack([mixed.samples[s.start_index : s.end_index] for s in segments])
    radial = accel_to_displacement(-turns[:, :, 2], fs, fs / length)
    lateral = accel_to_displacement(turns[:, :, 1], fs, fs / length)
    for i, row in enumerate(table):
        features = [row[name] for name in FEATURE_FIELDS[1:]]
        if i in broken:
            assert np.isnan(features).all()
            continue
        edges = edges_of(turns[i, :, 0])
        peak, slope = reference_lateral(lateral[i], edges, 20.0, fs)
        assert row.patch_length == reference_patch_length(edges, 20.0, fs)
        assert row.peak_radial_displacement == reference_peak_radial(radial[i], edges)
        assert row.peak_lateral_displacement == peak
        assert row.lateral_slope == pytest.approx(slope, rel=1e-12, abs=0.0)
        assert abs(slope) > 1e-3  # a slip-angle trace: the relative bound bites

    without, _ = extract_features(mixed, 20.0, 0.3, include_lateral=False)
    healthy = [i for i in range(len(segments)) if i not in broken]
    assert (without.peak_lateral_displacement[healthy] == 0.0).all()
    assert (without.lateral_slope[healthy] == 0.0).all()
    assert np.isnan(without.lateral_slope[sorted(broken)]).all()
    assert np.array_equal(without.patch_length, table.patch_length, equal_nan=True)


def test_lateral_features_batch_matches_reference():
    n, fs = 400, 10_000.0
    profiles = np.zeros((3, n))
    # a triangle: the slope of the first 30% is recovered
    profiles[0, 100:200] = np.linspace(0.0, 10.0, 100)
    # a peak window cut off by the profile end: [300, 400) of [300, 460);
    # the larger value just before the leading edge is outside it
    profiles[1, 299] = 50.0
    profiles[1, 300:] = np.linspace(1.0, -7.0, 100)
    # 3 samples apart: round(0.9) = 1, so the slope fits 2 samples
    profiles[2, 50:60] = np.arange(10.0) ** 2
    leading, trailing = np.array([100, 300, 50]), np.array([200, 380, 53])

    peak, slope = lateral_features(profiles, leading, trailing, 20.0, fs)
    travel_per_sample_mm = 20.0 / fs * 1e3
    assert peak[0] == pytest.approx(10.0, rel=1e-6)
    assert slope[0] == pytest.approx((10.0 / 100) / travel_per_sample_mm, rel=0.05)
    assert peak[1] == 7.0
    assert slope[2] == (1.0 - 0.0) / travel_per_sample_mm
    for i, edges in enumerate(zip(leading, trailing)):
        ref_peak, ref_slope = reference_lateral(profiles[i], edges, 20.0, fs)
        assert peak[i] == ref_peak
        assert slope[i] == pytest.approx(ref_slope, rel=1e-12, abs=0.0)


def test_peak_memory_stays_within_2_8_traces():
    # tracemalloc sees numpy's buffers; the trace itself is made before it starts.
    trace, _ = simulate(scenario(slip_angle=2.0), SensorSpec(seed=7), 400)
    tracemalloc.start()
    try:
        table, skipped = extract_features(trace, 20.0, 0.3, include_lateral=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert skipped == 0 and len(table) >= 399
    assert peak <= 2.8 * trace.samples.nbytes
