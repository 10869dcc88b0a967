import tracemalloc

import numpy as np
import pytest

from tiresense import SensorSpec, derive_geometry, features, simulate
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


def reference_peak_radial(profile, edges, column):
    # relative to the trace's column, so a constant offset of the profile cancels
    leading, trailing = edges
    return float(profile[column] - profile[(leading + trailing) // 2])


def reference_lateral_column(mean_profile, leading, trailing):
    # where the mean profile of the trace's turns is largest within the peak
    # window of the median edges: the patch and one patch-length after it
    start = int(np.median(leading))
    window = mean_profile[start : start + 2 * int(np.median(trailing - leading))]
    return start + int(np.argmax(np.abs(window)))


def reference_lateral(profile, edges, column, wheel_speed, sample_rate):
    leading, trailing = edges
    fit_n = max(2, int(round(0.3 * (trailing - leading))))
    segment = profile[leading : leading + fit_n]
    slope = float(_line_slope(segment)) / (wheel_speed / sample_rate * 1e3)
    return abs(float(profile[column])), slope


def test_patch_length_formula():
    assert reference_patch_length((100, 210), 20.0, 10_000.0) == pytest.approx(
        0.22, rel=1e-12
    )


def test_flat_profile_has_zero_dip():
    assert reference_peak_radial(np.zeros(500), (200, 300), 0) == 0.0


def test_patch_length_tracks_patch_arc():
    scen = scenario(vehicle_speed=20.0)
    geom = derive_geometry(scen)
    rows = features_of(scen)
    measured = np.mean([r.patch_length for r in rows])
    patch_arc = 2 * geom.effective_radius * geom.contact_half_angle
    assert measured == pytest.approx(patch_arc, rel=0.02)


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


# The hint 2 pi R / v is longer than the loaded turn, so at these speeds and
# rates 3 turns are shorter than 3 hinted periods.
@pytest.mark.parametrize("speed, rate", [(12.0, 1000.0), (12.0, 10_000.0), (20.0, 2000.0),
                                         (20.0, 10_000.0), (33.0, 1000.0)])
def test_three_turn_trace_gives_three_turns(speed, rate):
    trace, _ = simulate(scenario(vehicle_speed=speed), SensorSpec(sample_rate=rate, seed=2), 3)
    assert len(trace) < 3 * 2 * np.pi * 0.3 / speed * rate
    rows, skipped = extract_features(trace, speed, 0.3)
    assert (len(rows), skipped) == (3, 0)


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
    # 942: 9-sample smoothing, 471 = half a turn
    length = segments[0].end_index - segments[0].start_index
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
    # every turn keeps its record, the skipped ones included
    assert len(table) == len(segments)

    fs, length = mixed.sample_rate, segments[0].end_index - segments[0].start_index
    turns = np.stack([mixed.samples[s.start_index : s.end_index] for s in segments])
    radial = accel_to_displacement(-turns[:, :, 2], fs, fs / length)
    lateral = accel_to_displacement(turns[:, :, 1], fs, fs / length)
    healthy = [i for i in range(len(segments)) if i not in broken]
    # the column where the mean profile of the healthy turns peaks outward
    column = int(np.argmax(radial[healthy].mean(axis=0)))
    leading, trailing = np.array([edges_of(turns[i, :, 0]) for i in healthy]).T
    lateral_column = reference_lateral_column(lateral[healthy].mean(axis=0), leading, trailing)
    for i, row in enumerate(table):
        features = [row[name] for name in FEATURE_FIELDS]
        if i in broken:
            assert np.isnan(features).all()
            continue
        edges = edges_of(turns[i, :, 0])
        peak, slope = reference_lateral(lateral[i], edges, lateral_column, 20.0, fs)
        assert row.patch_length == reference_patch_length(edges, 20.0, fs)
        assert row.peak_radial_displacement == pytest.approx(
            reference_peak_radial(radial[i], edges, column), rel=1e-12, abs=0.0
        )
        assert row.peak_lateral_displacement == pytest.approx(peak, rel=1e-12, abs=0.0)
        assert row.lateral_slope == pytest.approx(slope, rel=1e-12, abs=0.0)
        assert abs(slope) > 1e-3  # a slip-angle trace: the relative bound bites

    without, _ = extract_features(mixed, 20.0, 0.3, include_lateral=False)
    assert (without.peak_lateral_displacement[healthy] == 0.0).all()
    assert (without.lateral_slope[healthy] == 0.0).all()
    assert np.isnan(without.lateral_slope[sorted(broken)]).all()
    assert np.array_equal(without.patch_length, table.patch_length, equal_nan=True)


def test_one_ok_turn_dips_at_its_own_maximum():
    # With one turn left, the mean profile is that turn's own, so the column
    # dip is the turn's centre measured from its profile's outward maximum,
    # and the lateral peak is the largest magnitude of its peak window.
    trace, _ = simulate(scenario(), SensorSpec(seed=5), 6)
    segments = segment_turns(trace, estimate_period(trace, 20.0, 0.3))
    keep = 3
    samples = trace.samples.copy()
    for i, seg in enumerate(segments):
        if i != keep:
            samples[seg.start_index : seg.end_index, 0] = 0.0
    fs, length = trace.sample_rate, segments[0].end_index - segments[0].start_index
    rows, skipped = extract_features(AccelTrace(fs, samples), 20.0, 0.3)
    assert skipped == len(segments) - 1
    turn = samples[segments[keep].start_index : segments[keep].end_index]
    profile = accel_to_displacement(-turn[:, 2], fs, fs / length)
    leading, trailing = edges_of(turn[:, 0])
    expected = profile.max() - profile[(leading + trailing) // 2]
    assert rows[keep].peak_radial_displacement == pytest.approx(expected, rel=1e-12, abs=0.0)
    lateral = accel_to_displacement(turn[:, 1], fs, fs / length)
    expected = np.abs(lateral[leading : 2 * trailing - leading]).max()
    assert rows[keep].peak_lateral_displacement == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_lateral_features_batch_matches_reference():
    # Raw lateral turns, their integrated mean and their edges in, each
    # turn's features of its own profile out, the peak at the column where
    # the mean profile peaks.
    # Shifted by 380 samples, the patch sits near the turn's end, which cuts
    # off the peak window.
    trace, _ = simulate(scenario(slip_angle=3.0), SensorSpec(seed=9), 8)
    segments = segment_turns(trace, estimate_period(trace, 20.0, 0.3))
    fs, n = trace.sample_rate, segments[0].end_index - segments[0].start_index
    turns = np.stack([trace.samples[s.start_index : s.end_index] for s in segments])
    edges = np.array([edges_of(turn[:, 0]) for turn in turns]).T
    # 3 samples apart: round(0.9) = 1, so the slope fits 2 samples
    edges[1, 0] = edges[0, 0] + 3
    for shift in (0, 380):
        lateral = np.roll(turns[:, :, 1], shift, axis=1)
        leading, trailing = edges + shift
        if shift:
            assert trailing.max() < n < np.median(leading) + 2 * np.median(trailing - leading)
        profiles = accel_to_displacement(lateral, fs, fs / n)
        column = reference_lateral_column(profiles.mean(axis=0), leading, trailing)
        mean = accel_to_displacement(lateral.mean(axis=0), fs, fs / n)
        # the rows of the flattened array are its turns
        peak, slope = lateral_features(lateral.ravel(), np.arange(len(lateral)) * n, mean,
                                       leading, trailing, 20.0, fs)
        for i, turn_edges in enumerate(zip(leading, trailing)):
            ref_peak, ref_slope = reference_lateral(profiles[i], turn_edges, column, 20.0, fs)
            assert peak[i] == pytest.approx(ref_peak, rel=1e-12, abs=0.0)
            assert slope[i] == pytest.approx(ref_slope, rel=1e-12, abs=0.0)
        # the peak column is not the largest magnitude of every turn
        assert not np.allclose(peak, np.abs(profiles).max(axis=1), rtol=1e-12, atol=0.0)
        assert np.abs(slope).min() > 1e-3  # a slip-angle trace: the relative bound bites


@pytest.mark.parametrize("lateral", [False, True])
def test_one_integration_and_one_weight_call_per_feature(monkeypatch, lateral):
    # The mean turns of both channels are integrated as the rows of one
    # array, so a trace pays the chain's fixed cost once; the dip and the
    # lateral features each build the weight rows they read, in one call.
    calls = []
    for name in ("accel_to_displacement", "displacement_weights"):
        def counting(*args, _name=name, _original=getattr(features, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(features, name, counting)
    trace, _ = simulate(scenario(slip_angle=2.0), SensorSpec(seed=3), 6)
    table, skipped = extract_features(trace, 20.0, 0.3, include_lateral=lateral)
    assert skipped == 0 and (table.lateral_slope != 0.0).all() == lateral
    assert sorted(calls) == ["accel_to_displacement"] + ["displacement_weights"] * (1 + lateral)


@pytest.mark.parametrize("lateral", [False, True])
def test_table_does_not_depend_on_block_size(monkeypatch, lateral):
    # The skipped turns 1, 3, 5 and 7 straddle the block edges, so a block
    # edge that dropped or repeated a turn would shift the table.  The mean
    # profiles only pick a column, which the last bits rarely move, so the
    # mean of every turn is checked against numpy's, which sums the turns
    # one after another; a mean summed block by block rounds differently.
    mixed, segments, _ = broken_turn_trace()
    starts = segments.start_index
    turns, length = len(starts), int(segments.end_index[0] - starts[0])
    assert features.FEATURE_BLOCK_SAMPLES >= turns * length  # one block
    expected, skipped = extract_features(mixed, 20.0, 0.3, include_lateral=lateral)
    turn_samples = mixed.samples[starts[:, None] + np.arange(length)]
    for block in (1, 7, turns - 1, turns, turns + 1):
        monkeypatch.setattr(features, "FEATURE_BLOCK_SAMPLES", block * length)
        table, blocked_skipped = extract_features(mixed, 20.0, 0.3, include_lateral=lateral)
        assert (table.tobytes(), blocked_skipped) == (expected.tobytes(), skipped), block
        mean = features._mean_turn(mixed.samples, starts, length)
        assert mean.tobytes() == turn_samples.mean(axis=0).tobytes(), block


def test_peak_memory_stays_within_0_8_traces():
    # tracemalloc sees numpy's buffers; the trace itself is made before it
    # starts.  Turns are gathered a block at a time, so what remains is
    # segment_turns' smoothed radial channel, about two thirds of a trace.
    trace, _ = simulate(scenario(slip_angle=2.0), SensorSpec(seed=7), 400)
    tracemalloc.start()
    try:
        table, skipped = extract_features(trace, 20.0, 0.3, include_lateral=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert skipped == 0 and len(table) >= 399
    assert peak <= 0.8 * trace.samples.nbytes
