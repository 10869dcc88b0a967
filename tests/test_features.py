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
from tiresense.simulate import AccelTrace, trace_rows

from conftest import edges_of, rule_failed, scenario

QUIET = SensorSpec(noise_std=0.0, dc_bias=(5.0, 5.0, 5.0), seed=1)
NOISY = SensorSpec(noise_std=25.0, dc_bias=(5.0, 5.0, 5.0), seed=1)


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
    from tiresense.simulate import AccelTrace, trace_rows

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


def spikes(base, entry, exit_, height, width=1):
    """``base`` with ``width`` samples raised by ``height`` from ``entry`` and
    lowered by it from ``exit_``."""
    turn = base.copy()
    turn[entry : entry + width] += height
    turn[exit_ : exit_ + width] -= height
    return turn


def broken_turn_trace(slip_angle=0.0):
    """A 10-turn trace, noise 25 and bias 5, with one turn broken per edge
    rule: healthy turns mixed with turns whose tangential channel is written
    over (the radial channel, which segment_turns reads, is untouched).
    Returns the trace, its segments and {turn: (rule, make)}."""
    trace, _ = simulate(scenario(slip_angle=slip_angle), NOISY, 10)
    segments = segment_turns(trace, estimate_period(trace, 20.0, 0.3))
    # 942: 9-sample smoothing, 471 = half a turn
    length = segments[0].end_index - segments[0].start_index
    wiggle = np.where(np.arange(length) % 2, 1.0, -1.0)
    # Rule 4's turn: the sensor's noise and bias, with 9-sample bumps of 4
    # sigmas, which stand out of the smoothed noise but not 10 sigmas out of
    # the raw noise.
    noise = np.random.default_rng(7).normal(5.0, 25.0, length)

    samples = trace.samples.copy()
    broken = {
        1: (1, lambda turn: -turn),
        3: (2, lambda turn: spikes(wiggle, 3, 300, 100.0)),
        5: (3, lambda turn: spikes(wiggle, 400, 405, 100.0)),
        7: (4, lambda turn: spikes(noise, 296, 496, 100.0, width=9)),
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
    rules = [broken[i][0] if i in broken else 0 for i in range(len(segments))]
    # the detector applies rules 1-3; rule 4 needs the trace's mean turn
    assert edges.failed.tolist() == [rule if rule < 4 else 0 for rule in rules]
    for index, turn in enumerate(batch):
        # each row on its own gives the same edges and rule
        single = detect_patch_edges(turn[None])
        assert [field[0] for field in single] == [field[index] for field in edges]
        # and rule 4 against the sensor's noise and bias fails the bumps only
        assert rule_failed(turn, sigma=25.0, level=5.0) == rules[index]

    rows, skipped = extract_features(mixed, 20.0, 0.3)
    assert skipped == len(broken)
    nan_rows = [i for i, r in enumerate(rows) if np.isnan(r.patch_length)]
    assert nan_rows == sorted(broken)
    for i in broken:
        assert np.isnan(rows[i].peak_radial_displacement)
        assert np.isnan(rows[i].lateral_slope)


def reference_rule_4(turns, leading, trailing):
    """Rule 4 for the tangential turns (rows) that pass rules 1-3, written
    with plain numpy: each turn's weaker spike over the mean turn's level
    off the median patch, against 10 times the turn's residual rms there,
    scaled by sqrt(N / (N - 1))."""
    count, n = turns.shape
    mean = turns.mean(axis=0)
    lead, trail = int(np.median(leading)), int(np.median(trailing))
    pad = (trail - lead) // 2 + 2
    off = np.ones(n, dtype=bool)
    off[max(lead - pad, 0) : trail + pad + 1] = False
    level = mean[off].mean()
    sigma = np.sqrt(((turns - mean)[:, off] ** 2).mean(axis=1) * count / (count - 1))
    rows = np.arange(count)
    return np.minimum(turns[rows, leading] - level, level - turns[rows, trailing]) > 10.0 * sigma


def test_rule_4_matches_per_turn_residual_reference():
    # 40 turns at noise 25, 13 of them with more tangential noise, from 400
    # to 4000: around 2000 the noise floor meets the spikes, so rule 4 keeps
    # some of those turns and fails others, and some break rules 1-3
    trace, _ = simulate(scenario(), NOISY, 40)
    segments = segment_turns(trace, estimate_period(trace, 20.0, 0.3))
    starts, length = segments.start_index, segments[0].end_index - segments[0].start_index
    rng = np.random.default_rng(11)
    samples = trace.samples.copy()
    louder = range(1, len(segments), 3)
    for index, sigma in zip(louder, np.linspace(400.0, 4000.0, len(louder))):
        samples[starts[index] : starts[index] + length, 0] += rng.normal(0.0, sigma, length)
    turns = samples[starts[:, None] + np.arange(length), 0]
    edges = detect_patch_edges(turns)
    ok = np.flatnonzero(edges.failed == 0)
    kept = ok[reference_rule_4(turns[ok], edges.leading[ok], edges.trailing[ok])]
    rows, skipped = extract_features(AccelTrace(trace.sample_rate, samples), 20.0, 0.3,
                                     include_lateral=False)
    assert np.flatnonzero(np.isfinite(rows.patch_length)).tolist() == kept.tolist()
    assert skipped == len(segments) - len(kept)
    # every outcome occurs: rules 1-3 fail, rule 4 fails, and louder turns pass
    assert len(segments) > len(ok) > len(kept) > len(segments) - len(louder)


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
    # The other turns pass rules 1-3 on bumps of 4 noise sigmas and fail
    # rule 4, so the mean is formed again over the one turn left.  The mean
    # profile is then that turn's own: the column dip is the turn's centre
    # measured from its profile's outward maximum, and the lateral peak is
    # the largest magnitude of its peak window.
    trace, _ = simulate(scenario(), SensorSpec(seed=5), 6)
    segments = segment_turns(trace, estimate_period(trace, 20.0, 0.3))
    keep = 3
    fs, length = trace.sample_rate, segments[0].end_index - segments[0].start_index
    rng = np.random.default_rng(5)
    samples = trace.samples.copy()
    for i, seg in enumerate(segments):
        if i != keep:
            noise = rng.normal(5.0, 25.0, length)
            samples[seg.start_index : seg.end_index, 0] = spikes(noise, 296, 496, 100.0, width=9)
    edges = detect_patch_edges(samples[segments.start_index[:, None] + np.arange(length), 0])
    assert (edges.failed == 0).all()
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


@pytest.mark.parametrize("kept", [[3], [2, 3]])
def test_rule_4_fails_a_turn_without_a_second(kept):
    # With one turn through rules 1-3 the mean turn is that turn, and no
    # residual is left to measure its noise by, so rule 4 fails it; a second
    # turn gives both a residual.  The other turns fail rule 1.
    trace, _ = simulate(scenario(), SensorSpec(seed=5), 6)
    segments = segment_turns(trace, estimate_period(trace, 20.0, 0.3))
    samples = trace.samples.copy()
    for i, seg in enumerate(segments):
        if i not in kept:
            samples[seg.start_index : seg.end_index, 0] = 0.0
    rows, skipped = extract_features(AccelTrace(trace.sample_rate, samples), 20.0, 0.3)
    passed = kept if len(kept) > 1 else []
    assert skipped == len(segments) - len(passed)
    assert np.flatnonzero(np.isfinite(rows.patch_length)).tolist() == passed


@pytest.mark.parametrize("seed", [5, 6])
def test_rule_4_follows_noise_that_changes_mid_trace(seed):
    # 100 turns at 5 m/s, noise 25 and then 1000 from the middle sample on:
    # each turn's own floor skips every turn of the loud half and none of
    # the quiet one.  One floor for the trace would keep some loud turns.
    scen = scenario(vehicle_speed=5.0)
    quiet, _ = simulate(scen, SensorSpec(seed=seed), 100)
    loud, _ = simulate(scen, SensorSpec(noise_std=1000.0, seed=seed), 100)
    middle = len(quiet) // 2
    samples = np.concatenate([quiet.samples[:middle], loud.samples[middle:]])
    trace = AccelTrace(quiet.sample_rate, samples)
    rows, skipped = extract_features(trace, 5.0, 0.3, include_lateral=False)
    segments = segment_turns(trace, estimate_period(trace, 5.0, 0.3))
    skip = np.isnan(rows.patch_length)
    assert not skip[segments.end_index <= middle].any()
    assert skip[segments.start_index >= middle].all()
    assert skipped >= 50


def sigma_hat(trace, speed):
    """The trace's tangential noise as rule 4 reads it: the median of the
    residual rms of the turns that pass rules 1-3, NaN with fewer than two."""
    segments = segment_turns(trace, estimate_period(trace, speed, 0.3))
    at, length = segments.start_index, segments[0].end_index - segments[0].start_index
    edges = detect_patch_edges(trace.a_tangential[at[:, None] + np.arange(length)])
    ok = edges.failed == 0
    if ok.sum() < 2:
        return np.nan
    mean = features._mean_turn(trace.samples, at[ok], length)[:, 0]
    _, rms = features._residual_rms(trace.a_tangential, at[ok], mean, edges.leading[ok],
                                    edges.trailing[ok])
    rms.sort()
    return 0.5 * (rms[(len(rms) - 1) // 2] + rms[len(rms) // 2])


def test_noise_floor_reads_the_sensor_noise():
    # Noise added to noise-free traces (bias 5).  200-turn traces read the
    # noise within 3%.  A turn's share of a mean over 3 or 5 turns would
    # read it sqrt(2/3) or sqrt(4/5) low, so short traces check the scaling:
    # 60 of them read the noise within 3% on average, over those where two
    # turns pass rules 1-3.  At 5 m/s and 500 Hz the spikes of noise 400 do
    # not pass them.
    readings, short_readings, clean_worst = [], [], 0.0
    for speed, rate, noises in [(5.0, 500.0, (25.0,)), (33.0, 1000.0, (25.0, 400.0)),
                                (5.0, 10_000.0, (25.0, 400.0)), (20.0, 10_000.0, (25.0, 400.0)),
                                (33.0, 10_000.0, (25.0, 400.0))]:
        scen = scenario(vehicle_speed=speed)
        clean, _ = simulate(scen, SensorSpec(sample_rate=rate, noise_std=0.0, seed=5), 200)
        clean_worst = max(clean_worst, sigma_hat(clean, speed))
        rng = np.random.default_rng(int(speed * rate))
        for noise in noises:
            noisy = clean.samples + rng.normal(0.0, noise, clean.samples.shape)
            readings.append(sigma_hat(AccelTrace(rate, noisy), speed) / noise)
            for turns in (3, 5):
                rows = int(trace_rows(scen, rate, turns))
                short = np.array([sigma_hat(AccelTrace(rate, clean.samples[:rows] + rng.normal(
                    0.0, noise, (rows, 3))), speed) for _ in range(60)])
                assert np.isfinite(short).sum() >= 40  # two turns pass rules 1-3
                short_readings.append(np.nanmean(short) / noise)
    assert clean_worst < 1e-4  # m/s^2; the turns differ only by sub-sample phase
    assert (np.abs(np.array(readings + short_readings) - 1.0) < 0.03).all()  # NaN fails too
    print(f"\nPASS noise floor: median residual rms / noise {min(readings):.4f}-"
          f"{max(readings):.4f} on 200-turn traces, mean of 60 3- and 5-turn traces "
          f"{min(short_readings):.4f}-{max(short_readings):.4f} (limit 3%), noise-free "
          f"{clean_worst:.1e} m/s^2, 5-33 m/s, 500 Hz-10 kHz, noise 25-400")


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


def test_peak_memory_stays_within_0_45_traces():
    # tracemalloc sees numpy's buffers; the trace itself is made before it
    # starts.  Turns are gathered a block at a time, so what remains is
    # segment_turns' smoothed radial channel, one array of a third of a
    # trace: moving_average writes its output over its running sums.
    trace, _ = simulate(scenario(slip_angle=2.0), SensorSpec(seed=7), 400)
    tracemalloc.start()
    try:
        table, skipped = extract_features(trace, 20.0, 0.3, include_lateral=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert skipped == 0 and len(table) >= 399
    assert peak <= 0.45 * trace.samples.nbytes
