import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiresense
from tiresense import (
    InvalidArgumentError,
    NoPeakError,
    SensorSpec,
    TooShortError,
    derive_geometry,
    simulate,
)
from tiresense import dsp
from tiresense.dsp import (
    PERIOD_PREFIX_TURNS,
    _deviation_median,
    _fast_length,
    accel_to_displacement,
    detect_patch_edges,
    displacement_weights,
    double_integrate,
    estimate_period,
    highpass,
    moving_average,
    segment_turns,
)
from tiresense.simulate import MIN_SAMPLES_PER_TURN, AccelTrace

from conftest import edges_of, rule_failed, scenario

FS = 10_000.0


def sinusoid_amplitude(samples, freq, sample_rate):
    """Least-squares amplitude of one sinusoid plus a line (the detrend
    leaves an odd-symmetry tilt that a raw max would misread)."""
    t = np.arange(len(samples)) / sample_rate
    design = np.column_stack(
        [np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t), np.ones_like(t), t]
    )
    coef, *_ = np.linalg.lstsq(design, samples, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


# ---------------------------------------------------------------------------
# period estimation

def test_period_matches_kinematics(clean_trace, default_scenario):
    trace, truth = clean_trace
    period = estimate_period(trace, default_scenario.vehicle_speed, 0.3)
    assert period == pytest.approx(2 * np.pi * 0.3 / 20.0, rel=0.005)
    assert period == pytest.approx(truth.wheel_period_s[0], rel=0.005)


def test_doubling_speed_halves_period(quiet_sensor):
    slow, _ = simulate(scenario(vehicle_speed=20.0), quiet_sensor, 6)
    fast, _ = simulate(scenario(vehicle_speed=40.0), quiet_sensor, 6)
    p_slow = estimate_period(slow, 20.0, 0.3)
    p_fast = estimate_period(fast, 40.0, 0.3)
    assert p_slow / p_fast == pytest.approx(2.0, rel=0.01)


def test_constant_signal_has_no_peak():
    trace = AccelTrace(
        sample_rate=FS, samples=np.ones((20_000, 3)) * 3.0
    )
    with pytest.raises(NoPeakError):
        estimate_period(trace, 20.0, 0.3)


def test_period_needs_three_shortest_search_periods(default_scenario, quiet_sensor):
    # 2 turns fall short of 3 x 0.8 hinted periods; the refusal's two
    # durations are rounded apart
    trace, _ = simulate(default_scenario, quiet_sensor, 2)
    with pytest.raises(TooShortError, match=r"the hint \(227 ms\), trace has 188 ms$"):
        estimate_period(trace, default_scenario.vehicle_speed, 0.3)


@pytest.mark.parametrize(
    "speed,radius,line",
    [
        pytest.param(np.nan, 0.3, r"^speed hint must be positive and finite, got nan$",
                     id="nan-speed"),
        pytest.param(20.0, np.nan, r"^radius hint must be positive and finite, got nan$",
                     id="nan-radius"),
        pytest.param(0.0, 0.3, r"^speed hint must be positive and finite, got 0\.0$",
                     id="zero-speed"),
        pytest.param(-20.0, 0.3, r"^speed hint must be positive and finite, got -20\.0$",
                     id="negative-speed"),
        pytest.param(np.inf, 0.3, r"^speed hint must be positive and finite, got inf$",
                     id="infinite-speed"),
        pytest.param(20.0, 1e-6, r"^hinted period 0\.0003142 ms \(radius 1e-06 m, speed "
                     r"20\.0 m/s\) is shorter than 20 samples at 10000 Hz$", id="tiny-radius"),
    ],
)
def test_bad_hint_is_refused(clean_trace, speed, radius, line):
    trace, _ = clean_trace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=line):
            estimate_period(trace, speed, radius)


def spike_train(n, every, sample_rate):
    """``n`` samples whose radial channel dips by 1000 m/s^2 every ``every`` samples."""
    samples = np.zeros((n, 3))
    samples[::every, 2] = -1000.0
    return AccelTrace(sample_rate=sample_rate, samples=samples)


@pytest.mark.parametrize("n", [48, 49, 60])
def test_period_search_at_the_shortest_hint_and_trace(n):
    # A hinted period of exactly MIN_SAMPLES_PER_TURN samples, on traces
    # from the shortest the search accepts, 3 x 0.8 of it, up: the lag
    # window [16, 24] needs no clamp to fit the prefix, and the spike
    # train's period is found.
    fs, radius, speed = 1000.0, 10.0 / np.pi, 1000.0
    assert 2.0 * np.pi * radius / speed * fs == MIN_SAMPLES_PER_TURN
    assert estimate_period(spike_train(n, 20, fs), speed, radius) == 20 / fs
    with pytest.raises(TooShortError):
        estimate_period(spike_train(47, 20, fs), speed, radius)


def direct_period(trace, speed, radius):
    """estimate_period's lag from the lag products x[:-k] @ x[k:] themselves."""
    fs = trace.sample_rate
    hinted = 2 * np.pi * radius / speed
    x = trace.a_radial[: int(round(PERIOD_PREFIX_TURNS * hinted * fs))]
    x = x - x.mean()
    lo = max(1, int(np.floor(0.8 * hinted * fs)))
    hi = min(len(x) - 2, int(np.ceil(1.2 * hinted * fs)))
    lags = np.arange(lo, hi + 1)
    return lags[np.argmax([x[:-k] @ x[k:] for k in lags])] / fs


@pytest.mark.parametrize("speed", [5.0, 20.0, 33.0])
@pytest.mark.parametrize("turns", [40, 400])
def test_period_lag_matches_direct_autocorrelation(speed, turns):
    sensor = SensorSpec(seed=turns + int(speed))
    trace, _ = simulate(scenario(vehicle_speed=speed), sensor, turns)
    assert estimate_period(trace, speed, 0.3) == direct_period(trace, speed, 0.3)


# ---------------------------------------------------------------------------
# segmentation

def test_ten_turns_give_ten_segments(clean_trace):
    trace, truth = clean_trace
    segments = segment_turns(trace, truth.wheel_period_s[0])
    assert len(segments) == 10
    expected = round(truth.wheel_period_s[0] * trace.sample_rate)
    for seg in segments:
        assert abs(seg.end_index - seg.start_index - expected) <= 1
        # exactly one patch: one positive and one negative tangential spike
        leading, trailing = edges_of(
            trace.a_tangential[seg.start_index : seg.end_index]
        )
        assert 0 < trailing - leading < (seg.end_index - seg.start_index) // 2
    assert len({seg.end_index - seg.start_index for seg in segments}) == 1
    # windows of one integer length on a fractional period: gaps and
    # overlaps of at most one sample
    for a, b in zip(segments[:-1], segments[1:]):
        assert abs(b.start_index - a.end_index) <= 1


def test_segments_are_rows_of_one_window_length(clean_trace):
    # perfbench's segment-centring hook reads the result this way: its
    # len(), and start_index and end_index of each row it iterates.
    trace, truth = clean_trace
    segments = segment_turns(trace, truth.wheel_period_s[0])
    assert len(segments) == truth.n_turns
    lengths = [row.end_index - row.start_index for row in segments]
    assert len(lengths) == truth.n_turns
    assert len(set(lengths)) == 1


_FEW_TURNS = pytest.mark.xfail(
    strict=True, reason="a line through 2 or 3 patch centres sets the window length")


@pytest.mark.parametrize("speed, rate, noise, seed, turns", [
    pytest.param(5.0, 10_000.0, 25.0, 2, 3, marks=_FEW_TURNS, id="5mps-10kHz-3-turns"),
    pytest.param(12.0, 5_000.0, 400.0, 1, 3, marks=_FEW_TURNS, id="12mps-5kHz-3-turns"),
    pytest.param(5.0, 10_000.0, 25.0, 2, 40, id="5mps-10kHz-40-turns"),
    pytest.param(12.0, 5_000.0, 400.0, 1, 40, id="12mps-5kHz-40-turns"),
])
def test_segment_windows_are_one_revolution_long(speed, rate, noise, seed, turns):
    sensor = SensorSpec(sample_rate=rate, noise_std=noise, seed=seed)
    trace, truth = simulate(scenario(vehicle_speed=speed), sensor, turns)
    segments = segment_turns(trace, estimate_period(trace, speed, 0.3))
    length = segments.end_index[0] - segments.start_index[0]
    assert length == pytest.approx(truth.wheel_period_s[0] * rate, rel=0.01)


def test_segment_too_short(default_scenario, quiet_sensor):
    trace, truth = simulate(default_scenario, quiet_sensor, 1)
    half = AccelTrace(
        sample_rate=trace.sample_rate,
        samples=trace.samples[: len(trace) // 2],
    )
    with pytest.raises(TooShortError):
        segment_turns(half, truth.wheel_period_s[0])


@pytest.mark.parametrize(
    "period, shown",
    [
        pytest.param(0.0, "0", id="0.0"),
        pytest.param(-1.0, "-1000", id="-1.0"),
        pytest.param(np.nan, "nan", id="nan"),
        pytest.param(np.inf, "inf", id="inf"),
        pytest.param(19 / FS, "1.9", id="19-samples"),
    ],
)
def test_segment_refuses_a_period_that_is_not_positive_and_finite(clean_trace, period, shown):
    # one check, whose line reads true of each period it refuses
    with pytest.raises(InvalidArgumentError, match=f"^period {shown} ms is not a finite span "
                       "of at least 20 samples at 10000 Hz$"):
        segment_turns(clean_trace[0], period)


# Run in a child process: at a period of about one sample, a window of the
# turn search can return its own start, and a search that took such a
# period would never end.
SHORT_PERIOD_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
import numpy as np
from tiresense import InvalidArgumentError
from tiresense.dsp import segment_turns
from tiresense.simulate import AccelTrace
samples = np.zeros((100, 3))
samples[::20, 2] = -1000.0
try:
    segment_turns(AccelTrace(sample_rate=1e4, samples=samples), float(sys.argv[1]))
except InvalidArgumentError as error:
    print(error)
"""


@pytest.mark.parametrize(
    "period, line",
    [
        pytest.param(1e-5, "period 0.01 ms is not a finite span of at least 20 samples "
                     "at 10000 Hz", id="0.1-sample"),
        pytest.param(1e-4, "period 0.1 ms is not a finite span of at least 20 samples "
                     "at 10000 Hz", id="1-sample"),
        pytest.param(19 / FS, "period 1.9 ms is not a finite span of at least 20 samples "
                     "at 10000 Hz", id="19-samples"),
    ],
)
def test_segment_refuses_a_period_shorter_than_a_resolvable_turn(period, line):
    # a child process with a time limit and a 512 MB address-space cap, so
    # that a search that does not stop fails the test instead of the run
    env = {**os.environ, "PYTHONPATH": str(Path(tiresense.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", SHORT_PERIOD_CHILD, repr(period)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line + "\n", "")


def test_segment_takes_a_period_of_the_fewest_resolvable_samples():
    segments = segment_turns(spike_train(100, MIN_SAMPLES_PER_TURN, FS), MIN_SAMPLES_PER_TURN / FS)
    assert (segments.end_index - segments.start_index == MIN_SAMPLES_PER_TURN).all()


def test_segment_refuses_one_turn_centred_on_its_first_sample():
    # One turn of 100 samples whose only patch sits at sample 0: the turn
    # centred there is cut by half its length, more than MAX_CUT_FRACTION.
    with pytest.raises(TooShortError, match="^no complete wheel turn found$"):
        segment_turns(spike_train(100, 100, FS), 100 / FS)


def test_patch_centers_match_truth_phase(clean_trace, default_scenario):
    trace, truth = clean_trace
    geom = derive_geometry(default_scenario)
    omega = default_scenario.vehicle_speed / geom.effective_radius
    fs = trace.sample_rate
    segments = segment_turns(trace, truth.wheel_period_s[0])
    for k, seg in enumerate(segments):
        leading, trailing = edges_of(
            trace.a_tangential[seg.start_index : seg.end_index]
        )
        center = seg.start_index + (leading + trailing) / 2
        true_center = (np.pi + 2 * np.pi * k) / omega * fs
        assert abs(center - true_center) <= 2


def test_segmentation_shift_invariance(clean_trace):
    trace, truth = clean_trace
    period = truth.wheel_period_s[0]
    shift = round(period * trace.sample_rate)
    rolled = AccelTrace(
        sample_rate=trace.sample_rate,
        samples=np.roll(trace.samples, -shift, axis=0),
    )
    original = segment_turns(trace, period)
    shifted = segment_turns(rolled, period)
    for a, b in zip(original[:-1], shifted[:-1]):
        assert abs(a.start_index - b.start_index) <= 2


def assert_segments_centred(trace, truth, speed):
    """One segment per simulated turn, each midpoint within half a patch of
    the true patch centre."""
    segments = segment_turns(trace, estimate_period(trace, speed, 0.3))
    assert len(segments) == truth.n_turns
    fs = trace.sample_rate
    centres = (truth.turn_start_time_s + truth.wheel_period_s / 2.0) * fs
    half_patch = truth.contact_half_angle_rad / (2.0 * np.pi) * truth.wheel_period_s * fs
    mids = np.array([(seg.start_index + seg.end_index) / 2.0 for seg in segments])
    worst = int(np.argmax(np.abs(mids - centres) - half_patch))
    assert abs(mids[worst] - centres[worst]) <= half_patch[worst], f"turn {worst}"


def test_400_turns_stay_on_the_patch():
    # the coarse period is a whole number of samples, 942 against a true
    # 942.48 at 20 m/s: a grid stepped by it falls ~190 samples behind
    for seed in (0, 1, 3, 7):
        trace, truth = simulate(scenario(), SensorSpec(seed=seed), 400)
        assert_segments_centred(trace, truth, 20.0)


def test_3000_turns_at_40_m_s_stay_on_the_patch():
    # 471 against 471.24 samples per turn: over 3000 turns a grid stepped by
    # the coarse period drifts by hundreds of samples, a patch is 58 wide
    trace, truth = simulate(scenario(vehicle_speed=40.0), SensorSpec(seed=0), 3000)
    assert_segments_centred(trace, truth, 40.0)


# ---------------------------------------------------------------------------
# highpass

def test_highpass_rejects_dc():
    out = highpass(np.full(3000, 7.0), FS, 5.0)
    assert np.abs(out).max() < 1e-6 * 7.0


def test_highpass_passband_amplitude_and_phase():
    cutoff = 5.0
    t = np.arange(int(2 * FS)) / FS
    x = np.sin(2 * np.pi * 10 * cutoff * t)
    y = highpass(x, FS, cutoff)
    mid = slice(int(0.5 * FS), int(1.5 * FS))
    amplitude = (y[mid].max() - y[mid].min()) / 2
    assert amplitude == pytest.approx(1.0, abs=0.02)
    corr = np.correlate(y[mid] - y[mid].mean(), x[mid] - x[mid].mean(), "full")
    lag = np.argmax(corr) - (mid.stop - mid.start - 1)
    phase_deg = 360.0 * 10 * cutoff * lag / FS
    assert abs(phase_deg) < 1.0


def test_highpass_superposition():
    t = np.arange(3000) / FS
    x = np.sin(2 * np.pi * 60.0 * t)
    with_offset = highpass(5.0 + x, FS, 5.0)
    alone = highpass(x, FS, 5.0)
    assert np.abs(with_offset - alone).max() < 1e-6


@pytest.mark.parametrize("cutoff", [0.0, -3.0, FS / 2, FS])
def test_highpass_invalid_cutoff(cutoff):
    with pytest.raises(InvalidArgumentError, match=rf"^cutoff {cutoff} Hz must lie inside "
                       rf"\(0, {FS / 2:.0f}\) Hz$"):
        highpass(np.zeros(100), FS, cutoff)


# ---------------------------------------------------------------------------
# integration pipeline

def test_sinusoid_amplitude_recovery():
    rotation = 10.0  # cutoff 3 Hz
    t = np.arange(int(FS)) / FS
    freq = 4 * 0.3 * rotation  # integer cycles over the window
    amp = 0.005
    accel = -((2 * np.pi * freq) ** 2) * amp * np.sin(2 * np.pi * freq * t)
    profile = accel_to_displacement(accel, FS, rotation)
    recovered = sinusoid_amplitude(profile, freq, FS)
    assert recovered == pytest.approx(amp * 1e3, rel=0.05)


def test_constant_bias_does_not_integrate():
    profile = accel_to_displacement(np.full(942, 5.0), FS, 21.2)
    assert np.abs(profile).max() < 0.01


@settings(max_examples=20, deadline=None)
@given(bias=st.floats(-50.0, 50.0))
def test_drift_freedom_invariance(bias):
    rng = np.random.default_rng(0)
    channel = rng.normal(0.0, 100.0, 942)
    clean = accel_to_displacement(channel, FS, 21.2)
    offset = accel_to_displacement(channel + bias, FS, 21.2)
    assert np.abs(offset - clean).max() < 0.01


def test_unfiltered_double_integration_drifts():
    # negative control: 5 m/s^2 bias for 1 s gives b t^2 / 2 = 2.5 m
    disp = double_integrate(np.full(int(FS), 5.0), FS)
    assert disp[-1] == pytest.approx(2.5, rel=1e-3)
    assert np.abs(disp[-1]) > 1.0


def test_round_trip_shape_recovery():
    # turn-periodic waveform with content at 2, 3 and 5x rotation (>= 4x cutoff)
    n = 942
    t = np.arange(n) / FS
    base = FS / n  # exact window-periodic fundamental
    wave = (
        2.0 * np.sin(2 * np.pi * 2 * base * t + 0.3)
        + 1.0 * np.sin(2 * np.pi * 3 * base * t + 1.1)
        + 0.5 * np.sin(2 * np.pi * 5 * base * t + 2.0)
    ) * 1e-3
    accel = np.gradient(np.gradient(wave, 1 / FS), 1 / FS)
    profile = accel_to_displacement(accel, FS, base)
    reference = wave * 1e3
    reference = reference - reference.mean()
    idx = np.arange(n)
    reference = reference - np.polyval(np.polyfit(idx, reference, 1), idx)
    corr = np.corrcoef(profile, reference)[0, 1]
    assert corr >= 0.99


@pytest.mark.parametrize("length", [471, 942, 943])
def test_batched_integration_matches_each_row(length):
    rng = np.random.default_rng(length)
    t = np.arange(length) / FS
    turns = rng.normal(0.0, 100.0, (6, length)) + 5.0
    turns += 400.0 * np.sin(2 * np.pi * 2 * FS / length * t + rng.uniform(0, 6, (6, 1)))
    batched = accel_to_displacement(turns, FS, FS / length)
    assert batched.shape == turns.shape
    # its own buffer, not a view that keeps the larger FFT output alive
    assert batched.flags.owndata and batched.flags.c_contiguous
    for row, turn in zip(batched, turns):
        assert np.array_equal(row, accel_to_displacement(turn, FS, FS / length))


@pytest.mark.parametrize("rows", [1, 6, 53, 400])
def test_each_turn_integrates_alone(rows):
    # A turn's profile is a function of that turn alone: bit-equal whether
    # it is integrated by itself, in a slice of the batch, or in the whole
    # batch.
    length = 942
    turns = turn_like(rows, length)
    singles = np.array([accel_to_displacement(turn, FS, FS / length) for turn in turns])
    assert np.array_equal(accel_to_displacement(turns, FS, FS / length), singles)
    sliced = [accel_to_displacement(turns[lo : lo + 17], FS, FS / length)
              for lo in range(0, rows, 17)]
    assert np.array_equal(np.concatenate(sliced), singles)


def reference_highpass(x, sample_rate, cutoff):
    """The zero-phase high-pass as a plain length-n FFT filter."""
    n = x.shape[-1]
    ratio = (np.fft.rfftfreq(n, 1.0 / sample_rate) / cutoff) ** 2
    return np.fft.irfft(np.fft.rfft(x) * (ratio**2 / (1.0 + ratio**2)), n)


def reference_trapezoid(y, dt):
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(dt * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return out


def reference_displacement(x, sample_rate, rotation_frequency):
    """The integration chain stage by stage: mean removal, high-pass,
    trapezoid, high-pass, trapezoid, mean and slope removal, millimetres."""
    dt = 1.0 / sample_rate
    cutoff = 0.3 * rotation_frequency
    accel = reference_highpass(x - x.mean(axis=-1, keepdims=True), sample_rate, cutoff)
    velocity = reference_highpass(reference_trapezoid(accel, dt), sample_rate, cutoff)
    disp = reference_trapezoid(velocity, dt)
    t = np.arange(x.shape[-1]) - (x.shape[-1] - 1) / 2.0
    disp = disp - disp.mean(axis=-1, keepdims=True)
    disp = disp - ((disp @ t) / (t @ t))[..., None] * t
    return disp * 1e3


def turn_like(rows, length):
    """Noise plus a biased, turn-periodic wave: ``rows`` windows of ``length``."""
    rng = np.random.default_rng(length)
    t = np.arange(length) / FS
    turns = rng.normal(0.0, 100.0, (rows, length)) + 1300.0
    turns += 400.0 * np.sin(2 * np.pi * 2 * FS / length * t + rng.uniform(0, 6, (rows, 1)))
    return turns


def assert_rows_close(actual, expected):
    assert actual.shape == expected.shape
    for got, want in zip(np.atleast_2d(actual), np.atleast_2d(expected)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("length", [471, 941, 942, 943, 1000])
def test_integration_matches_stage_by_stage_chain(length):
    # 941 is prime: the stage-by-stage FFTs run at an awkward length
    turns = turn_like(5, length)
    for x in (turns[0], turns):
        expected = reference_displacement(x, FS, FS / length)
        assert_rows_close(accel_to_displacement(x, FS, FS / length), expected)


def test_every_integration_runs_the_chain(monkeypatch):
    # no integration reuses an earlier call's work: each one high-passes
    # twice, so a profiler's count and time of highpass cover every pass;
    # the weights build the chain once per (length, rate)
    calls = []

    def counting(*args):
        calls.append(1)
        return highpass(*args)

    monkeypatch.setattr(dsp, "highpass", counting)
    turn = turn_like(1, 942)[0]
    for _ in range(2):
        calls.clear()
        accel_to_displacement(turn, FS, FS / 942)
        assert len(calls) == 2
    dsp._chain.cache_clear()
    for n, rate, columns, passes in [
        (942, FS, [0, 471], 2),
        (942, FS, [5, 471, 5], 0),
        (942, 500.0, [0, 471], 2),
        (943, FS, [0, 471], 2),
        (942, FS, [0], 0),
    ]:
        calls.clear()
        displacement_weights(n, rate, np.array(columns))
        assert len(calls) == passes, (n, rate)


@pytest.mark.parametrize("length", [941, 942, 943])
def test_weights_read_the_profile_columns(length):
    # 941 is prime, 942 even, 943 odd; the turns sit at the centripetal
    # level, which the weights must cancel
    turns = turn_like(5, length)
    profiles = accel_to_displacement(turns, FS, FS / length)
    # sorted and distinct, then unsorted with a repeat
    for columns in ([0, 1, 300, length // 2, length - 1], [length - 1, 7, 300, 0, 7]):
        columns = np.array(columns)
        weights = displacement_weights(length, FS, columns)
        assert weights.shape == (len(columns), length)
        read = np.stack([np.einsum("ti,i->t", turns, w) for w in weights], axis=-1)
        assert_rows_close(read, profiles[:, columns])


@pytest.mark.parametrize("rate", [500.0, FS])
@pytest.mark.parametrize("length", [941, 942, 943, 3770])
def test_cached_chain_keeps_the_weights_bits(length, rate):
    # a warm call gathers from the arrays a cold call built, after calls at
    # other columns and lengths
    columns = np.array([length - 1, 7, 300, 0, 7])
    dsp._chain.cache_clear()
    cold = displacement_weights(length, rate, columns)
    displacement_weights(length, rate, np.arange(length - 1, -1, -97))
    displacement_weights(length + 1, rate, columns)
    assert np.array_equal(displacement_weights(length, rate, columns), cold)


def test_cached_chain_is_read_only():
    windows, correlation = dsp._chain(942, FS)
    assert windows.shape == (943, 942)
    for cached in (windows[0], correlation):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    weights = displacement_weights(942, FS, np.array([0, 471]))
    weights[0, 0] = 0.0  # each call's rows are its own
    assert not np.shares_memory(weights, windows)
    assert not np.shares_memory(weights, correlation)


def test_weights_peak_memory_stays_near_the_output():
    # the detrend updates one row at a time, so no temporary is row-sized
    columns = np.arange(300, 380)
    displacement_weights(942, FS, columns)  # the chain is cached before the trace starts
    tracemalloc.start()
    try:
        weights = displacement_weights(942, FS, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * weights.nbytes


@pytest.mark.parametrize("shape", [(0,), (1,), (3, 0), (3, 1)])
def test_integration_refuses_a_turn_of_fewer_than_two_samples(shape):
    with pytest.raises(InvalidArgumentError,
                       match=f"^a turn needs at least 2 samples to integrate, got {shape[-1]}$"):
        accel_to_displacement(np.ones(shape), FS, 21.2)


@pytest.mark.parametrize("length", [471, 941, 942, 943, 1000])
def test_highpass_matches_length_n_filter(length):
    turns = turn_like(5, length)
    for x in (turns[0], turns):
        assert np.array_equal(highpass(x, FS, 6.0), reference_highpass(x, FS, 6.0))


def test_profile_mean_is_zero_after_detrend(clean_trace):
    trace, truth = clean_trace
    seg = segment_turns(trace, truth.wheel_period_s[0])[2]
    turn = trace.a_radial[seg.start_index : seg.end_index]
    profile = accel_to_displacement(
        -turn, trace.sample_rate, FS / (seg.end_index - seg.start_index)
    )
    assert abs(profile.mean()) < 1e-6 * np.abs(profile).max()


def test_zero_phase_keeps_dip_centred(clean_trace):
    trace, truth = clean_trace
    for seg in segment_turns(trace, truth.wheel_period_s[0])[:3]:
        window = slice(seg.start_index, seg.end_index)
        leading, trailing = edges_of(trace.a_tangential[window])
        profile = accel_to_displacement(
            -trace.a_radial[window], trace.sample_rate,
            FS / (seg.end_index - seg.start_index),
        )
        assert abs(int(np.argmin(profile)) - (leading + trailing) // 2) < 3


# ---------------------------------------------------------------------------
# edge detection

def test_edges_match_truth(clean_trace, default_scenario):
    trace, truth = clean_trace
    geom = derive_geometry(default_scenario)
    omega = default_scenario.vehicle_speed / geom.effective_radius
    fs = trace.sample_rate
    for k, seg in enumerate(segment_turns(trace, truth.wheel_period_s[0])):
        leading, trailing = edges_of(
            trace.a_tangential[seg.start_index : seg.end_index]
        )
        entry = (np.pi - geom.contact_half_angle + 2 * np.pi * k) / omega * fs
        exit_ = (np.pi + geom.contact_half_angle + 2 * np.pi * k) / omega * fs
        assert abs(seg.start_index + leading - entry) <= 3
        assert abs(seg.start_index + trailing - exit_) <= 3


def test_noise_barely_moves_patch_duration(clean_trace, default_scenario):
    trace, truth = clean_trace
    noisy, _ = simulate(default_scenario, SensorSpec(noise_std=25.0, seed=5), 10)
    period = truth.wheel_period_s[0]
    clean_sep = np.mean(
        [
            np.diff(edges_of(trace.a_tangential[s.start_index : s.end_index]))
            for s in segment_turns(trace, period)
        ]
    )
    noisy_sep = np.mean(
        [
            np.diff(edges_of(noisy.a_tangential[s.start_index : s.end_index]))
            for s in segment_turns(noisy, period)
        ]
    )
    assert noisy_sep == pytest.approx(clean_sep, rel=0.05)


def test_pure_noise_never_returns_wide_edges():
    edges = detect_patch_edges(np.random.default_rng(11).normal(0.0, 1.0, (20, 900)))
    accepted = edges.failed == 0
    separation = (edges.trailing - edges.leading)[accepted]
    assert np.all((0 < separation) & (separation < 900 // 2))
    assert np.sum(~accepted) >= 10  # rejected with high probability


@pytest.mark.parametrize("shape", [(942,), (2, 3, 942)])
def test_edges_refuse_an_array_that_is_not_2d(shape):
    with pytest.raises(InvalidArgumentError, match=re.escape(
            f"edges need a (turns, samples) array of samples, got {shape}")):
        detect_patch_edges(np.zeros(shape))


@pytest.mark.parametrize(
    "call, line",
    [
        pytest.param(lambda: detect_patch_edges(np.zeros((3, 0))),
                     "edges need a (turns, samples) array of samples, got (3, 0)",
                     id="edges-of-empty-rows"),
        pytest.param(lambda: accel_to_displacement(np.array(1.0), FS, 21.2),
                     "a turn needs at least 2 samples to integrate, got 1",
                     id="integration-of-0-d"),
        pytest.param(lambda: moving_average(np.array(1.0), 5),
                     "moving average needs a finite width and an axis, got 5",
                     id="moving-average-of-0-d"),
        pytest.param(lambda: moving_average(np.zeros(10), np.nan),
                     "moving average needs a finite width and an axis, got nan",
                     id="moving-average-nan-width"),
        pytest.param(lambda: moving_average(np.zeros(10), np.inf),
                     "moving average needs a finite width and an axis, got inf",
                     id="moving-average-inf-width"),
        pytest.param(lambda: highpass(np.zeros(0), FS, 1.0),
                     "a high-pass needs samples along the last axis, got (0,)",
                     id="highpass-of-empty"),
        pytest.param(lambda: highpass(np.array(1.0), FS, 1.0),
                     "a high-pass needs samples along the last axis, got ()",
                     id="highpass-of-0-d"),
    ],
)
def test_degenerate_arrays_are_refused_in_one_line(call, line):
    # a one-line refusal of the argument, not an error from inside numpy
    with pytest.raises(InvalidArgumentError) as raised:
        call()
    assert str(raised.value) == line


def test_dead_turn_with_noisy_ends_raises():
    # a turn whose tangential channel is zero except one noise-level sample
    # left at each end by segmentation has no spikes, hence no patch
    segment = np.zeros(944)
    segment[0] = segment[-1] = 25.0
    assert rule_failed(segment) != 0


@pytest.mark.parametrize(
    "entry, exit_, rule",
    [(3, 300, 2), (600, 940, 2), (400, 405, 3)],
    ids=["leading-at-start", "trailing-at-end", "narrower-than-smoothing"],
)
def test_strong_spikes_that_cannot_be_a_patch_raise(entry, exit_, rule):
    # spikes far above the noise floor, in order, less than half a turn apart,
    # but at the window boundary or closer than the 9-sample smoothing width
    segment = np.random.default_rng(4).normal(0.0, 1.0, 944)
    segment[entry] += 100.0
    segment[exit_] -= 100.0
    assert rule_failed(segment) == rule


def test_reversed_sign_convention_raises(clean_trace):
    trace, truth = clean_trace
    seg = segment_turns(trace, truth.wheel_period_s[0])[0]
    assert rule_failed(-trace.a_tangential[seg.start_index : seg.end_index]) == 1


def reference_patch_edges(x, smooth_fraction=0.01):
    """One turn's edges, the number of the first rule failed (0: none) and
    the noise floor, written as a plain per-turn loop body."""
    n = len(x)
    width = int(round(n * smooth_fraction))
    smooth = np.convolve(x, np.full(max(1, width), 1.0 / max(1, width)), "same")

    def refine(index, sign):
        lo = max(0, index - width)
        return lo + int(np.argmax(sign * x[lo : index + width + 1]))

    leading = refine(int(np.argmax(smooth)), 1.0)
    trailing = refine(int(np.argmin(smooth)), -1.0)
    median = np.median(x)
    floor = 10.0 * 1.4826 * np.median(np.abs(x - median))
    if not 0 < trailing - leading < n // 2:
        rule = 1
    elif leading < width or trailing > n - 1 - width:
        rule = 2
    elif trailing - leading <= width:
        rule = 3
    elif not min(x[leading] - median, median - x[trailing]) > floor:
        rule = 4
    else:
        rule = 0
    return leading, trailing, rule, floor


@pytest.mark.parametrize("length", [300, 941, 944])
def test_edge_batch_matches_per_turn_reference(length):
    # noise with spike pairs of random height at random places: every rule
    # fires on some rows, and continuous values leave no ties
    rng = np.random.default_rng(length)
    turns = rng.normal(0.0, 1.0, (400, length)) * rng.choice([0.3, 1.0, 3.0], (400, 1))
    rows = np.arange(400)
    for _ in range(2):
        height = rng.choice([2.0, 5.0, 20.0, 100.0], 400)
        turns[rows, rng.integers(0, length, 400)] += height
        turns[rows, rng.integers(0, length, 400)] -= height
    edges = detect_patch_edges(turns)
    leading, trailing, rule, floor = zip(*(reference_patch_edges(turn) for turn in turns))
    assert edges.leading.tolist() == list(leading)
    assert edges.trailing.tolist() == list(trailing)
    assert edges.failed.tolist() == list(rule)
    assert set(rule) == {0, 1, 2, 3, 4}
    assert np.allclose(edges.floor, floor, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("width", [1, 2, 9, 10, 19])
def test_moving_average_matches_convolution(width):
    x = np.random.default_rng(width).normal(5.0, 1.0, (3, 500))
    kernel = np.full(width, 1.0 / width)
    expected = np.array([np.convolve(row, kernel, "same") for row in x])
    assert np.abs(moving_average(x, width) - expected).max() < 1e-12
    assert np.abs(moving_average(x[0], width) - expected[0]).max() < 1e-12


def reference_moving_average(signal, width):
    """moving_average's arithmetic with a second array: zeros, cumsum,
    subtract into a new array, divide."""
    width = max(1, int(width))
    x = np.asarray(signal, dtype=float)
    if width == 1:
        return x
    n = x.shape[-1]
    front = width // 2 + 1
    total = np.zeros(x.shape[:-1] + (n + width,))
    np.cumsum(x, axis=-1, out=total[..., front : front + n])
    total[..., front + n :] = total[..., front + n - 1 : front + n]
    out = np.subtract(total[..., width:], total[..., :-width])
    out /= width
    return out


@pytest.mark.parametrize("width", [1, 2, 9, 19, 600])
@pytest.mark.parametrize("shape", [(500,), (3, 500), (2, 3, 500), (0,), (3, 0)])
def test_moving_average_keeps_the_reference_bits(shape, width):
    # segment_turns and detect_patch_edges take argmin and argmax of these
    # values, so a rounding change could move a window
    x = np.random.default_rng(width).normal(5.0, 1.0, shape)
    smooth = moving_average(x, width)
    expected = reference_moving_average(x, width)
    assert smooth.shape == expected.shape
    assert smooth.tobytes() == expected.tobytes()


def test_moving_average_peak_memory_stays_near_the_output():
    # the outputs overwrite their own running sums: one array per call
    channel = np.random.default_rng(3).normal(0.0, 1.0, 100_000)
    tracemalloc.start()
    try:
        smooth = moving_average(channel, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * smooth.nbytes


def test_fast_length_is_the_smallest_5_smooth_length():
    # every 2^a * 3^b * 5^c up to 20000, which is one itself
    smooth = np.unique([2**a * 3**b * 5**c
                        for a in range(15) for b in range(10) for c in range(7)])
    n = np.arange(1, 20_001)
    expected = smooth[np.searchsorted(smooth, n)]
    assert [_fast_length(int(k)) for k in n] == expected.tolist()


@pytest.mark.parametrize("length", [1, 2, 7, 8, 942, 943, 944])
def test_deviation_median_matches_numpy(length):
    # Small integers: many ties, and every median and deviation is exact.
    # Then the same rows plus gaussian noise, and constant rows.  The feature
    # pass sends blocks of 1 to 139 turns.
    rng = np.random.default_rng(length)
    for turns in (1, 40, 139, 300):
        ties = rng.integers(-4, 5, (turns, length)).astype(float)
        for rows in (ties, ties + rng.normal(size=ties.shape), np.repeat(ties[:, :1], length, axis=1)):
            median = np.median(rows, axis=1)
            deviation = np.median(np.abs(rows - median[:, None]), axis=1)
            assert np.array_equal(np.array(_deviation_median(rows)), [median, deviation])
