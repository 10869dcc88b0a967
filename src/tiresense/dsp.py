"""Per-revolution segmentation, drift-free integration and edge detection.

The displacement pipeline mirrors the processing chain used on real liner
signals: extract one wheel turn, remove the mean, high-pass, integrate,
high-pass again, integrate again, and detrend.  Filtering before each
integration is what keeps a constant accelerometer bias from turning into
quadratic drift.  Filters run forward and backward so the patch features
keep their timing (zero net phase).  Turns share one length, so the edge
detection takes a ``(turns, samples)`` array, a block of turns per call.
The chain is linear, so a column of a turn's profile is also a dot product
of the turn with a ``displacement_weights`` row.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, NoPeakError, TooShortError
from .simulate import MIN_SAMPLES_PER_TURN, AccelTrace

# High-pass corner as a fraction of the wheel rotation frequency: below the
# once-per-turn fundamental that carries the patch dip, far above DC.
CUTOFF_ROTATION_FRACTION = 0.3

# Leading hinted turns the coarse period's autocorrelation covers; turn
# tracking and the grid fit in segment_turns set the final period.
PERIOD_PREFIX_TURNS = 20

# A turn that a trace end cuts by more than this fraction of a turn is dropped.
MAX_CUT_FRACTION = 0.2

# Smoothing window widths, as fractions of one turn.
PATCH_SMOOTH_FRACTION = 1.0 / 50.0
EDGE_SMOOTH_FRACTION = 1.0 / 100.0

# Edge plausibility.  Edges closer than EDGE_MARGIN_WIDTHS edge-smoothing
# widths to a window end, or no more than EDGE_MIN_SEPARATION_WIDTHS widths
# apart, do not bracket a patch.  Each spike must clear EDGE_NOISE_FLOOR_SIGMAS
# robust noise sigmas of the turn (MAD_TO_SIGMA x median absolute deviation).
EDGE_MARGIN_WIDTHS = 1
EDGE_MIN_SEPARATION_WIDTHS = 1
EDGE_NOISE_FLOOR_SIGMAS = 10.0
MAD_TO_SIGMA = 1.4826

# (turn length, sample rate) pairs whose integration chain displacement_weights
# keeps: a calibration grid's speeds at one or two sample rates.
CHAIN_CACHE_SIZE = 16


def moving_average(signal: np.ndarray, width: int) -> np.ndarray:
    """Centred moving average along the last axis; width is clamped to at
    least one sample.

    Samples beyond either end count as zeros, as in
    ``np.convolve(signal, np.ones(width) / width, "same")``.  Each output is
    a difference of two running sums, so the cost does not grow with width.
    """
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


def highpass(signal: np.ndarray, sample_rate: float, cutoff: float) -> np.ndarray:
    """Zero-phase second-order high-pass (Butterworth response squared).

    Equivalent to running the filter forward then backward: the magnitude
    response is applied twice and the phase response cancels exactly, so
    peak timing is preserved.  Each row of a 2-D input is filtered on its
    own.  Realised in the frequency domain, which treats the window as
    circular; per-turn windows are near-periodic by construction (one
    patch, boundaries in the quiet part of the revolution), so this avoids
    the boundary transients a padded time-domain filter leaves on windows
    only a couple of filter time constants long.  DC gain is zero and the
    passband is within 1% of unity from 4x the cutoff upward.
    """
    if not 0.0 < cutoff < sample_rate / 2.0:
        raise InvalidArgumentError(
            f"cutoff {cutoff} Hz must lie inside (0, {sample_rate / 2:.0f}) Hz"
        )
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    ratio = (np.fft.rfftfreq(n, 1.0 / sample_rate) / cutoff) ** 2
    # |H|^2 of a second-order Butterworth high-pass, once per direction.
    return np.fft.irfft(np.fft.rfft(x) * (ratio**2 / (1.0 + ratio**2)), n)


def _fast_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c that is at least ``n``."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def estimate_period(
    trace: AccelTrace, speed_hint: float, radius_hint: float
) -> float:
    """Coarse wheel period from the radial channel's autocorrelation.

    The autocorrelation covers the first ``PERIOD_PREFIX_TURNS`` hinted
    turns, and its peak is searched within +/-20% of the hinted kinematic
    period ``2 * pi * radius / speed``.  The result is a whole number of
    samples; ``segment_turns`` refines it.

    Raises
    ------
    InvalidArgumentError
        If a hint is not positive and finite, or the hinted period is
        shorter than ``MIN_SAMPLES_PER_TURN`` samples.
    TooShortError
        If the trace covers fewer than three of the shortest periods the
        search accepts, 0.8 times the hinted one.
    NoPeakError
        If no interior autocorrelation maximum exists in the window, for
        example on a constant signal.
    """
    for name, hint in (("speed", speed_hint), ("radius", radius_hint)):
        if not 0.0 < hint < np.inf:
            raise InvalidArgumentError(f"{name} hint must be positive and finite, got {hint}")
    fs = trace.sample_rate
    hinted = 2.0 * np.pi * radius_hint / speed_hint
    if not hinted * fs >= MIN_SAMPLES_PER_TURN:
        raise InvalidArgumentError(
            f"hinted period {hinted * 1e3:.4g} ms (radius {radius_hint} m, speed "
            f"{speed_hint} m/s) is shorter than {MIN_SAMPLES_PER_TURN} samples at {fs:g} Hz"
        )
    shortest = 0.8 * hinted
    n = len(trace)
    if n < 3 * shortest * fs:
        # rounded apart, so that a refused trace never reads as long enough
        raise TooShortError(
            f"need at least 3 periods of 0.8 x the hint ({np.ceil(3e3 * shortest):.0f} ms), "
            f"trace has {np.floor(1e3 * n / fs):.0f} ms"
        )
    x = trace.a_radial[: int(round(PERIOD_PREFIX_TURNS * hinted * fs))]
    x = x - x.mean()
    n = len(x)
    # hinted * fs >= 20 and n >= 2.4 * hinted * fs leave 16 <= lo < hi <= n - 2
    lo = int(np.floor(shortest * fs))
    hi = int(np.ceil(1.2 * hinted * fs))
    # Circular wrap-around reaches only lags > m - n, so m >= n + hi + 1
    # keeps it off every lag up to hi + 1, the last one read.
    m = _fast_length(n + hi + 1)
    spectrum = np.fft.rfft(x, m)
    autocorr = np.fft.irfft(spectrum * np.conj(spectrum), m)[: hi + 2]
    window = autocorr[lo : hi + 1]
    k = int(np.argmax(window)) + lo
    if autocorr[k] <= 0.0 or not (
        autocorr[k] > autocorr[k - 1] and autocorr[k] >= autocorr[k + 1]
    ):
        raise NoPeakError("no autocorrelation peak inside the lag window")
    return k / fs


def segment_turns(trace: AccelTrace, period: float) -> np.recarray:
    """Split a trace into whole revolutions, one centred patch per segment:
    a record array with one record per turn, its sample window
    ``[start_index, end_index)``.

    Patch centres are the minima of the lightly smoothed radial channel.
    Starting from the deepest one, each next centre is searched within
    +/-period/10 of one ``period`` past the previous centre, in both
    directions, so a coarse period cannot make the search drift off the
    patch.  A least-squares line through the centres gives the phase and
    the period of the turn grid.  Every segment is ``round(fitted period)``
    samples long and centred on a grid point.  A turn that a trace end cuts
    by more than ``MAX_CUT_FRACTION`` of a turn is dropped; a shorter cut
    shifts its window back inside the trace.

    Raises
    ------
    TooShortError
        If the trace holds no complete turn.
    """
    if not np.isfinite(period) or period <= 0:
        raise TooShortError("period must be positive and finite")
    fs = trace.sample_rate
    n = len(trace)
    p = period * fs
    if n < int(round(p)):
        raise TooShortError("trace is shorter than one wheel turn")

    smooth = moving_average(trace.a_radial, int(round(p * PATCH_SMOOTH_FRACTION)))
    half_window = max(1, int(round(p / 10.0)))

    def track(center: int, step: float) -> list[int]:
        found = []
        while True:
            lo = int(round(center + step - half_window))
            hi = int(round(center + step + half_window))
            if lo < 0 or hi >= n:
                return found
            center = lo + int(smooth[lo : hi + 1].argmin())
            found.append(center)

    anchor = int(np.argmin(smooth))
    centers = np.array(track(anchor, -p)[::-1] + [anchor] + track(anchor, p), dtype=float)
    if len(centers) > 1:
        p = _line_slope(centers)
    length = int(round(p))
    # The search stops where its window leaves the trace, so every turn cut
    # by less than MAX_CUT_FRACTION has a tracked centre.
    k = np.arange(len(centers)) - (len(centers) - 1) / 2.0
    starts = np.round(centers.mean() + k * p - length / 2.0).astype(int)
    cut = np.maximum(-starts, starts + length - n)
    starts = np.clip(starts[cut <= MAX_CUT_FRACTION * length], 0, n - length)
    if not len(starts):
        raise TooShortError("no complete wheel turn found")
    return np.rec.fromarrays([starts, starts + length], names=("start_index", "end_index"))


def _line_slope(y: np.ndarray) -> np.ndarray:
    """Least-squares slope of ``y`` per sample along its last axis."""
    t = np.arange(y.shape[-1]) - (y.shape[-1] - 1) / 2.0
    # einsum sums each row on its own; a BLAS matrix-vector product rounds a
    # row's sum by the row's place in the batch.
    return np.einsum("...i,i->...", y, t) / (t @ t)


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoidal integral of evenly spaced samples along the last
    axis, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(dx * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return out


def _integrate_twice(
    x: np.ndarray, sample_rate: float, rotation_frequency: float
) -> np.ndarray:
    """High-pass at ``CUTOFF_ROTATION_FRACTION`` of the rotation frequency,
    integrate, high-pass again and integrate again, along the last axis."""
    dt = 1.0 / sample_rate
    cutoff = CUTOFF_ROTATION_FRACTION * rotation_frequency
    velocity = _cumulative_trapezoid(highpass(x, sample_rate, cutoff), dt)
    return _cumulative_trapezoid(highpass(velocity, sample_rate, cutoff), dt)


def accel_to_displacement(
    channel: np.ndarray, sample_rate: float, rotation_frequency: float
) -> np.ndarray:
    """Drift-free double integration of one turn's acceleration channel, or
    of one turn per row of a 2-D array (the last axis is time).

    Pipeline: remove the per-turn mean, high-pass at 0.3x the rotation
    frequency, integrate, high-pass again, integrate again, subtract the
    per-turn mean and linear trend.  Output is in millimetres.  Any constant
    bias on the input dies at the mean-removal stage, so the output stays
    bounded.  Each row's profile depends on that row alone, bit for bit.
    """
    x = np.asarray(channel, dtype=float)
    n = x.shape[-1]
    disp = _integrate_twice(x - x.mean(axis=-1, keepdims=True), sample_rate, rotation_frequency)
    disp -= disp.mean(axis=-1, keepdims=True)
    disp -= _line_slope(disp)[..., None] * (np.arange(n) - (n - 1) / 2.0)
    disp *= 1e3
    return disp


@functools.lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _chain(n: int, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The circulant windows of the chain's zero-mean impulse response ``h``
    on an n-sample turn, whose window ``n - 1 - j`` is ``h[(j - i) mod n]``,
    and the circular correlation ``C^T t`` of the centred ramp ``t`` with ``h``.

    Both depend on the length and the rate alone, so they are built once per
    pair, and are read-only: every caller shares them.
    """
    impulse = np.full(n, -1.0 / n)
    impulse[0] += 1.0
    response = _integrate_twice(impulse, sample_rate, sample_rate / n)
    # Both inputs of a convolution have zero mean, so the output has too,
    # and a constant times the sum of a row cannot creep in through rounding.
    response -= response.mean()
    t = np.arange(n) - (n - 1) / 2.0
    correlation = np.fft.irfft(np.fft.rfft(t) * np.conj(np.fft.rfft(response)), n)
    correlation.flags.writeable = False
    # the reversed response tiled twice; the view of its windows is read-only
    return np.lib.stride_tricks.sliding_window_view(np.tile(response[::-1], 2), n), correlation


def displacement_weights(n: int, sample_rate: float, columns: np.ndarray) -> np.ndarray:
    """One row per column ``j`` of ``columns``: the weights ``w_j`` with
    ``w_j @ x == accel_to_displacement(x, sample_rate, sample_rate / n)[j]``
    for any n-sample turn ``x``, up to rounding.

    The chain up to the detrend is linear, and on the circular turn window
    it commutes with shifts up to an added constant: each high-pass is a
    circular filter, and a trapezoid of a zero-mean window, shifted
    circularly, is the shifted trapezoid plus a constant.  The detrend
    removes those constants.  So ``accel_to_displacement`` is
    ``1e3 * P_t C P_1 x``, where ``P_1`` removes the mean, ``C`` is the
    circular convolution with the chain's zero-mean impulse response ``h``
    and ``P_t`` the detrend against ``t``, and
    ``w_j = 1e3 * P_1 (C^T e_j - (t_j / t.t) C^T t)``, where
    ``(C^T e_j)[i] = h[(j - i) mod n]`` and ``C^T t`` is the circular
    correlation of ``t`` with ``h``.  The windows of ``h`` and ``C^T t`` are
    built on the first call for each ``(n, sample_rate)`` and kept for the
    ``CHAIN_CACHE_SIZE`` most recent pairs, so a call only gathers and
    detrends its rows; ``accel_to_displacement`` keeps nothing and runs the
    chain on every call.
    """
    windows, correlation = _chain(n, sample_rate)
    t = np.arange(n) - (n - 1) / 2.0
    columns = np.asarray(columns)
    rows = windows[n - 1 - columns]
    # one row at a time, so no temporary is as large as the rows
    for row, scale in zip(rows, t[columns] / (t @ t)):
        row -= scale * correlation
    rows -= rows.mean(axis=-1, keepdims=True)
    rows *= 1e3
    return rows


def double_integrate(channel: np.ndarray, sample_rate: float) -> np.ndarray:
    """Plain double trapezoidal integration, no filtering, metres.

    Negative control for the pipeline above: any constant bias grows as
    bias * t^2 / 2 and the output is unbounded over time.
    """
    dt = 1.0 / sample_rate
    velocity = _cumulative_trapezoid(channel, dt)
    return _cumulative_trapezoid(velocity, dt)


class PatchEdges(NamedTuple):
    """Patch edges of a batch of turns, one entry per turn."""

    leading: np.ndarray   # sample of the positive spike
    trailing: np.ndarray  # sample of the negative spike
    failed: np.ndarray    # 0, or the number (1-4) of the first rule failed
    spike: np.ndarray     # height of the weaker spike beyond the median
    floor: np.ndarray     # EDGE_NOISE_FLOOR_SIGMAS robust noise sigmas


def _deviation_median(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median of each row of a 2-D array, and median of ``|row - median|``.

    Along the sorted row the deviation falls to the median and rises after
    it, so its ``j + 1`` smallest values fill a run of ``j + 1`` neighbours,
    and its ``j``-th smallest value is the least, over all such runs, of the
    larger deviation at the run's two ends, ``median - row[a]`` and
    ``row[a + j] - median`` for the run from ``a``.  This needs no second
    sort.  For even ``n`` the upper middle's runs are one longer; since
    ``median - row[a]`` never rises along the row, the larger end of the run
    from ``a`` is the larger of it and the shorter run's from ``a + 1``.
    """
    rows = np.sort(rows, axis=-1)
    n = rows.shape[-1]
    j = (n - 1) // 2
    shift = n // 2 - j  # 1 for even n
    median = 0.5 * (rows[:, j] + rows[:, j + shift])
    lower = rows[:, : n - j] - median[:, None]
    np.negative(lower, out=lower)  # median - row[a], bit for bit
    ends = rows[:, j:] - median[:, None]
    np.maximum(lower, ends, out=ends)
    last = n - j - shift
    longer = np.maximum(lower[:, :last], ends[:, shift:], out=lower[:, :last])
    return median, 0.5 * (ends.min(axis=-1) + longer.min(axis=-1))


def detect_patch_edges(tangential: np.ndarray) -> PatchEdges:
    """Patch edges from the tangential extrema of each row of a
    ``(turns, samples)`` array.

    The leading edge is the global maximum and the trailing edge the global
    minimum after a moving average over ``EDGE_SMOOTH_FRACTION`` of the row
    (positive spike first is the sign convention the simulator and any
    correctly mounted sensor follow).
    ``failed`` is 0 where the extrema bracket a patch, and otherwise the
    number of the first rule they break:

    1. they are out of order, coincident, or more than half a turn apart,
       which signals a wrong sign convention or no patch;
    2. an edge lies within ``EDGE_MARGIN_WIDTHS`` smoothing widths of a
       window end: turns are cut with the patch near the centre, so an
       extremum at the boundary is a leftover sample of a neighbouring
       turn, not a spike;
    3. the edges are no more than ``EDGE_MIN_SEPARATION_WIDTHS`` smoothing
       widths apart: the smoothing cannot resolve two spikes that close,
       so they are one feature, not a patch entry and exit;
    4. either spike fails to clear ``EDGE_NOISE_FLOOR_SIGMAS`` robust noise
       sigmas (``MAD_TO_SIGMA`` x the turn's median absolute deviation)
       above or below the turn's median: the extremum is then just the
       largest noise sample, and a channel without spikes has no patch.
    """
    x = np.asarray(tangential, dtype=float)
    turns, n = x.shape
    width = int(round(n * EDGE_SMOOTH_FRACTION))
    # first, so that the sorted rows are freed before the smoothing allocates
    median, deviation = _deviation_median(x)
    floor = EDGE_NOISE_FLOOR_SIGMAS * (MAD_TO_SIGMA * deviation)
    smooth = moving_average(x, width)
    rows = np.arange(turns)
    offsets = np.arange(-width, width + 1)

    def refine(index: np.ndarray, sign: float) -> np.ndarray:
        # The smoothed extremum smears by up to half the window; the raw
        # spike inside that neighbourhood is the actual edge.  Clipped to
        # the window, the columns still never decrease, so argmax picks the
        # first maximum of the neighbourhood.
        columns = np.clip(index[:, None] + offsets, 0, n - 1)
        best = np.argmax(sign * x[rows[:, None], columns], axis=-1)
        return columns[rows, best]

    leading = refine(np.argmax(smooth, axis=-1), 1.0)
    trailing = refine(np.argmin(smooth, axis=-1), -1.0)
    separation = trailing - leading
    margin = EDGE_MARGIN_WIDTHS * width
    spike = np.minimum(x[rows, leading] - median, median - x[rows, trailing])
    failed = np.select(
        [
            ~((0 < separation) & (separation < n // 2)),
            (leading < margin) | (trailing > n - 1 - margin),
            separation <= EDGE_MIN_SEPARATION_WIDTHS * width,
            ~(spike > floor),
        ],
        [1, 2, 3, 4],
        0,
    )
    return PatchEdges(leading, trailing, failed, spike, floor)
