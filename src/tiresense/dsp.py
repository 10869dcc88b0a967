"""Per-revolution segmentation, drift-free integration and edge detection.

The displacement pipeline mirrors the processing chain used on real liner
signals: extract one wheel turn, remove the mean, high-pass, integrate,
high-pass again, integrate again, and detrend.  Filtering before each
integration is what keeps a constant accelerometer bias from turning into
quadratic drift.  Filters run forward and backward so the patch features
keep their timing (zero net phase).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EdgeOrderError,
    InvalidCutoffError,
    NoPeakError,
    TooShortError,
)
from .simulate import AccelTrace

# High-pass corner as a fraction of the wheel rotation frequency: below the
# once-per-turn fundamental that carries the patch dip, far above DC.
CUTOFF_ROTATION_FRACTION = 0.3

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


@dataclass(frozen=True)
class WheelTurnSegment:
    """One revolution's worth of samples, patch roughly centred."""

    start_index: int
    end_index: int
    period: float
    a_tangential: np.ndarray
    a_lateral: np.ndarray
    a_radial: np.ndarray

    def __len__(self) -> int:
        return self.end_index - self.start_index


@dataclass(frozen=True)
class DisplacementProfile:
    """Per-turn displacement in millimetres recovered by double integration.

    ``patch_window`` holds (leading, trailing) sample indices relative to
    the turn once edge detection has run; profiles fresh out of the
    integrator carry ``None``.
    """

    samples: np.ndarray
    axis: str
    patch_window: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self.samples)

    def with_patch_window(self, window: tuple[int, int]) -> "DisplacementProfile":
        return replace(self, patch_window=(int(window[0]), int(window[1])))


def moving_average(signal: np.ndarray, width: int) -> np.ndarray:
    """Centred moving average; width is clamped to at least one sample."""
    width = max(1, int(width))
    if width == 1:
        return np.asarray(signal, dtype=float)
    kernel = np.full(width, 1.0 / width)
    return np.convolve(np.asarray(signal, dtype=float), kernel, mode="same")


def highpass(signal: np.ndarray, sample_rate: float, cutoff: float) -> np.ndarray:
    """Zero-phase second-order high-pass (Butterworth response squared).

    Equivalent to running the filter forward then backward: the magnitude
    response is applied twice and the phase response cancels exactly, so
    peak timing is preserved.  Realised in the frequency domain, which
    treats the window as circular; per-turn windows are near-periodic by
    construction (one patch, boundaries in the quiet part of the
    revolution), so this avoids the boundary transients a padded
    time-domain filter leaves on windows only a couple of filter time
    constants long.  DC gain is zero and the passband is within 1% of
    unity from 4x the cutoff upward.
    """
    if not 0.0 < cutoff < sample_rate / 2.0:
        raise InvalidCutoffError(
            f"cutoff {cutoff} Hz must lie inside (0, {sample_rate / 2:.0f}) Hz"
        )
    x = np.asarray(signal, dtype=float)
    spectrum = np.fft.rfft(x)
    ratio = (np.fft.rfftfreq(len(x), 1.0 / sample_rate) / cutoff) ** 2
    # |H|^2 of a second-order Butterworth high-pass, once per direction.
    spectrum *= ratio**2 / (1.0 + ratio**2)
    return np.fft.irfft(spectrum, len(x))


def estimate_period(
    trace: AccelTrace, speed_hint: float, radius_hint: float
) -> float:
    """Wheel period from the radial channel's autocorrelation.

    The peak is searched within +/-20% of the hinted kinematic period
    ``2 * pi * radius / speed``.

    Raises
    ------
    TooShortError
        If the trace covers fewer than three hinted periods.
    NoPeakError
        If no interior autocorrelation maximum exists in the window, for
        example on a constant signal.
    """
    fs = trace.sample_rate
    hinted = 2.0 * np.pi * radius_hint / speed_hint
    n = len(trace)
    if n < 3 * hinted * fs:
        raise TooShortError(
            f"need at least 3 hinted periods ({3 * hinted:.3f} s), "
            f"trace has {n / fs:.3f} s"
        )
    x = trace.a_radial - trace.a_radial.mean()
    m = 1 << (2 * n - 1).bit_length()  # no circular wrap-around of lags < n
    spectrum = np.fft.rfft(x, m)
    autocorr = np.fft.irfft(spectrum * np.conj(spectrum), m)[:n]

    lo = max(1, int(np.floor(0.8 * hinted * fs)))
    hi = min(n - 2, int(np.ceil(1.2 * hinted * fs)))
    if lo >= hi:
        raise NoPeakError("autocorrelation search window is empty")
    window = autocorr[lo : hi + 1]
    k = int(np.argmax(window)) + lo
    if autocorr[k] <= 0.0 or not (
        autocorr[k] > autocorr[k - 1] and autocorr[k] >= autocorr[k + 1]
    ):
        raise NoPeakError("no autocorrelation peak inside the lag window")
    return k / fs


def segment_turns(trace: AccelTrace, period: float) -> list[WheelTurnSegment]:
    """Split a trace into whole revolutions, one patch per segment.

    Patch centres are the minima of the lightly smoothed radial channel;
    turn boundaries sit midway between consecutive centres, with half a
    period added before the first and after the last centre.

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
    anchor = int(np.argmin(smooth))

    half_window = max(1, int(round(p / 10.0)))
    centers: list[int] = []
    k_min = -int(np.floor(anchor / p)) - 1
    k_max = int(np.floor((n - 1 - anchor) / p)) + 1
    for k in range(k_min, k_max + 1):
        guess = anchor + k * p
        lo = int(round(guess - half_window))
        hi = int(round(guess + half_window))
        if lo < 0 or hi >= n:
            continue
        centers.append(lo + int(np.argmin(smooth[lo : hi + 1])))
    centers.sort()

    boundaries: list[int] = []
    for c_prev, c_next in zip(centers[:-1], centers[1:]):
        boundaries.append(int(round((c_prev + c_next) / 2.0)))
    if centers:
        # Clamp the half-period end caps: centre jitter of a few samples must
        # not cost a whole turn; the length guard below rejects real stubs.
        boundaries.insert(0, max(0, int(round(centers[0] - p / 2.0))))
        boundaries.append(min(n, int(round(centers[-1] + p / 2.0))))

    segments: list[WheelTurnSegment] = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        if end - start < 0.8 * p:  # guard against a truncated first/last turn
            continue
        segments.append(
            WheelTurnSegment(
                start_index=start,
                end_index=end,
                period=period,
                a_tangential=trace.a_tangential[start:end],
                a_lateral=trace.a_lateral[start:end],
                a_radial=trace.a_radial[start:end],
            )
        )
    if not segments:
        raise TooShortError("no complete wheel turn found")
    return segments


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoidal integral of evenly spaced samples, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(len(y))
    out[1:] = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    return out


def _linear_trend(signal: np.ndarray) -> np.ndarray:
    idx = np.arange(len(signal), dtype=float)
    slope, intercept = np.polyfit(idx, signal, 1)
    return slope * idx + intercept


def accel_to_displacement(
    channel: np.ndarray,
    sample_rate: float,
    rotation_frequency: float,
    axis: str = "radial",
) -> DisplacementProfile:
    """Drift-free double integration of one turn's acceleration channel.

    Pipeline: remove the per-turn mean, high-pass at 0.3x the rotation
    frequency, integrate, high-pass again, integrate again, subtract the
    per-turn linear trend.  Output is in millimetres.  Any constant bias on
    the input dies at the mean-removal stage, so the output stays bounded.
    """
    x = np.asarray(channel, dtype=float)
    dt = 1.0 / sample_rate
    cutoff = CUTOFF_ROTATION_FRACTION * rotation_frequency

    accel = highpass(x - x.mean(), sample_rate, cutoff)
    velocity = _cumulative_trapezoid(accel, dt)
    velocity = highpass(velocity, sample_rate, cutoff)
    disp = _cumulative_trapezoid(velocity, dt)
    disp = disp - _linear_trend(disp)
    return DisplacementProfile(samples=disp * 1e3, axis=axis)


def double_integrate(channel: np.ndarray, sample_rate: float) -> np.ndarray:
    """Plain double trapezoidal integration, no filtering, metres.

    Negative control for the pipeline above: any constant bias grows as
    bias * t^2 / 2 and the output is unbounded over time.
    """
    dt = 1.0 / sample_rate
    velocity = _cumulative_trapezoid(channel, dt)
    return _cumulative_trapezoid(velocity, dt)


def _sorted_median(values: np.ndarray) -> float:
    # On turn-length windows a full sort is several times faster than the
    # partition np.median uses.
    n = len(values)
    return 0.5 * float(values[(n - 1) // 2] + values[n // 2])


def detect_patch_edges(
    tangential: np.ndarray, smooth_fraction: float = EDGE_SMOOTH_FRACTION
) -> tuple[int, int]:
    """Patch edges from the tangential extrema of one turn.

    The leading edge is the global maximum and the trailing edge the global
    minimum after light smoothing (positive spike first is the sign
    convention the simulator and any correctly mounted sensor follow).

    Raises
    ------
    EdgeOrderError
        When the extrema do not bracket a patch:

        - they are out of order, coincident, or more than half a turn apart,
          which signals a wrong sign convention or no patch;
        - an edge lies within ``EDGE_MARGIN_WIDTHS`` smoothing widths of a
          window end: turns are cut with the patch near the centre, so an
          extremum at the boundary is a leftover sample of a neighbouring
          turn, not a spike;
        - the edges are no more than ``EDGE_MIN_SEPARATION_WIDTHS`` smoothing
          widths apart: the smoothing cannot resolve two spikes that close,
          so they are one feature, not a patch entry and exit;
        - either spike fails to clear ``EDGE_NOISE_FLOOR_SIGMAS`` robust noise
          sigmas (``MAD_TO_SIGMA`` x the turn's median absolute deviation)
          above or below the turn's median: the extremum is then just the
          largest noise sample, and a channel without spikes has no patch.
    """
    x = np.asarray(tangential, dtype=float)
    n = len(x)
    width = int(round(n * smooth_fraction))
    smooth = moving_average(x, width)

    def _refine(index: int, sign: float) -> int:
        # The smoothed extremum smears by up to half the window; the raw
        # spike inside that neighbourhood is the actual edge.
        lo = max(0, index - width)
        hi = min(n, index + width + 1)
        return lo + int(np.argmax(sign * x[lo:hi]))

    leading = _refine(int(np.argmax(smooth)), 1.0)
    trailing = _refine(int(np.argmin(smooth)), -1.0)
    separation = trailing - leading
    if not 0 < separation < n // 2:
        raise EdgeOrderError(
            f"edge extrema at {leading} and {trailing} do not bracket a patch"
        )
    margin = EDGE_MARGIN_WIDTHS * width
    if leading < margin or trailing > n - 1 - margin:
        raise EdgeOrderError(
            f"edge extrema at {leading} and {trailing} lie within {margin} "
            f"samples of the {n}-sample window end"
        )
    if separation <= EDGE_MIN_SEPARATION_WIDTHS * width:
        raise EdgeOrderError(
            f"edge extrema {separation} samples apart are no wider than the "
            f"{width}-sample smoothing"
        )
    median = _sorted_median(np.sort(x))
    sigma = MAD_TO_SIGMA * _sorted_median(np.sort(np.abs(x - median)))
    floor = EDGE_NOISE_FLOOR_SIGMAS * sigma
    weakest = min(x[leading] - median, median - x[trailing])
    if not weakest > floor:
        raise EdgeOrderError(
            f"edge spike of {weakest:.3g} does not clear the noise floor {floor:.3g}"
        )
    return leading, trailing
