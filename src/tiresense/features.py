"""Per-turn scalar features of the tire footprint.

Each wheel turn reduces to four numbers: contact patch length from the
tangential edge spikes, peak radial displacement (the dip amplitude of the
integrated radial channel), peak lateral displacement, and the slope of the
initial part of the lateral profile.  Every feature is computed for all
turns of a trace, into one table with a record per turn, a block of turns
at a time: with no ``(turns, samples)`` array as large as the trace, an
estimate's temporaries fit in heap memory that earlier estimates freed,
instead of being handed back to the system and faulted in again.  Wheel
speed comes from trace metadata, not from an assumed radius, so the
features stay independent of wear-state knowledge.

The dip is read at two columns of each turn's radial profile: the patch
centre and one column per trace, where the mean profile of the trace's
turns peaks outward; the lateral peak at one column per trace.  The maximum
of each noisy profile would be biased upward by its noise, more so the
longer the turn; a fixed column is not.  Each feature is linear in the
turn's samples, a dot product with ``dsp.displacement_weights`` rows, so no
turn is integrated: one ``accel_to_displacement`` call integrates the mean
radial and lateral turns as the rows of one array, and each feature builds
the rows it reads with its own ``displacement_weights`` call, a gather from
the chain's circulant windows, which ``dsp`` keeps per turn length.
"""

from __future__ import annotations

import numpy as np

from .dsp import (
    PatchEdges,
    _line_slope,
    accel_to_displacement,
    detect_patch_edges,
    displacement_weights,
    estimate_period,
    segment_turns,
)
from .simulate import AccelTrace

# Fraction of the patch window used for the "initial linear part" fit.
SLOPE_FIT_FRACTION = 0.3

# Edge rule 4: each spike of a turn must clear this many noise sigmas, the
# turn's residual rms against the trace's mean turn, off the patch.
EDGE_NOISE_FLOOR_SIGMAS = 10.0

# Samples of one channel the feature pass gathers at a time: 1 MiB of
# float64, 139 turns at 942 samples.  Turn-sized arrays then stay a fixed
# size instead of growing with the trace.
FEATURE_BLOCK_SAMPLES = 2**17

# The feature table's fields, one record per turn: patch length (m), dip
# amplitude (mm, >= 0 for a real patch), peak lateral displacement (mm,
# magnitude) and lateral slope (mm lateral per mm of patch travel).
FEATURE_FIELDS = ("patch_length", "peak_radial_displacement",
                  "peak_lateral_displacement", "lateral_slope")


def _turn_blocks(channel: np.ndarray, at: np.ndarray, length: int):
    """``(part, block)`` for consecutive blocks of the windows of ``channel``
    that start at ``at``: ``part`` slices ``at`` and ``block`` holds those
    windows as rows, at most ``FEATURE_BLOCK_SAMPLES`` samples and at least
    one row."""
    windows = np.lib.stride_tricks.sliding_window_view(channel, length)
    size = max(1, FEATURE_BLOCK_SAMPLES // length)
    for lo in range(0, len(at), size):
        part = slice(lo, lo + size)
        yield part, windows[at[part]]


def _mean_turn(samples: np.ndarray, at: np.ndarray, length: int) -> np.ndarray:
    """Mean of the ``length``-row windows of ``samples`` that start at ``at``,
    summed one window after another, the order ``rows.mean(axis=0)`` sums the
    rows of an array in; one call sums every channel of a trace."""
    total = samples[at[0] : at[0] + length].copy()
    for start in at[1:].tolist():
        total += samples[start : start + length]
    return total / len(at)


def _residual_rms(channel: np.ndarray, at: np.ndarray, mean: np.ndarray, leading: np.ndarray,
                  trailing: np.ndarray) -> tuple[float, np.ndarray]:
    """The level of ``mean``, the mean of the N windows of ``channel`` that
    start at ``at``, and each window's rms residual against it, both off the
    median patch widened by half a patch plus 2 samples on each side, where
    the spikes' sub-sample jitter swamps a residual.  The rms is scaled by
    ``sqrt(N / (N - 1))``: a window's share of the mean would read it low.
    It is infinite with one window, or no column off the patch."""
    lead, trail = int(np.median(leading)), int(np.median(trailing))
    pad = (trail - lead) // 2 + 2
    patch = slice(max(lead - pad, 0), trail + pad + 1)
    off = np.delete(mean, patch)
    if len(at) < 2 or not len(off):
        return 0.0, np.full(len(at), np.inf)
    sums = []
    for _, block in _turn_blocks(channel, at, len(mean)):
        block -= mean  # the gathered block is a copy
        block[:, patch] = 0.0
        sums.append(np.einsum("ti,ti->t", block, block))
    return off.mean(), np.sqrt(np.concatenate(sums) * (len(at) / ((len(at) - 1) * len(off))))


def _clears_noise_floor(peak: np.ndarray, trough: np.ndarray, level: float,
                        sigma: np.ndarray) -> np.ndarray:
    """Edge rule 4: True where the weaker spike, ``peak`` above ``level`` or
    ``trough`` below it, clears ``EDGE_NOISE_FLOOR_SIGMAS`` x ``sigma``."""
    return np.minimum(peak - level, level - trough) > EDGE_NOISE_FLOOR_SIGMAS * sigma


def lateral_features(
    lateral: np.ndarray, at: np.ndarray, profile: np.ndarray, leading: np.ndarray,
    trailing: np.ndarray, wheel_speed: float, sample_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Peak lateral displacement (mm) and initial slope (mm/mm) of each raw
    lateral turn, the samples of the ``lateral`` channel from each start in
    ``at`` (at least one), with patch edges ``leading`` and ``trailing``.
    ``profile`` is the integrated mean of those turns.  The peak is read at
    one column: where ``profile`` is largest in magnitude within the median
    patch plus one patch-length of release after the exit, where the brush
    deflection tops out.  Each slope is the least-squares line through the
    first ``SLOPE_FIT_FRACTION`` of the turn's patch against patch-travel
    distance; both features are dot products with ``displacement_weights``
    rows.
    """
    n = len(profile)
    start = int(np.median(leading))
    window = np.abs(profile[start : start + 2 * int(np.median(trailing - leading))])
    # each slope fits the first 30% of its patch, to the turn's end at the latest
    fit_n = np.clip(np.round(SLOPE_FIT_FRACTION * (trailing - leading)).astype(int), 2, n - leading)
    first = leading.min()
    weights = displacement_weights(n, sample_rate, np.append(
        np.arange(first, (leading + fit_n).max()), start + np.argmax(window)))
    # one group per (leading, fit_n) pair, keyed as one integer
    keys, group = np.unique(leading * (n + 1) + fit_n, return_inverse=True)
    fits = np.array([_line_slope(weights[lo : lo + size].T)
                     for lo, size in zip(keys // (n + 1) - first, keys % (n + 1))])
    peak, slope = [], []
    for part, block in _turn_blocks(lateral, at, n):
        peak.append(np.einsum("ti,i->t", block, weights[-1]))
        slope.append(np.einsum("ti,ti->t", block, fits[group[part]]))
    return np.abs(np.concatenate(peak)), np.concatenate(slope) / (wheel_speed / sample_rate * 1e3)


def extract_features(trace: AccelTrace, wheel_speed: float, radius_hint: float,
                     include_lateral: bool = True) -> tuple[np.recarray, int]:
    """Feature table of a trace: one record per turn, fields ``FEATURE_FIELDS``.

    Turns that fail an edge rule keep their record, with NaN features, so
    record ``i`` is turn ``i`` and downstream tables stay aligned with the
    turn count; the second return value counts them.  Rule 4 follows the
    rules of ``detect_patch_edges``, once per trace: ``_clears_noise_floor``
    against ``_residual_rms``.  Without ``include_lateral`` both lateral
    features are 0 on the other turns.  ``wheel_speed`` is the vehicle speed
    from trace metadata and ``radius_hint`` seeds the period search only.
    Turns are gathered in blocks of at most ``FEATURE_BLOCK_SAMPLES`` samples
    per channel, so no per-turn temporary grows with the trace; no feature
    depends on where a block ends.
    """
    period = estimate_period(trace, wheel_speed, radius_hint)
    turns = segment_turns(trace, period)  # one record per turn, every window of one length
    starts, length = turns.start_index, int(turns.end_index[0] - turns.start_index[0])

    fs, tangential = trace.sample_rate, trace.a_tangential
    edges = PatchEdges(*map(np.concatenate, zip(*(
        detect_patch_edges(block) for _, block in _turn_blocks(tangential, starts, length)))))
    ok = np.flatnonzero(edges.failed == 0)
    if len(ok):  # rule 4 against each turn's noise
        at, leading, trailing = starts[ok], edges.leading[ok], edges.trailing[ok]
        mean = _mean_turn(trace.samples, at, length).T  # tangential, lateral, radial
        spiked = _clears_noise_floor(tangential[at + leading], tangential[at + trailing],
                                     *_residual_rms(tangential, at, mean[0], leading, trailing))
        if spiked.any() and not spiked.all():  # the dip and lateral columns read the turns kept
            mean = _mean_turn(trace.samples, starts[ok[spiked]], length).T
        ok = ok[spiked]
    at, leading, trailing = starts[ok], edges.leading[ok], edges.trailing[ok]

    columns = np.full((4, len(starts)), np.nan)
    patch, dip, peak, slope = columns  # views: each fills one column
    patch[ok] = wheel_speed * (trailing - leading) / fs
    if len(ok):
        # The sensor channel is centre-positive, so the patch shows up as a
        # peak of its displacement: the dip of the outward-positive profile
        # is the centre's height over the column where the mean profile of
        # the trace's turns is lowest.
        profiles = accel_to_displacement(mean[[2, 1] if include_lateral else [2]], fs, fs / length)
        centres, group = np.unique((leading + trailing) // 2, return_inverse=True)
        weights = displacement_weights(length, fs, [*centres, np.argmin(profiles[0])])
        rows = weights[:-1] - weights[-1]
        dip[ok] = np.concatenate([np.einsum("ti,ti->t", block, rows[group[part]])
                                  for part, block in _turn_blocks(trace.a_radial, at, length)])
        peak[ok] = slope[ok] = 0.0
        if include_lateral:
            peak[ok], slope[ok] = lateral_features(trace.a_lateral, at, profiles[1], leading,
                                                   trailing, wheel_speed, fs)
    return np.rec.fromarrays(columns, names=FEATURE_FIELDS), len(starts) - len(ok)
