"""Per-turn scalar features of the tire footprint.

Each wheel turn reduces to four numbers: contact patch length from the
tangential edge spikes, peak radial displacement (the dip amplitude of the
integrated radial channel), peak lateral displacement, and the slope of the
initial part of the lateral profile.  Every feature is computed for all
turns of a trace at once, into one table with a record per turn.  Wheel
speed comes from trace metadata, not from an assumed radius, so the
features stay independent of wear-state knowledge.

The dip is read at two columns of each turn's radial profile: the patch
centre and one column per trace, where the mean profile of the trace's
turns peaks outward; the lateral peak at one column per trace.  The maximum
of each noisy profile would be biased upward by its noise, more so the
longer the turn; a fixed column is not.  Each feature is linear in the
turn's samples, a dot product with ``dsp.displacement_weights`` rows, so
only one mean row per channel is integrated, no turn.
"""

from __future__ import annotations

import numpy as np

from .dsp import (
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

# The feature table's fields: turn number, patch length (m), dip amplitude
# (mm, >= 0 for a real patch), peak lateral displacement (mm, magnitude) and
# lateral slope (mm lateral per mm of patch travel).
FEATURE_FIELDS = ("turn_index", "patch_length", "peak_radial_displacement",
                  "peak_lateral_displacement", "lateral_slope")


def lateral_features(
    lateral: np.ndarray, leading: np.ndarray, trailing: np.ndarray,
    wheel_speed: float, sample_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Peak lateral displacement (mm) and initial slope (mm/mm) of each raw
    lateral turn, one per row of ``lateral`` and at least one, given its edges.

    The peak is read at one column: where the rows' mean profile is largest
    in magnitude within the median patch plus one patch-length of release
    after the exit, where the brush deflection tops out.  The slope is the
    least-squares line through the first 30% of the row's patch window
    against patch-travel distance, ending at the row's end at the latest.
    Both are dot products with ``displacement_weights`` rows.
    """
    n = lateral.shape[-1]
    mean = accel_to_displacement(lateral.mean(axis=0), sample_rate, sample_rate / n)
    start = int(np.median(leading))
    window = mean[start : start + 2 * int(np.median(trailing - leading))]
    fit_n = np.clip(np.round(SLOPE_FIT_FRACTION * (trailing - leading)).astype(int), 2, n - leading)
    # one group per (leading, fit_n) pair, keyed as one integer
    keys, group = np.unique(leading * (n + 1) + fit_n, return_inverse=True)
    first = leading.min()
    weights = displacement_weights(n, sample_rate, np.append(
        np.arange(first, (leading + fit_n).max()), start + np.argmax(np.abs(window))))
    fits = np.array([_line_slope(weights[lo : lo + size].T)
                     for lo, size in zip(keys // (n + 1) - first, keys % (n + 1))])
    slope = np.einsum("ti,ti->t", lateral, fits[group]) / (wheel_speed / sample_rate * 1e3)
    return np.abs(np.einsum("ti,i->t", lateral, weights[-1])), slope


def extract_features(
    trace: AccelTrace,
    wheel_speed: float,
    radius_hint: float,
    include_lateral: bool = True,
) -> tuple[np.recarray, int]:
    """Feature table of a trace: one record per turn, fields ``FEATURE_FIELDS``.

    Turns whose edge detection fails keep their record, with their turn
    index and NaN features, so downstream tables stay aligned with the turn
    count; the second return value counts them.  Without ``include_lateral``
    both lateral features are 0 on the other turns.  ``wheel_speed`` is the
    vehicle speed from trace metadata and ``radius_hint`` seeds the period
    search only.
    """
    period = estimate_period(trace, wheel_speed, radius_hint)
    turns = segment_turns(trace, period)  # one record per turn, every window of one length
    starts, length = turns.start_index, int(turns.end_index[0] - turns.start_index[0])

    def by_turn(channel: np.ndarray, at: np.ndarray) -> np.ndarray:  # the turns starting at ``at``
        return np.lib.stride_tricks.sliding_window_view(channel, length)[at]

    fs = trace.sample_rate
    edges = detect_patch_edges(by_turn(trace.a_tangential, starts))
    ok = np.flatnonzero(edges.failed == 0)
    leading, trailing = edges.leading[ok], edges.trailing[ok]

    columns = np.full((4, len(starts)), np.nan)
    patch, dip, peak, slope = columns  # views: each fills one column
    patch[ok] = wheel_speed * (trailing - leading) / fs
    if len(ok):
        # The sensor channel is centre-positive, so the patch shows up as a
        # peak of its displacement: the dip of the outward-positive profile
        # is the centre's height over the column where the mean profile of
        # the trace's turns is lowest.
        radial = by_turn(trace.a_radial, starts[ok])
        mean = accel_to_displacement(radial.mean(axis=0), fs, fs / length)
        centres, group = np.unique((leading + trailing) // 2, return_inverse=True)
        weights = displacement_weights(length, fs, np.append(centres, np.argmin(mean)))
        dip[ok] = np.einsum("ti,ti->t", radial, (weights[:-1] - weights[-1])[group])
        del radial
        peak[ok] = slope[ok] = 0.0
        if include_lateral:
            lateral = by_turn(trace.a_lateral, starts[ok])
            peak[ok], slope[ok] = lateral_features(lateral, leading, trailing, wheel_speed, fs)
    table = np.rec.fromarrays([np.arange(len(starts)), *columns], names=FEATURE_FIELDS)
    return table, len(starts) - len(ok)
