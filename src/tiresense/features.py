"""Per-turn scalar features of the tire footprint.

Each wheel turn reduces to four numbers: contact patch length from the
tangential edge spikes, peak radial displacement (the dip amplitude of the
integrated radial channel), peak lateral displacement, and the slope of the
initial part of the lateral profile.  Every feature is computed for all
turns of a trace at once, into one table with a record per turn.  Wheel
speed comes from trace metadata, not from an assumed radius, so the
features stay independent of wear-state knowledge.
"""

from __future__ import annotations

import numpy as np

from .dsp import accel_to_displacement, detect_patch_edges, estimate_period, segment_turns
from .simulate import AccelTrace

# Fraction of the patch window used for the "initial linear part" fit.
SLOPE_FIT_FRACTION = 0.3

# The feature table's fields: turn number, patch length (m), dip amplitude
# (mm, >= 0 for a real patch), peak lateral displacement (mm, magnitude) and
# lateral slope (mm lateral per mm of patch travel).
FEATURE_FIELDS = ("turn_index", "patch_length", "peak_radial_displacement",
                  "peak_lateral_displacement", "lateral_slope")


def lateral_features(
    lateral: np.ndarray,
    leading: np.ndarray,
    trailing: np.ndarray,
    wheel_speed: float,
    sample_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Peak lateral displacement (mm) and initial slope (mm/mm) of each row
    of a ``(turns, samples)`` lateral profile, given each row's edges.

    The peak is searched over the patch plus one patch-length of release
    after the exit, where the brush deflection tops out.  The slope is the
    least-squares line through the first 30% of the patch window against
    patch-travel distance.  Both windows end at the row's end at the
    latest, and only they are gathered.
    """
    n = lateral.shape[-1]
    separation = trailing - leading
    offsets = np.arange(2 * separation.max(initial=0))
    # Clipped to the row, a window repeats the row's last sample, which
    # leaves the peak as it is; the slope fit stops at the row's end.
    window = lateral[np.arange(len(lateral))[:, None],
                     np.minimum(leading[:, None] + offsets, n - 1)]
    inside = offsets < 2 * separation[:, None]
    peak = np.where(inside, np.abs(window), 0.0).max(axis=1, initial=0.0)

    fit_n = np.maximum(2, np.round(SLOPE_FIT_FRACTION * separation).astype(int))
    fit_n = np.minimum(fit_n, n - leading)[:, None]
    t = offsets[: fit_n.max(initial=0)] - (fit_n - 1) / 2.0
    t[offsets[: t.shape[1]] >= fit_n] = 0.0
    slope = (window[:, : t.shape[1]] * t).sum(axis=1) / (t * t).sum(axis=1)
    return peak, slope / (wheel_speed / sample_rate * 1e3)


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
    segments = segment_turns(trace, period)
    length = len(segments[0])
    starts = np.array([seg.start_index for seg in segments])

    def by_turn(channel: np.ndarray) -> np.ndarray:  # a (turns, length) copy of one channel
        return np.lib.stride_tricks.sliding_window_view(channel, length)[starts]

    fs = trace.sample_rate
    rotation_frequency = fs / length
    edges = detect_patch_edges(by_turn(trace.a_tangential))
    ok = np.flatnonzero(edges.failed == 0)
    leading, trailing = edges.leading[ok], edges.trailing[ok]

    columns = np.full((4, len(segments)), np.nan)
    patch, dip, peak, slope = columns  # views: each fills one column
    patch[ok] = wheel_speed * (trailing - leading) / fs
    # Radial displacement uses the outward-positive convention, so the
    # patch shows up as a dip; the sensor channel is centre-positive.
    radial = accel_to_displacement(-by_turn(trace.a_radial), fs, rotation_frequency)
    dip[ok] = radial.max(axis=1)[ok] - radial[ok, (leading + trailing) // 2]
    del radial  # one full-length profile at a time
    if include_lateral:
        lateral = accel_to_displacement(by_turn(trace.a_lateral), fs, rotation_frequency)
        peak[ok], slope[ok] = lateral_features(
            lateral[ok], leading, trailing, wheel_speed, fs
        )
    else:
        peak[ok] = slope[ok] = 0.0
    table = np.rec.fromarrays([np.arange(len(segments)), *columns], names=FEATURE_FIELDS)
    return table, len(segments) - len(ok)
