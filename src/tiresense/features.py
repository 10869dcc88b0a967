"""Per-turn scalar features of the tire footprint.

Each wheel turn reduces to four numbers: contact patch length from the
tangential edge spikes, peak radial displacement (the dip amplitude of the
integrated radial channel), peak lateral displacement, and the slope of the
initial part of the lateral profile.  Wheel speed comes from trace
metadata, not from an assumed radius, so the features stay independent of
wear-state knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import (
    DisplacementProfile,
    _line_slope,
    _patch_edges,
    accel_to_displacement,
    estimate_period,
    segment_turns,
)
from .simulate import AccelTrace

# Fraction of the patch window used for the "initial linear part" fit.
SLOPE_FIT_FRACTION = 0.3


@dataclass(frozen=True)
class FootprintFeatures:
    """Scalar features of one wheel turn."""

    turn_index: int
    patch_length: float              # m
    peak_radial_displacement: float  # mm, dip amplitude, >= 0 for a real patch
    peak_lateral_displacement: float # mm, magnitude
    lateral_slope: float             # mm lateral per mm of patch travel


def patch_length(
    edges: tuple[int, int], wheel_speed: float, sample_rate: float
) -> float:
    """Patch length in metres from the edge spike separation."""
    leading, trailing = edges
    return wheel_speed * (trailing - leading) / sample_rate


def peak_radial_displacement(
    profile: DisplacementProfile, edges: tuple[int, int]
) -> float:
    """Dip amplitude of one turn's radial profile, millimetres.

    Measured as the profile maximum minus the value midway between the
    patch edges; relative rather than absolute so it is invariant to
    detrending.
    """
    leading, trailing = edges
    center = (leading + trailing) // 2
    return float(np.max(profile.samples) - profile.samples[center])


def lateral_features(
    profile: DisplacementProfile,
    edges: tuple[int, int],
    wheel_speed: float,
    sample_rate: float,
) -> tuple[float, float]:
    """Peak lateral displacement (mm) and initial slope (mm/mm).

    The peak is searched over the patch plus one patch-length of release
    after the exit, where the brush deflection tops out.  The slope is the
    least-squares line through the first 30% of the patch window against
    patch-travel distance.
    """
    leading, trailing = edges
    patch_samples = trailing - leading
    search_end = min(len(profile.samples), trailing + patch_samples)
    peak = float(np.max(np.abs(profile.samples[leading:search_end])))

    fit_n = max(2, int(round(SLOPE_FIT_FRACTION * patch_samples)))
    segment = profile.samples[leading : leading + fit_n]
    travel_mm_per_sample = wheel_speed / sample_rate * 1e3
    slope = float(_line_slope(segment)) / travel_mm_per_sample
    return peak, slope


def extract_features(
    trace: AccelTrace,
    wheel_speed: float,
    radius_hint: float,
    include_lateral: bool = True,
) -> tuple[list[FootprintFeatures], int]:
    """Feature rows for every turn of a trace, one row per segment.

    Turns whose edge detection fails keep their row with NaN features so
    downstream tables stay aligned with the turn count; the second return
    value counts them.  ``wheel_speed`` is the vehicle speed from trace
    metadata and ``radius_hint`` seeds the period search only.
    """
    period = estimate_period(trace, wheel_speed, radius_hint)
    segments = segment_turns(trace, period)
    length = len(segments[0])
    starts = np.array([seg.start_index for seg in segments])
    turns = trace.samples[starts[:, None] + np.arange(length)]  # (turns, length, 3)
    fs = trace.sample_rate
    rotation_frequency = fs / length
    # Radial displacement uses the outward-positive convention, so the
    # patch shows up as a dip; the sensor channel is centre-positive.
    radial = accel_to_displacement(-turns[:, :, 2], fs, rotation_frequency).samples
    if include_lateral:
        lateral = accel_to_displacement(turns[:, :, 1], fs, rotation_frequency).samples
    edges = _patch_edges(turns[:, :, 0])
    rows: list[FootprintFeatures] = []
    nan = float("nan")
    for index in range(len(segments)):
        if edges.failed[index]:
            rows.append(FootprintFeatures(index, nan, nan, nan, nan))
            continue
        pair = (int(edges.leading[index]), int(edges.trailing[index]))
        peak_lateral, slope = 0.0, 0.0
        if include_lateral:
            peak_lateral, slope = lateral_features(
                DisplacementProfile(lateral[index]), pair, wheel_speed, fs
            )
        rows.append(
            FootprintFeatures(
                turn_index=index,
                patch_length=patch_length(pair, wheel_speed, fs),
                peak_radial_displacement=peak_radial_displacement(
                    DisplacementProfile(radial[index]), pair
                ),
                peak_lateral_displacement=peak_lateral,
                lateral_slope=slope,
            )
        )
    return rows, int(np.count_nonzero(edges.failed))
