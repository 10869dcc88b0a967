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
    accel_to_displacement,
    detect_patch_edges,
    estimate_period,
    segment_turns,
)
from .errors import EdgeOrderError, InvalidArgumentError
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


def peak_radial_displacement(profile: DisplacementProfile) -> float:
    """Dip amplitude of the radial profile, millimetres.

    Measured as the profile maximum minus the value at the patch centre;
    relative rather than absolute so it is invariant to detrending.
    """
    if profile.patch_window is None:
        raise InvalidArgumentError("radial profile needs a patch window")
    leading, trailing = profile.patch_window
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
    travel_mm = wheel_speed * np.arange(len(segment)) / sample_rate * 1e3
    slope = float(np.polyfit(travel_mm, segment, 1)[0])
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
    rows: list[FootprintFeatures] = []
    skipped = 0
    nan = float("nan")
    for index, seg in enumerate(segments):
        try:
            edges = detect_patch_edges(seg.a_tangential)
        except EdgeOrderError:
            skipped += 1
            rows.append(
                FootprintFeatures(
                    turn_index=index,
                    patch_length=nan,
                    peak_radial_displacement=nan,
                    peak_lateral_displacement=nan,
                    lateral_slope=nan,
                )
            )
            continue
        rotation_frequency = 1.0 / seg.period
        # Radial displacement uses the outward-positive convention, so the
        # patch shows up as a dip; the sensor channel is centre-positive.
        radial = accel_to_displacement(
            -seg.a_radial, trace.sample_rate, rotation_frequency, axis="radial"
        ).with_patch_window(edges)
        peak_radial = peak_radial_displacement(radial)
        length = patch_length(edges, wheel_speed, trace.sample_rate)

        peak_lateral = 0.0
        slope = 0.0
        if include_lateral:
            lateral = accel_to_displacement(
                seg.a_lateral, trace.sample_rate, rotation_frequency, axis="lateral"
            ).with_patch_window(edges)
            peak_lateral, slope = lateral_features(
                lateral, edges, wheel_speed, trace.sample_rate
            )
        rows.append(
            FootprintFeatures(
                turn_index=index,
                patch_length=length,
                peak_radial_displacement=peak_radial,
                peak_lateral_displacement=peak_lateral,
                lateral_slope=slope,
            )
        )
    return rows, skipped
