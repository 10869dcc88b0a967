"""Loaded-tire contact geometry shared by the simulator and its ground truth.

The flat-spot idealisation: a wheel of effective radius R, deflected
vertically by d, meets the road along a straight segment.  The segment
subtends the contact half-angle ``acos((R - d) / R)`` at the wheel centre,
and its straight length is the patch chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScenarioError
from .scenario import FULL_TREAD_MM, LBF_TO_N, MM_TO_M, WEAR_RADIUS_GAIN, TireScenario


@dataclass(frozen=True)
class TireGeometry:
    """Contact geometry in SI units (lengths in metres, angles in radians)."""

    effective_radius: float
    deflection: float
    contact_half_angle: float

    @property
    def deflection_mm(self) -> float:
        return self.deflection / MM_TO_M

    @property
    def patch_chord(self) -> float:
        """Straight-line length of the flattened contact segment."""
        return 2.0 * self.effective_radius * math.sin(self.contact_half_angle)


def derive_geometry(scenario: TireScenario) -> TireGeometry:
    """Effective radius, vertical deflection and contact half-angle.

    The effective radius shrinks linearly as tread wears off, vertical
    stiffness grows linearly with inflation pressure, and the half-angle
    follows from intersecting the deflected wheel circle with the road
    plane.  Deflection is therefore independent of tread depth while the
    patch length is not.

    Raises
    ------
    ScenarioError
        If wear consumes the whole radius or the deflection reaches the
        effective radius, leaving no meaningful patch geometry.
    """
    worn_mm = FULL_TREAD_MM - scenario.tread_depth
    r_eff = scenario.unloaded_radius - WEAR_RADIUS_GAIN * worn_mm * MM_TO_M
    if r_eff <= 0:
        raise ScenarioError(
            f"effective radius {r_eff:.4f} m is not positive at "
            f"tread {scenario.tread_depth} mm"
        )
    deflection = (
        scenario.vertical_load * LBF_TO_N / scenario.vertical_stiffness * MM_TO_M
    )
    if deflection >= r_eff:
        raise ScenarioError(
            f"deflection {deflection * 1e3:.4g} mm reaches the effective "
            f"radius {r_eff * 1e3:.4g} mm; patch geometry is degenerate"
        )
    half_angle = math.acos((r_eff - deflection) / r_eff)
    return TireGeometry(r_eff, deflection, half_angle)
