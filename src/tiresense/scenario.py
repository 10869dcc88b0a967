"""The tire model: scenario and sensor descriptions, and the loaded tire's
contact geometry, which drive the synthetic trace generator.

A :class:`TireScenario` is the ground-truth physical state of one rolling
tire; a :class:`SensorSpec` describes the accelerometer sampling it.  Both
validate on construction so that every downstream stage can assume a
physically meaningful configuration.

The contact geometry is the flat-spot idealisation: a wheel of effective
radius R, deflected vertically by d, meets the road along a straight
segment.  The segment subtends the contact half-angle ``acos((R - d) / R)``
at the wheel centre, and its straight length is the patch chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import ScenarioError

# Scenario fields keep test-report units (lbf, psi, mm); the physics runs in SI.
LBF_TO_N = 4.4482216
MM_TO_M = 1e-3
FULL_TREAD_MM = 8.0
MAX_SLIP_DEG = 10.0
# Far above any road tire's inflation, and low enough that the pressure's
# square in the load surface stays finite.
MAX_PRESSURE_PSI = 1000.0

# Simulator constants, tuned so the synthetic signals reproduce the measured
# parametric behaviour (load/pressure/tread sensitivities) at desk scale.
# Vertical stiffness is c0 + c1 * pressure, about 200 N/mm at 32 psi, which
# is typical for a passenger tire.  WEAR_RADIUS_GAIN couples tread loss to
# effective-radius loss; it folds in carcass-level effects beyond the bare
# rubber thickness, which is why it is larger than 1.
STIFFNESS_C0 = 120.0    # N/mm at zero pressure
STIFFNESS_C1 = 2.5      # N/mm per psi
WEAR_RADIUS_GAIN = 5.3  # mm of radius loss per mm of tread loss


@dataclass(frozen=True)
class TireScenario:
    """Ground-truth state of one rolling tire.

    Units follow test-report conventions: load in pounds-force, inflation
    pressure in psi, tread depth in millimetres, radius in metres, speed in
    metres per second, slip angle in degrees.
    """

    unloaded_radius: float
    tread_depth: float
    vertical_load: float
    inflation_pressure: float
    slip_angle: float = 0.0
    vehicle_speed: float = 20.0

    def __post_init__(self) -> None:
        # An infinite radius never turns the wheel; an infinite speed, in no time.
        for name in ("unloaded_radius", "vehicle_speed"):
            if not 0 < getattr(self, name) < math.inf:
                raise ScenarioError(f"{name} must be positive and finite")
        if not self.vertical_load > 0:
            raise ScenarioError("vertical_load must be positive")
        if not 0 < self.inflation_pressure <= MAX_PRESSURE_PSI:
            raise ScenarioError(
                f"inflation_pressure must lie in (0, {MAX_PRESSURE_PSI}] psi, "
                f"got {self.inflation_pressure}"
            )
        if not 0.0 <= self.tread_depth <= FULL_TREAD_MM:
            raise ScenarioError(
                f"tread_depth must lie in [0, {FULL_TREAD_MM}] mm, "
                f"got {self.tread_depth}"
            )
        if not abs(self.slip_angle) <= MAX_SLIP_DEG:
            # The brush profile is adhesion-only; large angles would need a
            # sliding region.
            raise ScenarioError(
                f"|slip_angle| must be <= {MAX_SLIP_DEG} deg, got {self.slip_angle}"
            )


@dataclass(frozen=True)
class SensorSpec:
    """Accelerometer sampling description.

    ``noise_std`` is the white-noise standard deviation per axis and
    ``dc_bias`` the constant offset per axis, both in m/s^2.  The defaults
    deliberately include noise and a hefty constant bias so the
    drift-removal stages are exercised; pass zeros for clean oracle traces.
    """

    sample_rate: float = 10_000.0
    noise_std: float = 25.0
    dc_bias: tuple[float, float, float] = (5.0, 5.0, 5.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sample_rate > 0:
            raise ScenarioError("sample_rate must be positive")
        if not self.noise_std >= 0:
            raise ScenarioError("noise_std must be non-negative")
        if len(self.dc_bias) != 3:
            raise ScenarioError("dc_bias needs one value per axis (3)")
        if not all(map(math.isfinite, self.dc_bias)):
            raise ScenarioError("dc_bias must be finite")
        # numpy seeds its generator from integers only, and a float may not hold one exactly
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ScenarioError("seed must be a non-negative integer")
        # normalise to a plain tuple of floats so traces hash/compare cleanly
        object.__setattr__(self, "dc_bias", tuple(float(b) for b in self.dc_bias))


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
    stiffness = STIFFNESS_C0 + STIFFNESS_C1 * scenario.inflation_pressure  # N/mm
    deflection = scenario.vertical_load * LBF_TO_N / stiffness * MM_TO_M
    if deflection >= r_eff:
        raise ScenarioError(
            f"deflection {deflection * 1e3:.4g} mm reaches the effective "
            f"radius {r_eff * 1e3:.4g} mm; patch geometry is degenerate"
        )
    half_angle = math.acos((r_eff - deflection) / r_eff)
    return TireGeometry(r_eff, deflection, half_angle)
