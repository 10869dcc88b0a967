"""Tire load and slip-angle estimation from inner-liner accelerometer signals.

The package pairs the estimation pipeline (per-turn segmentation,
drift-free double integration, footprint features, recursive load
estimation, slip regression) with a physics-grounded synthetic trace
generator whose exact per-turn ground truth makes every stage testable at
desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    DenominatorError,
    InvalidArgumentError,
    NoPeakError,
    RankDeficiencyError,
    ScenarioError,
    SchemaError,
    TireSenseError,
    TooShortError,
)
from .scenario import SensorSpec, TireGeometry, TireScenario, derive_geometry
from .simulate import AccelTrace, GroundTruth, ground_truth, simulate

__all__ = [
    "AccelTrace",
    "DenominatorError",
    "GroundTruth",
    "InvalidArgumentError",
    "NoPeakError",
    "RankDeficiencyError",
    "ScenarioError",
    "SchemaError",
    "SensorSpec",
    "TireGeometry",
    "TireScenario",
    "TireSenseError",
    "TooShortError",
    "derive_geometry",
    "ground_truth",
    "simulate",
    "__version__",
]
