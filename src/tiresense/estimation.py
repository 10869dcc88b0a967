"""Load and slip-angle estimators plus the sensitivity report.

The load path: a response surface maps (load, pressure) to peak radial
displacement; inverting it per turn yields a scalar load measurement that a
recursive least-squares estimator smooths online.  A patch-length baseline
model provides the comparison estimator.  The slip path is a two-feature
linear regression.  The sensitivity sweep quantifies how strongly each
footprint feature reacts to load, pressure and tread over the tested
ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DenominatorError, InvalidArgumentError, RankDeficiencyError
from .scenario import TireScenario, derive_geometry

RANK_TOLERANCE = 1e-10
DENOMINATOR_TOLERANCE = 1e-9
# Largest sample magnitude a fit takes: decades above any load, pressure,
# dip or slip, and small enough that the design's products and the
# residual's squares stay finite.
MAX_FIT_SAMPLE = 1e100

DEFAULT_FORGETTING = 0.98
INITIAL_COVARIANCE = 1e6

# Fraction of the trained slip span allowed as extrapolation when predicting.
SLIP_CLAMP_MARGIN = 0.2

# Each swept factor and the TireScenario field it sets.
SWEEP_FACTORS = {"load": "vertical_load", "pressure": "inflation_pressure", "tread": "tread_depth"}
# Points per factor.  Every swept feature is monotone in its factor, so the
# spans come from the range ends; the points between only draw the curve.
SWEEP_POINTS = 7
# Unloaded radius of the swept tire; fields other than the factors keep their defaults.
SWEEP_RADIUS = 0.3
# The features of the sweep, in the order of their columns after the value.
SWEEP_FEATURES = ("peak_radial_displacement", "contact_patch_length")


def _fit(samples, columns: tuple[str, ...], basis, target: int = -1):
    """Least-squares fit of sample column ``target`` on the design columns that
    ``basis`` makes of the sample columns; ``columns`` names each row's values.
    Returns the sample columns, the coefficients in design-column order and
    the residual RMS.  A sample that is not finite or exceeds MAX_FIT_SAMPLE in
    magnitude raises InvalidArgumentError, and a design that cannot identify
    every coefficient RankDeficiencyError."""
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(columns):
        raise InvalidArgumentError(f"samples must be rows of ({', '.join(columns)})")
    if not (np.abs(data) <= MAX_FIT_SAMPLE).all():
        raise InvalidArgumentError(
            f"samples must be finite and at most {MAX_FIT_SAMPLE:g} in magnitude")
    values = data.T
    design = np.column_stack(basis(*values))
    coefficients, _, _, singular = np.linalg.lstsq(design, values[target], rcond=None)
    if len(singular) < design.shape[1] or singular[-1] <= RANK_TOLERANCE * singular[0]:
        raise RankDeficiencyError(
            "design matrix is rank deficient; samples do not span the basis"
        )
    residual = values[target] - design @ coefficients
    return values, coefficients.tolist(), float(np.sqrt(np.mean(residual**2)))


@dataclass(frozen=True)
class LoadSurfaceModel:
    """Response surface: peak displacement vs load and pressure.

    peak = p00 + p10 * load + p01 * pressure + p11 * load * pressure
           + p02 * pressure^2
    """

    p00: float
    p10: float
    p01: float
    p11: float
    p02: float
    fit_residual_rms: float
    load_range: tuple[float, float]
    pressure_range: tuple[float, float]

    def forward(self, load_lbf: float, pressure_psi: float) -> float:
        """Evaluate the surface, millimetres."""
        return (
            self.p00
            + self.p10 * load_lbf
            + self.p01 * pressure_psi
            + self.p11 * load_lbf * pressure_psi
            + self.p02 * pressure_psi**2
        )


def fit_load_surface(
    samples: list[tuple[float, float, float]]
) -> LoadSurfaceModel:
    """Fit the load/pressure surface to (load_lbf, pressure_psi, peak_mm) rows.

    Raises
    ------
    RankDeficiencyError
        When the rows cannot identify all five coefficients, e.g. fewer
        than five samples or a single pressure level.
    """
    (load, pressure, _), coeff, rms = _fit(
        samples, ("load", "pressure", "peak"),
        lambda load, pressure, _: (
            np.ones_like(load), load, pressure, load * pressure, pressure**2
        ),
    )
    return LoadSurfaceModel(
        *coeff,
        fit_residual_rms=rms,
        load_range=(float(load.min()), float(load.max())),
        pressure_range=(float(pressure.min()), float(pressure.max())),
    )


def load_measurement(model: LoadSurfaceModel, peak_disp_mm, pressure_psi: float):
    """Invert the surface into per-turn load measurements, in lbf; a scalar
    dip gives a scalar, an array of dips an array.

    Raises
    ------
    DenominatorError
        When the load coefficient at this pressure is too close to zero.
    """
    denominator = model.p10 + model.p11 * pressure_psi
    if abs(denominator) <= DENOMINATOR_TOLERANCE * abs(model.p10):
        raise DenominatorError(
            f"load sensitivity vanishes at {pressure_psi} psi; cannot invert"
        )
    return (
        peak_disp_mm
        - model.p00
        - model.p01 * pressure_psi
        - model.p02 * pressure_psi**2
    ) / denominator


def rls(measurements, forgetting: float = DEFAULT_FORGETTING) -> tuple[np.ndarray, np.ndarray]:
    """Exponentially weighted recursive least squares for a constant (the
    regressor is 1), from theta = 0 and P = INITIAL_COVARIANCE; returns
    theta and P after each turn.

    gain  = P / (lambda + P)
    theta = theta + gain * (y - theta)
    P     = (P - gain * P) / lambda

    A non-finite measurement is skipped: theta and P carry forward.
    """
    lam, p, theta = forgetting, INITIAL_COVARIANCE, 0.0
    if not 0.0 < lam <= 1.0:
        raise InvalidArgumentError("forgetting factor must lie in (0, 1]")
    estimates, covariances = [], []
    for y in np.asarray(measurements, dtype=float).tolist():
        if math.isfinite(y):
            gain = p / (lam + p)
            theta += gain * (y - theta)
            p = (p - gain * p) / lam
            if not p > 0.0:
                raise InvalidArgumentError("covariance must stay positive")
        estimates.append(theta)
        covariances.append(p)
    # theta mixes finite values, so only y - theta can overflow, and an
    # infinite theta turns NaN at the next update and stays so
    if not math.isfinite(theta):
        raise InvalidArgumentError("overflow encountered in the RLS update")
    return np.array(estimates), np.array(covariances)


def convergence_turn(estimates: np.ndarray, valid: np.ndarray) -> int:
    """First 1-based turn after which the estimate stays within 1% of final."""
    if not len(estimates):
        raise InvalidArgumentError("no estimate to converge")
    final = estimates[-1]
    if final == 0.0:
        return len(estimates)
    deviation = np.abs(estimates - final) / abs(final)
    beyond = np.flatnonzero((deviation >= 0.01) & valid)
    if len(beyond) == 0:
        return 1
    return int(beyond[-1]) + 2  # converged from the turn after the last excursion


class LoadStream(NamedTuple):
    """Per-turn output of the online load estimator."""

    estimates_lbf: np.ndarray
    valid: np.ndarray


def estimate_load_stream(
    model: LoadSurfaceModel, peaks_mm: np.ndarray, pressure_psi: float
) -> LoadStream:
    """Run measurement inversion plus RLS over one trace's per-turn dips.

    Turns whose measurement cannot be formed (inversion failure at this
    pressure or non-finite feature) are skipped: the previous estimate is
    carried forward and the turn is flagged invalid.
    """
    peaks = np.asarray(peaks_mm, dtype=float)
    try:
        measurements = load_measurement(model, peaks, pressure_psi)
    except DenominatorError:
        measurements = np.full(len(peaks), np.nan)
    estimates, _ = rls(measurements)
    return LoadStream(estimates, np.isfinite(measurements))


@dataclass(frozen=True)
class PatchLoadModel:
    """Baseline: affine map from patch length to load at a reference state."""

    q0: float
    q1: float
    fit_residual_rms: float


def fit_patch_load_model(samples: list[tuple[float, float]]) -> PatchLoadModel:
    """Fit load ~ q0 + q1 * patch_length to (load_lbf, patch_length_m) rows."""
    _, coeff, rms = _fit(
        samples, ("load", "patch_length"),
        lambda _, length: (np.ones_like(length), length),
        target=0,
    )
    return PatchLoadModel(*coeff, fit_residual_rms=rms)


@dataclass(frozen=True)
class SlipModel:
    """Linear regression from lateral features to slip angle, degrees."""

    beta0: float
    beta1: float  # deg per mm of peak lateral displacement
    beta2: float  # deg per unit of lateral slope
    fit_residual_rms: float
    slip_range: tuple[float, float]


def fit_slip_model(samples: list[tuple[float, float, float]]) -> SlipModel:
    """Fit slip ~ beta0 + beta1 * peak + beta2 * slope.

    ``samples`` rows are (peak_lateral_mm, lateral_slope, true_slip_deg).
    """
    (_, _, slip), coeff, rms = _fit(
        samples, ("peak", "slope", "slip"),
        lambda peak, slope, _: (np.ones_like(peak), peak, slope),
    )
    return SlipModel(
        *coeff,
        fit_residual_rms=rms,
        slip_range=(float(slip.min()), float(slip.max())),
    )


def predict_slip(model: SlipModel, peak_lateral_mm, lateral_slope):
    """Slip angle prediction, clamped to the trained range plus 20% margin;
    scalar features give a scalar, arrays an array, and NaN stays NaN."""
    raw = model.beta0 + model.beta1 * peak_lateral_mm + model.beta2 * lateral_slope
    lo, hi = model.slip_range
    margin = SLIP_CLAMP_MARGIN * (hi - lo)
    return np.clip(raw, lo - margin, hi + margin)


@dataclass(frozen=True)
class SensitivityReport:
    """Range share of each factor per feature, percentages summing to 100.

    ``curves`` maps each factor to a ``(SWEEP_POINTS, 3)`` array of its
    swept values, the peak radial displacements and the patch chords.
    """

    ranges: dict
    center: dict
    shares: dict
    spans: dict
    curves: dict


def sensitivity_sweep(ranges: dict[str, tuple[float, float]]) -> SensitivityReport:
    """One-at-a-time sensitivity of the footprint features.

    Each factor sweeps its range while the others sit at the range centre;
    the sensitivity of a feature to a factor is that factor's span of the
    feature divided by the summed spans over all factors, as a percentage.
    Features are evaluated on the contact-geometry model (the quantity each
    signal feature tracks), so the report is exact and deterministic.
    """
    if set(ranges) != set(SWEEP_FACTORS):
        raise InvalidArgumentError(f"ranges name {sorted(ranges)}, not {sorted(SWEEP_FACTORS)}")
    # TireScenario checks each field alone, so what it refuses here is a range's own bound.
    for end in (0, 1):
        TireScenario(unloaded_radius=SWEEP_RADIUS,
                     **{SWEEP_FACTORS[f]: bounds[end] for f, bounds in ranges.items()})
    center = {factor: 0.5 * (lo + hi) for factor, (lo, hi) in ranges.items()}

    curves: dict[str, np.ndarray] = {}
    for factor, (lo, hi) in ranges.items():
        rows, fields = [], {SWEEP_FACTORS[f]: c for f, c in center.items()}
        for value in np.linspace(lo, hi, SWEEP_POINTS).tolist():
            fields[SWEEP_FACTORS[factor]] = value
            geom = derive_geometry(TireScenario(unloaded_radius=SWEEP_RADIUS, **fields))
            rows.append((value, geom.deflection_mm, geom.patch_chord))
        curves[factor] = np.array(rows)

    spans = {
        feature: {factor: float(np.ptp(curve[:, column])) for factor, curve in curves.items()}
        for column, feature in enumerate(SWEEP_FEATURES, start=1)
    }
    shares: dict[str, dict[str, float]] = {}
    for feature, span in spans.items():
        total = sum(span.values())  # in the order of ``ranges``
        shares[feature] = {
            factor: 100.0 * span[factor] / total if total > 0.0 else 0.0
            for factor in SWEEP_FACTORS
        }
    return SensitivityReport(
        ranges={k: (float(v[0]), float(v[1])) for k, v in ranges.items()},
        center=center,
        shares=shares,
        spans=spans,
        curves=curves,
    )
