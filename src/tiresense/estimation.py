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

from dataclasses import dataclass, replace

import numpy as np

from .errors import DenominatorError, InvalidArgumentError, RankDeficiencyError
from .geometry import derive_geometry
from .scenario import TireScenario

RANK_TOLERANCE = 1e-10
DENOMINATOR_TOLERANCE = 1e-9

DEFAULT_FORGETTING = 0.98
DEFAULT_INITIAL_COVARIANCE = 1e6

# Fraction of the trained slip span allowed as extrapolation when predicting.
SLIP_CLAMP_MARGIN = 0.2

SWEEP_FACTORS = ("load", "pressure", "tread")
SWEEP_FEATURES = ("peak_radial_displacement", "contact_patch_length")


def _solve_least_squares(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Ordinary least squares with an explicit rank check; fewer rows than
    columns (no row at all, say) cannot reach full rank."""
    singular = np.linalg.svd(design, compute_uv=False)
    if len(singular) < design.shape[1] or singular[-1] <= RANK_TOLERANCE * singular[0]:
        raise RankDeficiencyError(
            "design matrix is rank deficient; samples do not span the basis"
        )
    coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    return coefficients


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
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3:
        raise InvalidArgumentError("samples must be rows of (load, pressure, peak)")
    load, pressure, peak = data.T
    design = np.column_stack(
        [np.ones_like(load), load, pressure, load * pressure, pressure**2]
    )
    coeff = _solve_least_squares(design, peak)
    residual = peak - design @ coeff
    return LoadSurfaceModel(
        p00=float(coeff[0]),
        p10=float(coeff[1]),
        p01=float(coeff[2]),
        p11=float(coeff[3]),
        p02=float(coeff[4]),
        fit_residual_rms=float(np.sqrt(np.mean(residual**2))),
        load_range=(float(load.min()), float(load.max())),
        pressure_range=(float(pressure.min()), float(pressure.max())),
    )


def load_measurement(
    model: LoadSurfaceModel, peak_disp_mm: float, pressure_psi: float
) -> float:
    """Invert the surface into the per-turn load measurement, in lbf.

    Raises
    ------
    DenominatorError
        When the load coefficient at this pressure is too close to zero.
    """
    denominator = model.p10 + model.p11 * pressure_psi
    if abs(denominator) < DENOMINATOR_TOLERANCE * abs(model.p10):
        raise DenominatorError(
            f"load sensitivity vanishes at {pressure_psi} psi; cannot invert"
        )
    y = (
        peak_disp_mm
        - model.p00
        - model.p01 * pressure_psi
        - model.p02 * pressure_psi**2
    ) / denominator
    return y


@dataclass(frozen=True)
class RlsState:
    """Scalar recursive least-squares state (value type, update returns new)."""

    theta: float = 0.0
    covariance: float = DEFAULT_INITIAL_COVARIANCE
    forgetting: float = DEFAULT_FORGETTING

    def __post_init__(self) -> None:
        if not 0.0 < self.forgetting <= 1.0:
            raise InvalidArgumentError("forgetting factor must lie in (0, 1]")
        if not self.covariance > 0.0:
            raise InvalidArgumentError("covariance must stay positive")


def rls_update(state: RlsState, y: float) -> RlsState:
    """One exponentially weighted recursive least-squares step for a
    constant (the regressor is 1).

    gain  = P / (lambda + P)
    theta = theta + gain * (y - theta)
    P     = (P - gain * P) / lambda
    """
    lam = state.forgetting
    p = state.covariance
    gain = p / (lam + p)
    theta = state.theta + gain * (y - state.theta)
    covariance = (p - gain * p) / lam
    return replace(state, theta=theta, covariance=covariance)


@dataclass(frozen=True)
class LoadStreamResult:
    """Per-turn output of the online load estimator."""

    estimates_lbf: np.ndarray
    valid: np.ndarray
    convergence_turn: int
    skipped_turns: int

    @property
    def converged_estimate(self) -> float:
        return float(self.estimates_lbf[-1])


def convergence_turn(estimates: np.ndarray, valid: np.ndarray) -> int:
    """First 1-based turn after which the estimate stays within 1% of final."""
    final = estimates[-1]
    if final == 0.0:
        return len(estimates)
    deviation = np.abs(estimates - final) / abs(final)
    beyond = np.flatnonzero((deviation >= 0.01) & valid)
    if len(beyond) == 0:
        return 1
    return int(beyond[-1]) + 2  # converged from the turn after the last excursion


def estimate_load_stream(
    model: LoadSurfaceModel,
    peaks_mm: np.ndarray,
    pressures_psi: np.ndarray,
    forgetting: float = DEFAULT_FORGETTING,
    initial_covariance: float = DEFAULT_INITIAL_COVARIANCE,
) -> LoadStreamResult:
    """Run measurement inversion plus RLS over per-turn features.

    Turns whose measurement cannot be formed (inversion failure or
    non-finite feature) are skipped: the previous estimate is carried
    forward and the turn is flagged invalid.
    """
    peaks = np.asarray(peaks_mm, dtype=float)
    pressures = np.asarray(pressures_psi, dtype=float)
    if peaks.shape != pressures.shape:
        raise InvalidArgumentError("need one pressure per peak displacement")
    state = RlsState(theta=0.0, covariance=initial_covariance, forgetting=forgetting)
    estimates = np.zeros(len(peaks))
    valid = np.zeros(len(peaks), dtype=bool)
    for i, (peak, pressure) in enumerate(zip(peaks, pressures)):
        if np.isfinite(peak):
            try:
                y = load_measurement(model, peak, pressure)
            except DenominatorError:
                y = None
            if y is not None and np.isfinite(y):
                state = rls_update(state, y)
                valid[i] = True
        estimates[i] = state.theta
    return LoadStreamResult(
        estimates_lbf=estimates,
        valid=valid,
        convergence_turn=convergence_turn(estimates, valid),
        skipped_turns=int(np.count_nonzero(~valid)),
    )


@dataclass(frozen=True)
class PatchLoadModel:
    """Baseline: affine map from patch length to load at a reference state."""

    q0: float
    q1: float
    reference_pressure: float
    reference_tread: float
    patch_length_range: tuple[float, float]
    fit_residual_rms: float


def fit_patch_load_model(
    samples: list[tuple[float, float]],
    reference_pressure: float,
    reference_tread: float,
) -> PatchLoadModel:
    """Fit load ~ q0 + q1 * patch_length to (load_lbf, patch_length_m) rows."""
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise InvalidArgumentError("samples must be rows of (load, patch_length)")
    load, length = data.T
    design = np.column_stack([np.ones_like(length), length])
    coeff = _solve_least_squares(design, load)
    residual = load - design @ coeff
    return PatchLoadModel(
        q0=float(coeff[0]),
        q1=float(coeff[1]),
        reference_pressure=float(reference_pressure),
        reference_tread=float(reference_tread),
        patch_length_range=(float(length.min()), float(length.max())),
        fit_residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


def estimate_load_patch(
    model: PatchLoadModel, patch_length_m: float
) -> tuple[float, bool]:
    """Baseline load estimate plus an in-trained-range flag.

    Inputs outside the trained patch-length range still evaluate (the map
    is affine) but come back flagged as extrapolation.
    """
    lo, hi = model.patch_length_range
    in_range = lo <= patch_length_m <= hi
    return model.q0 + model.q1 * patch_length_m, in_range


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
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3:
        raise InvalidArgumentError("samples must be rows of (peak, slope, slip)")
    peak, slope, slip = data.T
    design = np.column_stack([np.ones_like(peak), peak, slope])
    coeff = _solve_least_squares(design, slip)
    residual = slip - design @ coeff
    return SlipModel(
        beta0=float(coeff[0]),
        beta1=float(coeff[1]),
        beta2=float(coeff[2]),
        fit_residual_rms=float(np.sqrt(np.mean(residual**2))),
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

    ``curves`` keeps every swept point: factor -> {"value": [...], feature: [...]}.
    """

    ranges: dict
    center: dict
    shares: dict
    spans: dict
    curves: dict


def _sweep_feature_values(scenario: TireScenario) -> dict[str, float]:
    geom = derive_geometry(scenario)
    return {
        "peak_radial_displacement": geom.deflection_mm,
        "contact_patch_length": geom.patch_chord,
    }


def sensitivity_sweep(
    ranges: dict[str, tuple[float, float]],
    base: TireScenario | None = None,
    points: int = 7,
) -> SensitivityReport:
    """One-at-a-time sensitivity of the footprint features.

    Each factor sweeps its range while the others sit at the range centre;
    the sensitivity of a feature to a factor is that factor's span of the
    feature divided by the summed spans over all factors, as a percentage.
    Features are evaluated on the contact-geometry model (the quantity each
    signal feature tracks), so the report is exact and deterministic.
    """
    required = set(SWEEP_FACTORS)
    if set(ranges) != required:
        raise InvalidArgumentError(f"ranges must cover exactly {sorted(required)}")
    if base is None:
        # swept fields (load, pressure, tread) are overwritten per point
        base = TireScenario(
            unloaded_radius=0.3,
            tread_depth=5.0,
            vertical_load=1000.0,
            inflation_pressure=32.0,
        )
    center = {factor: 0.5 * (lo + hi) for factor, (lo, hi) in ranges.items()}

    def scenario_at(values: dict[str, float]) -> TireScenario:
        return replace(
            base,
            vertical_load=values["load"],
            inflation_pressure=values["pressure"],
            tread_depth=values["tread"],
        )

    spans: dict[str, dict[str, float]] = {f: {} for f in SWEEP_FEATURES}
    curves: dict[str, dict[str, list[float]]] = {}
    for factor, (lo, hi) in ranges.items():
        values = dict(center)
        swept = {"value": [], **{feature: [] for feature in SWEEP_FEATURES}}
        for value in np.linspace(lo, hi, points):
            values[factor] = float(value)
            swept["value"].append(values[factor])
            for feature, y in _sweep_feature_values(scenario_at(values)).items():
                swept[feature].append(y)
        for feature in SWEEP_FEATURES:
            spans[feature][factor] = float(max(swept[feature]) - min(swept[feature]))
        curves[factor] = swept

    shares: dict[str, dict[str, float]] = {}
    for feature in SWEEP_FEATURES:
        total = sum(spans[feature].values())
        if total > 0.0:
            shares[feature] = {
                factor: 100.0 * spans[feature][factor] / total
                for factor in SWEEP_FACTORS
            }
        else:
            shares[feature] = {factor: 0.0 for factor in SWEEP_FACTORS}
    return SensitivityReport(
        ranges={k: (float(v[0]), float(v[1])) for k, v in ranges.items()},
        center=center,
        shares=shares,
        spans=spans,
        curves=curves,
    )
