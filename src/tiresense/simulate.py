"""Synthetic inner-liner accelerometer traces with exact per-turn ground truth.

Conventions
-----------
The wheel rolls in +x at constant forward speed, z is up and y is the spin
axis.  A liner point is tracked by its angle ``psi`` measured from the
downward vertical; ``psi`` decreases at the rolling rate
``omega = speed / effective_radius`` and the trace starts with the point at
top dead centre, so the first patch pass happens half a period in.  Outside
the contact window (|psi| < contact half-angle) the point rides the wheel
circle around the moving centre; inside it the point is pressed flat onto
the road plane, turning the circular arc into the straight flat-spot
segment.

The lateral coordinate follows an adhesion-only brush profile: zero outside
the patch, tan(slip angle) times the distance travelled through the patch
inside it, and a raised-cosine relaxation back to zero over one contact
half-angle after the exit.

Sensor axes rotate with the wheel: radial is positive toward the wheel
centre, tangential is signed so that the patch-entry spike is the positive
extremum (that is the leading-edge convention the edge detector relies on),
lateral is +y.  Acceleration is the second central difference of the exact
trajectory, so downstream double integration sees a signal self-consistent
to discretisation error.  White noise and a constant bias per axis are
added last; a fixed seed reproduces the trace bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError, quote_count
from .scenario import SensorSpec, TireGeometry, TireScenario, derive_geometry

# Minimum samples per wheel revolution for the patch to be resolvable.
MIN_SAMPLES_PER_TURN = 20

# Largest sample magnitude a trace may hold, m/s^2: decades above any real
# acceleration, and small enough that a trace's sum of squares stays finite.
MAX_ABS_SAMPLE = 1e100

# Samples simulate computes at a time: 128 KB per block-length temporary,
# small enough to stay in cache.
BLOCK_SAMPLES = 2**14

# Elements in the largest float64 array numpy can size; more raise ValueError.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class AccelTrace:
    """Uniformly sampled tri-axial acceleration, m/s^2.

    ``samples`` has shape (n, 3) with columns tangential, lateral, radial;
    readers take a channel through ``a_tangential``, ``a_lateral`` or
    ``a_radial``.  Every sample is finite and at most ``MAX_ABS_SAMPLE`` in
    magnitude, whether simulated or read from a file.
    """

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ScenarioError("trace samples must have shape (n, 3)")
        # min and max carry a NaN, which fails every comparison; rows are searched on failure only.
        if not (-MAX_ABS_SAMPLE <= samples.min(initial=0)
                <= samples.max(initial=0) <= MAX_ABS_SAMPLE):
            row = np.argmax(~(np.abs(samples) <= MAX_ABS_SAMPLE).all(axis=1))
            raise ScenarioError(f"row {row}: samples must be finite "
                                f"and at most {MAX_ABS_SAMPLE:g} m/s^2 in magnitude")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def a_tangential(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def a_lateral(self) -> np.ndarray:
        return self.samples[:, 1]

    @property
    def a_radial(self) -> np.ndarray:
        return self.samples[:, 2]


@dataclass(frozen=True)
class GroundTruth:
    """Exact timing and contact angle of every simulated revolution.

    All arrays have one entry per turn.  The rest of the contact geometry
    is ``derive_geometry(scenario)``, the same for every turn.
    """

    contact_half_angle_rad: np.ndarray
    turn_start_time_s: np.ndarray
    wheel_period_s: np.ndarray

    @property
    def n_turns(self) -> int:
        return len(self.turn_start_time_s)


def _rolling(scenario: TireScenario) -> tuple[TireGeometry, float, float]:
    """Geometry, rolling rate in rad/s and revolution period in seconds; a
    rate that underflows to 0 never completes a turn."""
    geom = derive_geometry(scenario)
    omega = scenario.vehicle_speed / geom.effective_radius
    return geom, omega, 2.0 * math.pi / omega if omega else math.inf


def trace_rows(scenario: TireScenario, sample_rate: float, n_turns: int) -> float:
    """Samples ``simulate`` takes of ``n_turns`` turns of ``scenario`` at
    ``sample_rate``: a whole number, or inf where the period overflows."""
    return float(np.rint(n_turns * _rolling(scenario)[2] * sample_rate))


def _check_turns(n_turns: int) -> None:
    if not (isinstance(n_turns, (int, np.integer)) and n_turns >= 1):
        raise ScenarioError("n_turns must be a whole number of at least 1")


def ground_truth(scenario: TireScenario, n_turns: int) -> GroundTruth:
    """Exact truth for ``n_turns`` revolutions of ``scenario``, which fixes
    every turn's values; only the turn start times differ."""
    _check_turns(n_turns)
    geom, _, period = _rolling(scenario)
    return GroundTruth(
        contact_half_angle_rad=np.full(n_turns, geom.contact_half_angle),
        turn_start_time_s=np.arange(n_turns) * period,
        wheel_period_s=np.full(n_turns, period),
    )


def _liner_positions(
    t: np.ndarray,
    scenario: TireScenario,
    geom: TireGeometry,
    omega: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact (x, y, z) of the liner point plus the sine and cosine of its
    wrapped angle at times t."""
    r = geom.effective_radius
    hub_height = r - geom.deflection
    theta_c = geom.contact_half_angle

    psi = np.pi - omega * t
    psi = np.mod(psi + np.pi, 2.0 * np.pi) - np.pi  # wrap to [-pi, pi)

    sin_psi, cos_psi = np.sin(psi), np.cos(psi)
    x = scenario.vehicle_speed * t + r * sin_psi
    # Pressing the sub-road part of the circle onto the road plane creates
    # the straight flat-spot segment.
    z = np.maximum(hub_height - r * cos_psi, 0.0)

    y = np.zeros_like(t)
    tan_slip = math.tan(math.radians(scenario.slip_angle))
    if tan_slip != 0.0:
        in_patch = np.abs(psi) < theta_c
        # Deflection grows with the distance covered through the patch,
        # measured along the chord; it peaks at tan(slip) * chord on exit.
        y[in_patch] = tan_slip * r * (math.sin(theta_c) - np.sin(psi[in_patch]))
        # It relaxes back to zero over one more half-angle after the exit.
        in_release = (psi <= -theta_c) & (psi > -2.0 * theta_c)
        progress = (-theta_c - psi[in_release]) / theta_c
        y[in_release] = (
            tan_slip * geom.patch_chord * 0.5 * (1.0 + np.cos(np.pi * progress))
        )
    return x, y, z, sin_psi, cos_psi


def _second_difference(u: np.ndarray, fs: float) -> np.ndarray:
    """``(u[2:] - 2 u[1:-1] + u[:-2]) * fs * fs`` through one new array."""
    out = 2.0 * u[1:-1]
    np.subtract(u[2:], out, out=out)
    out += u[:-2]
    out *= fs
    out *= fs
    return out


def simulate(
    scenario: TireScenario, sensor: SensorSpec, n_turns: int
) -> tuple[AccelTrace, GroundTruth]:
    """Simulate ``n_turns`` revolutions and return the trace plus truth.

    Raises
    ------
    ScenarioError
        When the contact geometry is degenerate or its release window
        passes the top of the wheel, when the sample rate resolves fewer
        than 20 samples per turn, when ``n_turns`` is not a whole number of
        at least 1 or needs more samples than one array holds, or when the
        sensor's noise or bias takes a sample beyond ``MAX_ABS_SAMPLE``.
    """
    geom, omega, period = _rolling(scenario)
    if not sensor.sample_rate * period >= MIN_SAMPLES_PER_TURN:  # the period may be 0 or inf
        raise ScenarioError(
            f"sample rate {sensor.sample_rate:g} Hz gives fewer than "
            f"{MIN_SAMPLES_PER_TURN} samples per {period * 1e3:.4g} ms turn"
        )
    if 2.0 * geom.contact_half_angle >= math.pi:
        raise ScenarioError("release window extends past the top of the wheel")

    fs = sensor.sample_rate
    _check_turns(n_turns)  # before the bound, which a NaN or inf count also fails
    if not n_turns < _MAX_SAMPLES / (period * fs):  # int < float cannot overflow
        raise ScenarioError(
            f"{quote_count(n_turns)} turns at {fs:g} Hz need more samples than one array holds"
        )
    truth = ground_truth(scenario, n_turns)
    n = int(trace_rows(scenario, fs, n_turns))
    dt = 1.0 / fs

    # The samples are filled in blocks of BLOCK_SAMPLES rows, so every
    # temporary is block-sized and a trace needs little more memory than its
    # own samples.  A block reads the positions at (i - 1) * dt for its
    # samples i plus one on each side, so the second central difference lands
    # acceleration samples exactly on t = i * dt.  Every sample is the same
    # elementwise expression whatever the block size, and the noise rows are
    # drawn in sample order, so the bytes do not depend on the block size.
    samples = np.empty((n, 3))  # columns tangential, lateral, radial
    rng = np.random.default_rng(sensor.seed)
    bias = np.asarray(sensor.dc_bias, dtype=float)
    for lo in range(0, n, BLOCK_SAMPLES):
        block = samples[lo:lo + BLOCK_SAMPLES]
        t_pos = (np.arange(lo, lo + len(block) + 2) - 1.0) * dt
        x, y, z, sin_psi, cos_psi = _liner_positions(t_pos, scenario, geom, omega)
        del t_pos
        ay = _second_difference(y, fs)
        del y
        ax = _second_difference(x, fs)
        del x
        az = _second_difference(z, fs)
        del z
        block[:, 1] = ay
        del ay
        sin_psi, cos_psi = sin_psi[1:-1], cos_psi[1:-1]
        block[:, 2] = -ax * sin_psi + az * cos_psi
        block[:, 0] = ax * cos_psi + az * sin_psi
        del ax, az, sin_psi, cos_psi
        if sensor.noise_std > 0.0:
            block += rng.normal(0.0, sensor.noise_std, block.shape)
        block += bias

    try:
        return AccelTrace(sample_rate=fs, samples=samples), truth
    except ScenarioError:
        raise ScenarioError(
            f"sensor noise or bias makes the samples exceed "
            f"{MAX_ABS_SAMPLE:g} m/s^2 in magnitude"
        ) from None
