import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import settings

from tiresense import SensorSpec, TireScenario, simulate
from tiresense.dsp import detect_patch_edges
from tiresense.features import _clears_noise_floor

# Every run draws the same examples, so a run of the suite that passes once
# passes again.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def scenario(**overrides) -> TireScenario:
    base = dict(
        unloaded_radius=0.3,
        tread_depth=8.0,
        vertical_load=1000.0,
        inflation_pressure=32.0,
        slip_angle=0.0,
        vehicle_speed=20.0,
    )
    base.update(overrides)
    return TireScenario(**base)


def scenario_payload(scen: TireScenario, sensor: SensorSpec) -> dict:
    """The fields of a flat scenario file: the tire's, then the sensor's."""
    return {**asdict(scen), **asdict(sensor)}


def write_scenario(path, scen: TireScenario, sensor: SensorSpec) -> None:
    path.write_text(json.dumps(scenario_payload(scen, sensor)))


@pytest.fixture(scope="session")
def default_scenario() -> TireScenario:
    return scenario()


@pytest.fixture(scope="session")
def quiet_sensor() -> SensorSpec:
    return SensorSpec(noise_std=0.0, dc_bias=(0.0, 0.0, 0.0), seed=1)


@pytest.fixture(scope="session")
def biased_sensor() -> SensorSpec:
    # no stochastic noise, but the full constant bias the pipeline must reject
    return SensorSpec(noise_std=0.0, dc_bias=(5.0, 5.0, 5.0), seed=1)


@pytest.fixture(scope="session")
def noisy_sensor() -> SensorSpec:
    return SensorSpec(seed=7)


@pytest.fixture(scope="session")
def clean_trace(default_scenario, biased_sensor):
    """10 noise-free (but biased) turns of the default scenario."""
    return simulate(default_scenario, biased_sensor, 10)


@pytest.fixture(scope="session")
def noisy_trace(default_scenario, noisy_sensor):
    return simulate(default_scenario, noisy_sensor, 10)


def rule_failed(turn, sigma, level=0.0):
    """Number of the first edge rule one turn breaks, 0 if none: rules 1-3
    of the batched edge detector, then rule 4 against the noise ``sigma``
    and the ``level`` given, which one turn cannot measure on its own."""
    x = np.asarray(turn, dtype=float)
    edges = detect_patch_edges(x[None])
    if edges.failed[0]:
        return int(edges.failed[0])
    return 0 if _clears_noise_floor(x[edges.leading], x[edges.trailing], level, sigma)[0] else 4


def edges_of(turn, sigma=0.0, level=0.0):
    """(leading, trailing) of one turn through the batched edge detector;
    the turn must pass every edge rule, rule 4 against ``sigma`` and
    ``level``."""
    rule = rule_failed(turn, sigma, level)
    assert rule == 0, f"edge rule {rule} failed"
    edges = detect_patch_edges(np.asarray(turn)[None])
    return int(edges.leading[0]), int(edges.trailing[0])
