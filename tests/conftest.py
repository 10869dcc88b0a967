import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import settings

from tiresense import SensorSpec, TireScenario, simulate
from tiresense.dsp import detect_patch_edges

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


def edges_of(turn):
    """(leading, trailing) of one turn through the batched edge detector;
    the turn must pass every edge rule."""
    edges = detect_patch_edges(np.asarray(turn)[None])
    assert edges.failed[0] == 0, f"edge rule {edges.failed[0]} failed"
    return int(edges.leading[0]), int(edges.trailing[0])


def rule_failed(turn):
    """Number of the first edge rule one turn breaks, 0 if none."""
    return int(detect_patch_edges(np.asarray(turn)[None]).failed[0])
