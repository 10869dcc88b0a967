import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiresense import ScenarioError, SensorSpec, TireScenario, derive_geometry
from tiresense.scenario import TireGeometry

from conftest import scenario


def test_flat_spot_geometry_closed_form():
    # recomputed by hand: cos(theta) = 0.28 / 0.3
    geom = TireGeometry(
        effective_radius=0.3,
        deflection=0.02,
        contact_half_angle=math.acos(0.28 / 0.3),
    )
    assert geom.contact_half_angle == pytest.approx(0.36721, abs=1e-5)
    assert geom.patch_chord == pytest.approx(0.21540, abs=1e-5)
    patch_arc = 2 * geom.effective_radius * geom.contact_half_angle
    assert patch_arc == pytest.approx(0.22033, abs=1e-5)


def test_no_contact_limit():
    geom = derive_geometry(scenario(vertical_load=1e-9))
    assert geom.contact_half_angle == pytest.approx(0.0, abs=1e-5)
    assert geom.patch_chord == pytest.approx(0.0, abs=1e-4)


def test_deflection_formula():
    geom = derive_geometry(scenario())
    # 1000 lbf at k = 120 + 2.5 * 32 = 200 N/mm
    assert geom.deflection_mm == pytest.approx(1000 * 4.4482216 / 200.0, rel=1e-12)


def test_tread_changes_chord_not_deflection():
    fresh = derive_geometry(scenario(tread_depth=8.0))
    worn = derive_geometry(scenario(tread_depth=2.0))
    assert worn.deflection == fresh.deflection
    assert worn.patch_chord < fresh.patch_chord
    assert worn.effective_radius < fresh.effective_radius


def test_degenerate_deflection_raises():
    with pytest.raises(ScenarioError, match=r"^deflection .* mm reaches the effective radius "
                       r".* mm; patch geometry is degenerate$"):
        derive_geometry(scenario(vertical_load=20000.0))


def test_wear_consuming_radius_raises():
    with pytest.raises(ScenarioError, match=r"^effective radius -0\.0018 m is not positive "
                       r"at tread 2\.0 mm$"):
        derive_geometry(scenario(unloaded_radius=0.03, tread_depth=2.0))


@pytest.mark.parametrize(
    "field,value",
    [
        ("unloaded_radius", 0.0),
        ("unloaded_radius", math.inf),
        ("vehicle_speed", -1.0),
        ("vehicle_speed", math.inf),
        ("vertical_load", 0.0),
        ("inflation_pressure", 0.0),
        ("tread_depth", -1.0),
        ("tread_depth", 9.0),
        ("slip_angle", 11.0),
        ("slip_angle", -10.5),
        ("slip_angle", math.nan),
    ],
)
def test_scenario_invariants(field, value):
    with pytest.raises(ScenarioError):
        scenario(**{field: value})


@pytest.mark.parametrize("field", ["unloaded_radius", "vehicle_speed"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_scenario_refuses_a_radius_or_speed_that_is_not_positive_and_finite(field, value):
    # one check per field, whose line reads true of each value it refuses
    with pytest.raises(ScenarioError, match=f"^{field} must be positive and finite$"):
        scenario(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("sample_rate", math.nan),
        ("noise_std", -1.0),
        ("noise_std", math.nan),
        ("dc_bias", (5.0, math.nan, 5.0)),
        ("dc_bias", (math.inf, 5.0, 5.0)),
    ],
)
def test_sensor_invariants(field, value):
    # a NaN noise level would otherwise simulate a noise-free trace
    with pytest.raises(ScenarioError):
        SensorSpec(**{field: value})


@pytest.mark.parametrize("seed", [7.0, 2.5, math.nan, math.inf, -1, "7"])
def test_sensor_seed_must_be_a_non_negative_integer(seed):
    # numpy's generator takes integer seeds only: 7.0 failed later, in simulate
    with pytest.raises(ScenarioError, match="^seed must be a non-negative integer$"):
        SensorSpec(seed=seed)
    for whole in (0, np.int64(3), 2**70):
        assert SensorSpec(seed=whole).seed == whole


@settings(max_examples=60, deadline=None)
@given(
    load=st.floats(800.0, 1500.0),
    pressure=st.floats(29.0, 35.0),
    tread=st.floats(2.0, 8.0),
)
def test_chord_monotonic_in_each_factor(load, pressure, tread):
    geom = derive_geometry(scenario(vertical_load=load, inflation_pressure=pressure,
                                    tread_depth=tread))
    more_load = derive_geometry(
        scenario(vertical_load=load + 50.0, inflation_pressure=pressure,
                 tread_depth=tread)
    )
    more_pressure = derive_geometry(
        scenario(vertical_load=load, inflation_pressure=pressure + 0.5,
                 tread_depth=tread)
    )
    less_tread = derive_geometry(
        scenario(vertical_load=load, inflation_pressure=pressure,
                 tread_depth=tread - 0.5 if tread >= 2.5 else tread)
    )
    assert more_load.patch_chord > geom.patch_chord
    assert more_pressure.patch_chord < geom.patch_chord
    if tread >= 2.5:
        assert less_tread.patch_chord < geom.patch_chord
        assert less_tread.deflection == geom.deflection
