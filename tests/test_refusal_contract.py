"""The library's refusal contract: a public call returns or raises a
TireSenseError, on any input, and emits no warning.

The inputs are infinities, NaN, zeros, negatives and extreme magnitudes,
and degenerate traces: zeros, a constant, pure noise and one impulse.  The
load surface and the slip regression know no domain yet (ROADMAP item 3),
so arithmetic on a far-out dip, pressure or lateral feature overflows.
Those cases are pinned below as strict xfails, and the draws for those two
calls stay inside the finite range where their arithmetic does not
overflow.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiresense import (
    AccelTrace,
    SensorSpec,
    TireScenario,
    TireSenseError,
    derive_geometry,
    simulate,
)
from tiresense.estimation import (
    estimate_load_stream,
    fit_load_surface,
    fit_patch_load_model,
    fit_slip_model,
    load_measurement,
    predict_slip,
)
from tiresense.features import extract_features
from tiresense.simulate import trace_rows

EXTREMES = (math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0,
            5e-324, 1e-300, 1e300, -1e300, 1e308, -1e308)

# Rows a simulated trace may take here; a longer one only costs memory.
MAX_ROWS = 200_000

CONTRACT = settings(derandomize=True, deadline=None, max_examples=60)


def values(*typical):
    """An argument's typical values, the extremes, and any float."""
    return st.sampled_from(typical + EXTREMES) | st.floats()


def within(limit):
    """``values`` of a dip, pressure or lateral feature, NaN kept, whose
    magnitude stays at most ``limit`` (ROADMAP item 3)."""
    return values(0.5, 1.0).filter(lambda v: not abs(v) > limit)


def holds_contract(call, *args):
    """Call; a TireSenseError passes, any other exception or a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except TireSenseError:
            pass


def _fitted_models():
    grid = [(load, pressure, 2e-3 * load - 0.05 * pressure + 1e-6 * load * pressure
             + 4e-4 * pressure**2) for load in (800.0, 1150.0, 1500.0)
            for pressure in (29.0, 32.0, 35.0)]
    lateral = [(0.4 * slip + 0.01 * k, 0.05 * slip - 0.002 * k, slip)
               for k, slip in enumerate((0.0, 2.0, 4.0, 6.0, 0.0, 3.0))]
    return fit_load_surface(grid), fit_slip_model(lateral)


SURFACE, SLIP = _fitted_models()


@CONTRACT
@given(radius=values(0.3), tread=values(8.0, 2.0), load=values(1000.0),
       pressure=values(32.0, 1000.0), slip=values(0.0, 10.0), speed=values(20.0))
def test_a_scenario_is_refused_or_has_a_geometry(radius, tread, load, pressure, slip, speed):
    holds_contract(lambda: derive_geometry(
        TireScenario(radius, tread, load, pressure, slip, speed)))


@CONTRACT
@given(rate=values(10_000.0), noise=values(25.0),
       bias=st.lists(values(5.0), min_size=2, max_size=4),
       seed=st.integers(-3, 2**80) | values(7.0, 2.5))
def test_a_sensor_is_refused_or_built(rate, noise, bias, seed):
    holds_contract(SensorSpec, rate, noise, tuple(bias), seed)


@CONTRACT
@given(radius=st.sampled_from((0.3, 0.05, 3.0, 1e-10, 5e-324, 1e300)),
       load=st.sampled_from((1000.0, 1e-300, 20_000.0, 1e308)),
       speed=st.sampled_from((20.0, 5.0, 5e-324, 1e-300, 1e300)),
       rate=st.sampled_from((10_000.0, 500.0, 5e-324, 1e300, math.inf)),
       noise=st.sampled_from((0.0, 25.0, 1e200, 1e308, math.inf)),
       bias=st.sampled_from((0.0, -5.0, 1e100, 1e308)),
       seed=st.sampled_from((0, 7, 2**70, 7.0)),
       n_turns=st.sampled_from((1, 2, np.int64(2), 0, -1, 2.5, math.nan, math.inf,
                                10**17, 10**400)))
def test_simulate_refuses_or_returns_a_trace(radius, load, speed, rate, noise, bias, seed,
                                             n_turns):
    def run():
        scenario = TireScenario(radius, 8.0, load, 32.0, 2.0, speed)
        sensor = SensorSpec(rate, noise, (bias, 0.0, bias), seed)
        # every other count is refused before a sample is made
        if n_turns in (1, 2) and MAX_ROWS < trace_rows(scenario, rate, n_turns) < 2**60:
            return
        simulate(scenario, sensor, n_turns)

    holds_contract(run)


@st.composite
def traces(draw):
    """A degenerate trace: zeros, a constant, pure noise or one impulse."""
    n = draw(st.integers(0, 6000))
    kind = draw(st.sampled_from(("zeros", "constant", "noise", "impulse")))
    samples = np.zeros((n, 3))
    if kind == "constant":
        samples[:] = draw(values(3.0))
    elif kind == "noise":
        sigma = draw(st.sampled_from((1.0, 25.0, 1e99)))
        samples = np.random.default_rng(draw(st.integers(0, 9))).normal(0.0, sigma, (n, 3))
    elif kind == "impulse" and n:
        samples[draw(st.integers(0, n - 1)), draw(st.integers(0, 2))] = draw(values(1e4))
    return samples


@CONTRACT
@given(samples=traces(), rate=values(10_000.0, 500.0), speed=values(20.0),
       radius=values(0.3), lateral=st.booleans())
def test_extract_features_refuses_or_returns_a_table(samples, rate, speed, radius, lateral):
    holds_contract(lambda: extract_features(AccelTrace(rate, samples), speed, radius, lateral))


@CONTRACT
@given(fit_width=st.sampled_from(((fit_load_surface, 3), (fit_patch_load_model, 2),
                                  (fit_slip_model, 3))), data=st.data())
def test_a_fit_refuses_or_returns_a_model(fit_width, data):
    fit, width = fit_width
    rows = data.draw(st.lists(st.lists(values(1.0, 2.0, 30.0, 1000.0), min_size=width,
                                       max_size=width), max_size=12))
    holds_contract(fit, rows)


@CONTRACT
@given(peaks=st.lists(within(1e300) | st.sampled_from((math.inf, -math.inf)), max_size=8),
       pressure=within(1e150))
def test_estimate_load_stream_refuses_or_estimates(peaks, pressure):
    holds_contract(estimate_load_stream, SURFACE, np.array(peaks, dtype=float), pressure)


@CONTRACT
@given(features=st.lists(st.tuples(within(1e300), within(1e300)), max_size=8))
def test_predict_slip_returns_a_slip_per_turn(features):
    peak, slope = np.array(features, dtype=float).reshape(-1, 2).T
    holds_contract(predict_slip, SLIP, peak, slope)


_ITEM_3 = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: no domain for the surface "
                            "or the slip regression, so their arithmetic overflows")


@pytest.mark.parametrize("call, args", [
    pytest.param(load_measurement, (SURFACE, np.array([1e308, -1e308]), 32.0),
                 id="dips-1e308-overflow-in-divide", marks=_ITEM_3),
    pytest.param(estimate_load_stream, (SURFACE, np.array([1.0]), 1e300),
                 id="pressure-1e300-bare-overflow-error", marks=_ITEM_3),
    pytest.param(estimate_load_stream, (SURFACE, np.array([1.0]), math.inf),
                 id="pressure-inf-invalid-value", marks=_ITEM_3),
    pytest.param(predict_slip, (SLIP, np.array([1e308]), np.array([1e308])),
                 id="features-1e308-overflow", marks=_ITEM_3),
    pytest.param(predict_slip, (SLIP, np.array([math.inf]), np.array([-math.inf])),
                 id="features-inf-invalid-value", marks=_ITEM_3),
])
def test_known_overflows_outside_a_model_domain(call, args):
    holds_contract(call, *args)
