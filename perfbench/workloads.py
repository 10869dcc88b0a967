"""The three benchmark workloads: inputs, set-up, timed operations and checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished, in this process (``cli_cold`` waits on
one child process at a time).  Every input is derived from the run's seed.
Library calls go through module attributes (``cli.main``, ``tio.write_trace``)
so the tracer's wrappers are picked up when they are installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tiresense.cli as cli
import tiresense.io as tio
from tiresense import SensorSpec, TireScenario
from tiresense.io import read_estimates  # bound here, so checks stay untraced

simulation = sys.modules["tiresense.simulate"]  # the attribute is the function
SRC = Path(cli.__file__).resolve().parents[1]  # child processes import from here

SPEED = 20.0  # m/s, the paper's highway case
RADIUS = 0.3  # m
CALIBRATION_TURNS = 40
LOAD_GRID = [(load, p) for load in (800.0, 1033.0, 1267.0, 1500.0) for p in (29.0, 32.0, 35.0)]
SLIP_SET = [float(angle) for angle in range(7)]
# (load lbf, pressure psi, slip deg): inside the calibrated load range and
# the 0-6 deg slip-training range.
HIGHWAY = [(950.0, 30.0, 1.5), (1150.0, 32.0, 3.0), (1350.0, 34.0, 4.5)]
HIGHWAY_TURNS = 400
CHECK_CASE = (1150.0, 32.0, 2.5)
CHECK_TURNS = 40
# Criterion 6 of the acceptance suite, applied to every 40-turn report.
CHECK_MAX_ERROR = 0.026
CHECK_MAX_CONVERGENCE = 20
COLD_START_REPEATS = 3


def scenario(load: float, pressure: float, slip: float) -> TireScenario:
    return TireScenario(
        unloaded_radius=RADIUS,
        tread_depth=8.0,
        vertical_load=load,
        inflation_pressure=pressure,
        slip_angle=slip,
        vehicle_speed=SPEED,
    )


def sensor_seeds(seed: int) -> dict:
    """Sensor seeds for every trace a run simulates, all from the run seed."""
    state = [int(s) for s in np.random.SeedSequence(seed).generate_state(32)]
    return {
        "load": state[0:12],
        "slip": state[12:19],
        "highway": state[19:22],
        "check": state[22],
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def file_digests(directory: Path) -> dict:
    """SHA-256 of every file under ``directory``, by relative path."""
    directory = Path(directory)
    return {
        str(p.relative_to(directory)): sha256(p)
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class Problems:
    """Failed operations and failed output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def command(self, argv: list[str]) -> bool:
        """Run one CLI command in-process; True when it exits 0."""
        self.attempted += 1
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        if code != 0:
            self.failed += 1
            self.messages.append(f"{argv[0]} exited {code}")
        return code == 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.messages.append(message)


def write_case(path: Path, case, seed: int, turns: int) -> None:
    scen = scenario(*case)
    sensor = SensorSpec(seed=seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    trace, truth = simulation.simulate(scen, sensor, turns)
    tio.write_trace(path, trace, truth, scen, sensor)


def calibration_set(seeds: dict, directory: Path) -> list[tuple]:
    """(path, case, seed) of every calibration trace: the load grid, then the slip set."""
    return [
        (directory / "load" / f"load_{int(load)}_{int(pressure)}.csv", (load, pressure, 0.0), seed)
        for (load, pressure), seed in zip(LOAD_GRID, seeds["load"])
    ] + [
        (directory / "slip" / f"slip_{int(angle)}.csv", (1000.0, 32.0, angle), seed)
        for angle, seed in zip(SLIP_SET, seeds["slip"])
    ]


def model_paths(directory: Path) -> tuple[Path, Path]:
    """The load and slip models fitted from the calibration set in ``directory``."""
    return directory / "load_model.json", directory / "slip_model.json"


def calibration_commands(directory: Path) -> list[list[str]]:
    """``calibrate-load`` and ``calibrate-slip`` over the calibration set in ``directory``."""
    load_model, slip_model = model_paths(directory)
    return [
        ["calibrate-load", "--traces", str(directory / "load"), "--out", str(load_model)],
        ["calibrate-slip", "--traces", str(directory / "slip"), "--out", str(slip_model)],
    ]


def calibrate(problems: Problems, seeds: dict, directory: Path) -> tuple[Path, Path]:
    """Write the calibration set under ``directory`` and fit its models with the CLI."""
    for path, case, seed in calibration_set(seeds, directory):
        write_case(path, case, seed, CALIBRATION_TURNS)
    for argv in calibration_commands(directory):
        problems.command(argv)
    return model_paths(directory)


def check_estimates(problems: Problems, estimates: Path, sidecar: Path, slip: bool) -> None:
    """Rows match the sidecar's turn count and every valid row is finite."""
    loads, slips, valid = read_estimates(estimates)
    n_turns = json.loads(Path(sidecar).read_text())["n_turns"]
    problems.check(
        len(loads) == n_turns,
        f"{estimates.name}: {len(loads)} rows for {n_turns} turns",
    )
    finite = np.isfinite(loads[valid]).all() and (not slip or np.isfinite(slips[valid]).all())
    problems.check(bool(finite), f"{estimates.name}: non-finite value in a valid row")


def read_report(path: Path) -> dict:
    report = json.loads(Path(path).read_text())
    return {
        "load_error": report["load"]["converged_relative_error"],
        "convergence_turn": report["load"]["convergence_turn"],
        "slip_error": report["slip"]["error_mean"] if report["slip"] else float("nan"),
    }


def check_short_report(problems: Problems, report: dict, label: str) -> None:
    problems.check(
        report["load_error"] <= CHECK_MAX_ERROR,
        f"{label}: converged load error {report['load_error']:.4f} > {CHECK_MAX_ERROR}",
    )
    problems.check(
        report["convergence_turn"] <= CHECK_MAX_CONVERGENCE,
        f"{label}: convergence turn {report['convergence_turn']} > {CHECK_MAX_CONVERGENCE}",
    )


class Repeats:
    """Byte-identity of an operation's outputs across repeats of that operation."""

    def __init__(self, problems: Problems):
        self.problems = problems
        self.first: dict = {}

    def first_time(self, key, digests) -> bool:
        """Record the first outputs under ``key``; later repeats must match them."""
        if key not in self.first:
            self.first[key] = digests
            return True
        self.problems.check(self.first[key] == digests, f"{key}: outputs differ between repeats")
        return False


class Workload:
    """One workload: set-up, a timed operation, a pass for the traced run.

    ``setup`` builds every input under ``directory`` and is timed by the
    caller.  ``op`` runs one timed operation and returns the seconds of its
    two steps, as measured by ``clock``.  ``layer_pass`` runs the in-process work the traced run
    attributes to layers.  Subclasses also collect the accuracy of the
    reports they produce.
    """

    name = ""
    turns_per_op = 0

    def __init__(self, seed: int, problems: Problems, clock):
        self.seeds = sensor_seeds(seed)
        self.problems = problems
        self.clock = clock
        self.repeats = Repeats(problems)
        self.reports: dict = {}

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def op(self, index: int) -> tuple[float, float]:
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        return 1

    def layer_pass(self, index: int) -> None:
        self.op(index)

    def finish(self) -> None:
        """Checks that run once, after the measured loop."""

    def accuracy(self) -> tuple[float, float]:
        """Mean converged load error (%) and mean slip error (deg) of the reports."""
        reports = list(self.reports.values())
        if not reports:
            return float("nan"), float("nan")
        load = 100.0 * float(np.mean([r["load_error"] for r in reports]))
        slip = float(np.mean([r["slip_error"] for r in reports]))
        return load, slip

    def _estimate_evaluate(self, key, trace: Path, out: Path, runner) -> tuple[float, float]:
        """Estimate then evaluate one trace; check the outputs; time each step."""
        estimates, report = out / f"{trace.stem}.est.csv", out / f"{trace.stem}.report.json"
        sidecar = trace.with_suffix(".json")
        ok1, step1 = self.clock.time(runner, [
            "estimate", "--trace", str(trace), "--load-model", str(self.load_model),
            "--slip-model", str(self.slip_model), "--out", str(estimates),
        ])
        ok2, step2 = self.clock.time(runner, [
            "evaluate", "--estimates", str(estimates), "--truth", str(sidecar),
            "--report", str(report),
        ])
        if ok1 and ok2 and self.repeats.first_time(key, (sha256(estimates), sha256(report))):
            check_estimates(self.problems, estimates, sidecar, slip=True)
            self.reports[key] = read_report(report)
        return step1, step2


class HighwayStream(Workload):
    """In-process estimate + evaluate on 400-turn traces, one trace per op."""

    name = "highway_stream"
    turns_per_op = HIGHWAY_TURNS

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        self.load_model, self.slip_model = calibrate(
            self.problems, self.seeds, directory / "calibration"
        )
        self.traces = []
        for i, (case, seed) in enumerate(zip(HIGHWAY, self.seeds["highway"])):
            path = directory / f"highway_{i}.csv"
            write_case(path, case, seed, HIGHWAY_TURNS)
            self.traces.append(path)
        self.out = directory / "out"
        self.out.mkdir()

    def ops_per_pass(self) -> int:
        return len(self.traces)

    def op(self, index: int) -> tuple[float, float]:
        trace = self.traces[index % len(self.traces)]
        return self._estimate_evaluate(trace.name, trace, self.out, self.problems.command)

    def layer_pass(self, index: int) -> None:
        for i in range(len(self.traces)):
            self.op(i)


class CalibrationGrid(Workload):
    """Simulate + write the calibration set, then calibrate-load/-slip on it."""

    name = "calibration_grid"
    turns_per_op = (len(LOAD_GRID) + len(SLIP_SET)) * CALIBRATION_TURNS

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        self.check_trace = directory / "check.csv"
        write_case(self.check_trace, CHECK_CASE, self.seeds["check"], CHECK_TURNS)
        self.calibration = directory / "calibration"
        self.load_model, self.slip_model = model_paths(self.calibration)
        self.out = directory / "out"
        self.out.mkdir()

    def op(self, index: int) -> tuple[float, float]:
        step1 = 0.0
        for path, case, seed in calibration_set(self.seeds, self.calibration):
            self.problems.attempted += 1
            step1 += self.clock.time(write_case, path, case, seed, CALIBRATION_TURNS)[1]
        step2, ok = 0.0, True
        for argv in calibration_commands(self.calibration):
            fitted, seconds = self.clock.time(self.problems.command, argv)
            step2 += seconds
            ok = ok and fitted
        if ok:
            self.repeats.first_time("grid", file_digests(self.calibration))
        return step1, step2

    def finish(self) -> None:
        """The models of the last cycle must meet criterion 6 on a 40-turn trace."""
        self._estimate_evaluate("check", self.check_trace, self.out, self.problems.command)
        if "check" in self.reports:
            check_short_report(self.problems, self.reports["check"], "calibration check")


class CliCold(Workload):
    """``python -m tiresense`` estimate + evaluate on a 40-turn trace, cold."""

    name = "cli_cold"
    turns_per_op = CHECK_TURNS

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        self.load_model, self.slip_model = calibrate(
            self.problems, self.seeds, directory / "calibration"
        )
        self.trace = directory / "check.csv"
        write_case(self.trace, CHECK_CASE, self.seeds["check"], CHECK_TURNS)
        self.out = directory / "out"
        self.cold_out = directory / "cold"
        self.out.mkdir()
        self.cold_out.mkdir()

    def _cold(self, argv: list[str]) -> bool:
        self.problems.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-m", "tiresense", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        )
        if proc.returncode != 0:
            self.problems.failed += 1
            self.problems.messages.append(
                f"python -m tiresense {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}"
            )
        return proc.returncode == 0

    def op(self, index: int) -> tuple[float, float]:
        return self._estimate_evaluate("cold", self.trace, self.cold_out, self._cold)

    def layer_pass(self, index: int) -> None:
        # The same commands in-process: layer times without start-up and imports.
        self._estimate_evaluate("in-process", self.trace, self.out, self.problems.command)

    def finish(self) -> None:
        for key, report in self.reports.items():
            check_short_report(self.problems, report, f"cli_cold {key} report")


WORKLOADS = {w.name: w for w in (HighwayStream, CalibrationGrid, CliCold)}


def cold_start_times() -> tuple[float, float]:
    """Median seconds of a bare interpreter start and of a cold ``import tiresense.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    starts, imports = [], []
    code = (
        "import time; t = time.perf_counter(); import tiresense.cli; "
        "print(time.perf_counter() - t)"
    )
    for _ in range(COLD_START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        )
        imports.append(float(proc.stdout))
    return float(np.median(starts)), float(np.median(imports))

