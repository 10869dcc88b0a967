"""Benchmark of the tiresense pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload highway_stream --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``highway_stream``, ``calibration_grid``
and ``cli_cold``.  With ``--trace 0`` the run sets up three times, runs the
workload's operation in a closed loop for ``--seconds`` and prints the
end-to-end metrics named in BENCHMARK.json, with times scaled to a reference
CPU speed (clock.py).  With ``--trace 1`` it wraps the package's public
functions, alternates traced and untraced passes for ``--seconds`` and prints
the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The package is imported from ``src/`` of the checkout; without it the run
exits with code 1 and prints no result.  Files go to ``.perfbench_work/``
in the checkout and are removed at the end.
"""

from __future__ import annotations

import os

# lstsq and svd call into BLAS; one thread keeps runs comparable on a
# two-core machine.  Set before numpy is imported, inherited by children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import tiresense from it."""
    package = SRC / "tiresense"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a tiresense checkout")
    sys.path.insert(0, str(SRC))
    import tiresense

    if Path(tiresense.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported tiresense from {tiresense.__file__}, not {package}")


def median(values) -> float:
    return float(statistics.median(values))


def timed_run(workload, run_dir: Path, seconds: float) -> dict:
    """Set up three times, then loop over the operation; end-to-end metrics."""
    from workloads import file_digests

    problems = workload.problems
    setup_times, digests = [], []
    for k in range(SETUP_REPEATS):
        directory = run_dir / f"setup{k}"
        _, seconds_taken = workload.clock.time(workload.setup, directory)
        setup_times.append(seconds_taken)
        digests.append(file_digests(directory))
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    problems.check(
        all(d == digests[0] for d in digests), "set-up outputs differ between repeats"
    )

    first, second = [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or not first:
        for _ in range(workload.ops_per_pass()):
            step1, step2 = workload.op(index)
            first.append(step1)
            second.append(step2)
            index += 1
    workload.finish()

    probe_ms = 1e3 * median(workload.clock.probes)
    print(f"perfbench: CPU probe median {probe_ms:.4g} ms (reference 10 ms)", file=sys.stderr)
    print(
        f"perfbench: step and turns_per_s medians over {len(first)} operations, "
        f"setup_s median over {SETUP_REPEATS} set-ups", file=sys.stderr,
    )
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    return {
        "setup_s": median(setup_times),
        "turns_per_s": median(workload.turns_per_op / (a + b) for a, b in zip(first, second)),
        "step1_p50_s": median(first),
        "step2_p50_s": median(second),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def traced_run(workload, run_dir: Path, seconds: float) -> dict:
    """Traced set-up, then untraced and traced passes in ABBA order; layer metrics."""
    from clock import Clock
    from tracer import Tracer
    from workloads import cold_start_times

    problems = workload.problems
    tracer = Tracer()
    tracer.install()
    with tracer.root("setup") as setup_root:
        workload.setup(run_dir / "setup0")
    tracer.uninstall()

    def traced_pass(index):
        with tracer.root("pass") as root:
            workload.layer_pass(index)
        return root

    # Pass times for the overhead are scaled like end-to-end times (clock.py).
    clock = Clock(scaled=True)
    traced_roots, traced_walls, plain_walls = [], [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or not (traced_walls and plain_walls):
        if index % 4 in (1, 2):
            tracer.install()
            root, wall = clock.time(traced_pass, index)
            tracer.uninstall()
            traced_walls.append(wall)
            traced_roots.append(root)
        else:
            plain_walls.append(clock.time(workload.layer_pass, index)[1])
        index += 1

    tracer.install()
    with tracer.root("finish") as finish_root:
        workload.finish()
    tracer.uninstall()
    python_start_s, import_s = cold_start_times()

    passes = [tracer.summary(r) for r in traced_roots]
    print(f"perfbench: per-layer medians over {len(passes)} traced passes", file=sys.stderr)
    fallbacks = [tracer.summary(setup_root), tracer.summary(finish_root)]

    def per_pass(value):
        """Median over traced passes; for work no pass does, the set-up or the finish."""
        found = [v for v in map(value, passes) if v is not None]
        if found:
            return median(found)
        for summary in fallbacks:
            v = value(summary)
            if v is not None:
                return v
        return 0.0

    def self_ms(name):
        return per_pass(lambda s: s["functions"][name]["self_ns"] / 1e6 if name in s["functions"] else None)

    def calls(name):
        return per_pass(lambda s: s["functions"][name]["calls"] if name in s["functions"] else None)

    def count(key):
        return per_pass(lambda s: s["counts"].get(key))

    def ratio(part, whole):
        return per_pass(lambda s: s["counts"][part] / s["counts"][whole] if s["counts"].get(whole) else None)

    # Counts of a pass must repeat exactly from one traced pass to the next.
    for key in ("io.read_trace.bytes", "io.write_trace.bytes", "dsp.segments",
                "dsp.segments_centered", "features.turns", "features.skipped_turns"):
        seen = {s["counts"].get(key) for s in passes}
        problems.check(len(seen) == 1, f"count {key} differs between traced passes: {seen}")
    seen = {s["spans"] for s in passes}
    problems.check(len(seen) == 1, f"span count differs between traced passes: {seen}")

    load_error_pct, slip_error_deg = workload.accuracy()
    metrics = {
        f"{name}.ms": self_ms(name)
        for name in (
            "io.read_trace", "io.write_trace", "simulate.simulate",
            "dsp.estimate_period", "dsp.segment_turns", "dsp.accel_to_displacement",
            "dsp.highpass", "dsp.detect_patch_edges", "dsp.moving_average",
            "features.extract_features", "features.lateral_features",
            "estimation.estimate_load_stream", "estimation.predict_slip",
            "estimation.fit_load_surface", "estimation.fit_slip_model",
        )
    }
    metrics.update({
        "cli.main.ms": per_pass(
            lambda s: s["functions"]["cli.main"]["total_ns"] / 1e6 if "cli.main" in s["functions"] else None
        ),
        "cli.python_start_s": python_start_s,
        "cli.import_s": import_s,
        "io.read_trace.bytes": count("io.read_trace.bytes"),
        "io.write_trace.bytes": count("io.write_trace.bytes"),
        "dsp.accel_to_displacement.calls": calls("dsp.accel_to_displacement"),
        "dsp.highpass.calls": calls("dsp.highpass"),
        "dsp.segments_centered_ratio": ratio("dsp.segments_centered", "dsp.segments"),
        "features.turns": count("features.turns"),
        "features.skipped_turns": count("features.skipped_turns"),
        "features.ok_ratio": ratio("features.ok_turns", "features.turns"),
        "estimation.valid_ratio": ratio("estimation.valid_turns", "estimation.turns"),
        "estimation.load_error_pct": load_error_pct,
        "estimation.slip_error_deg": slip_error_deg,
        "trace.overhead_ms": (median(traced_walls) - median(plain_walls)) * 1e3,
        "trace.spans": median(s["spans"] for s in passes),
        "trace.probe_ms": median(clock.probes) * 1e3,
    })
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from clock import Clock
    from workloads import WORKLOADS, Problems

    # The probe and the timed work, children included, share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    problems = Problems()
    workload = WORKLOADS[args.workload](args.seed, problems, Clock(scaled=not args.trace))
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        measured = run(workload, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for message in problems.messages:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems.messages and problems.failed == 0,
        "attempted": problems.attempted,
        "failed": problems.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
