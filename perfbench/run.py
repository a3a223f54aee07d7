"""Scenario benchmark for lqmarket with per-layer tracing.

    python3 perfbench/run.py --workload small_solves --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of the shipped scenario files, run
unchanged and in-process through ``lqmarket.cli.main(["run", ...,
"--threads", "1", "--seed", SEED])`` into a fresh output directory per
pass.  ``--seed`` reaches only the Monte Carlo scenarios' ``sim.seed``.

With ``--trace 0`` the run reports the end-to-end metrics of untraced
passes; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see tracer.py).  Every
pass is checked against the reference tables (see check.py).  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every output checked out and 1 otherwise; 2
means the benchmark could not start (no lqmarket source beside it).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT_ROOT = ROOT / ".perfbench_out"

THREADS = 1  # the CLI --threads value every pass uses
SETUP_REPEATS = 5  # fresh processes timed for setup_s

WORKLOADS = {
    # one budget grid at two discounts: the capacity -> riccati dual search
    "capacity_sweep": ("fig4_capacity",),
    # one K(lambda) family re-solved at five noise levels, nested brentq
    "renewables_sweep": ("fig7_renewables",),
    # RNG streams and steppers; 11 Riccati solves in total
    "monte_carlo": ("fig8_der_cliff", "simulate_base"),
    # many short independent solves, Nash fixed points and CSV writes
    "small_solves": ("fig5_nash", "fig2_concavity", "fig3_qalpha", "riccati_base"),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import lqmarket
from lqmarket.cli import load_scenario
for path in sys.argv[2:]:
    load_scenario(path, seed=int(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cli_threads": THREADS,
    }


def measure_setup(paths, seed) -> list[float]:
    """import lqmarket + load_scenario for every file, in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(seed), *map(str, paths)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{out.stderr}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def closed_form_functionals() -> dict:
    """simulate_base's functionals from evaluate_policy, for the MC check."""
    import numpy as np
    from lqmarket import evaluate_policy, solve_riccati, system_from_config
    from lqmarket.cli import load_scenario

    config = load_scenario(SCENARIOS / "simulate_base.yaml")
    system = system_from_config(config["system"])
    report = evaluate_policy(
        system, solve_riccati(system).gain, np.asarray(config["params"]["x0"])
    )
    return {
        "cost": report.cost,
        "volatility": report.volatility,
        "efficiency": report.efficiency,
    }


class Bench:
    """One benchmark run: passes, their checks and the operation tally."""

    def __init__(self, workload, seed, checker, work_dir):
        from lqmarket import cli

        self.cli = cli
        self.stems = WORKLOADS[workload]
        self.seed = seed
        self.checker = checker
        self.work_dir = work_dir
        self.sweeps = tracer.Tracer(names=["capacity.sweep_capacity_region"])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._passes = 0

    def run_pass(self, traced=None, default_seed=False):
        """Run every scenario once; return (wall_s, cpu_s)."""
        spy = traced or self.sweeps
        spy.reset()
        pass_dir = self.work_dir / f"pass{self._passes}"
        self._passes += 1
        codes = {}
        with spy.installed():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            for stem in self.stems:
                argv = ["run", str(SCENARIOS / f"{stem}.yaml"),
                        "--out-dir", str(pass_dir / stem), "--threads", str(THREADS)]
                if not default_seed:
                    argv += ["--seed", str(self.seed)]
                with spy.scenario(stem), contextlib.redirect_stdout(io.StringIO()):
                    try:
                        codes[stem] = self.cli.main(argv)
                    except Exception:  # a crash is a failed scenario run
                        traceback.print_exc()
                        codes[stem] = -1
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        self._tally(spy, codes, pass_dir, default_seed)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return wall, cpu

    def _tally(self, spy, codes, pass_dir, default_seed):
        points, bad_points = tracer.grid_points(spy.spans)
        self.attempted += len(codes) + points
        self.failed += bad_points
        if bad_points:
            self.problems.append(f"{bad_points} capacity grid points failed")
        for stem, code in codes.items():
            problems = [f"{stem}: exit code {code}"] if code != 0 else \
                self.checker.check_pass(stem, pass_dir / stem, default_seed)
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    @property
    def seeded(self) -> bool:
        return any(meta["seeded"] for stem in self.stems
                   for meta in self.checker.files[stem].values())


def timed_loop(seconds, body) -> None:
    """Repeat ``body`` while another round of the same length still fits."""
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        body()
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return


def tail(samples) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n/a ({n} samples; needs at least 11)"
    k = n - 10
    return f"{sorted(samples)[k - 1]:.4f} s at p{100.0 * k / n:.0f} ({n} samples)"


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> int:
    if not (SRC / "lqmarket" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"perfbench: no lqmarket source under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lqmarket

    if Path(lqmarket.__file__).resolve().parent != (SRC / "lqmarket").resolve():
        print(f"perfbench: imported lqmarket from {lqmarket.__file__}", file=sys.stderr)
        return 2

    stems = WORKLOADS[args.workload]
    facts = machine_facts()
    setup = measure_setup([SCENARIOS / f"{s}.yaml" for s in stems], args.seed)
    closed = closed_form_functionals() if "simulate_base" in stems else None
    checker = check.Checker(stems, closed_form=closed)

    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    bench = Bench(args.workload, args.seed, checker, work_dir)
    walls, cpus, traced_walls, layer_runs = [], [], [], []
    try:
        if bench.seeded:  # seeded tables match the reference only at their own seed
            bench.run_pass(default_seed=True)
        if args.trace:
            traced = tracer.Tracer()

            def body():
                wall, _ = bench.run_pass()
                walls.append(wall)
                traced_walls.append(bench.run_pass(traced)[0])
                layer_runs.append(tracer.summarize(traced.spans))

            timed_loop(args.seconds, body)
            spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.csv"
            traced.write(spans_path)
        else:
            def body():
                wall, cpu = bench.run_pass()
                walls.append(wall)
                cpus.append(cpu)

            timed_loop(args.seconds, body)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload: {args.workload} ({', '.join(stems)})  seed: {args.seed}")
    print("machine:", json.dumps(facts, sort_keys=True))
    samples = {}
    if args.trace:
        metrics = {}
        for key, (unit, _) in tracer.PER_LAYER.items():
            if key == "trace.overhead_s":
                value = statistics.median(traced_walls) - statistics.median(walls)
            else:
                values = [layer[key] for layer in layer_runs]
                if not key.endswith(tracer.EXACT_SUFFIXES):
                    value = statistics.median(values)
                elif len(set(values)) == 1:
                    value = values[0]
                else:
                    value = statistics.median(values)
                    bench.failed += 1
                    bench.problems.append(f"{key} differs between traced passes: {values}")
            metrics[key] = metric(value, unit)
            samples[key] = len(layer_runs)
        print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    else:
        measured = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup,
                    "peak_rss_mib": [peak_rss_mib]}
        metrics = {key: metric(statistics.median(measured[key]), unit)
                   for key, unit in END_TO_END.items()}
        samples = {key: len(measured[key]) for key in END_TO_END}
        print(f"wall_s.tail: {tail(walls)}")
        print("wall_s samples:", " ".join(f"{w:.4f}" for w in walls))
        print("setup_s samples:", " ".join(f"{w:.4f}" for w in setup))
    fail_ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"fail_ratio: {fail_ratio:.6g} ({bench.failed} of {bench.attempted} "
          f"operations: scenario runs and capacity grid points)")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']:8s} n={samples[name]}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
