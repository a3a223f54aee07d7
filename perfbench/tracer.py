"""Outside-in span tracer for the lqmarket layers.

The tracer wraps the public functions listed in ``LAYER_MAP`` without
touching the package source.  lqmarket modules import each other with
``from .riccati import solve_riccati``, so every module holds its own
binding of a shared function; the tracer rebinds the name in every
lqmarket module whose attribute *is* the listed function object, which
catches calls made through any of those bindings.  A listed name that no
longer resolves to a function raises ``TracerError`` instead of quietly
counting nothing.

Spans stay in memory as tuples ``(name, start, end, parent, scenario,
info)``: ``parent`` is the index of the enclosing span (-1 at the top),
``scenario`` the label shared by every span of one scenario run, and
``info`` the counts read from the returned object (see ``EXTRACTORS``).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
from time import perf_counter

PACKAGE = "lqmarket"

# module -> public functions traced in it; the layer names of the benchmark
LAYER_MAP = {
    "riccati": ("solve_riccati", "solve_discounted_lyapunov"),
    "model": ("check_controllability", "check_observability"),
    "functionals": ("evaluate_policy", "concavity_scan"),
    "capacity": (
        "solve_constrained",
        "maximize_dual",
        "q_alpha",
        "sweep_capacity_region",
    ),
    "renewables": ("volatility_vs_psi", "capacity_shrinkage", "der_cliff"),
    "simulate": ("simulate", "stream"),
    "nash": ("solve_nash", "social_cost_scan", "simulate_equilibrium"),
    "cli": ("load_scenario",),
    "output": ("write_csv",),
}

# span name -> counts read from the returned object
EXTRACTORS = {
    "riccati.solve_riccati": lambda sol: (sol.iterations, sol.residual),
    "riccati.solve_discounted_lyapunov": lambda sol: (sol.iterations,),
    "capacity.sweep_capacity_region": lambda reg: (
        len(reg.points),
        len(reg.failures),
    ),
    "simulate.simulate": lambda batch: (
        batch.n_paths,
        batch.horizon,
        batch.n_excluded,
    ),
    "nash.solve_nash": lambda eq: (eq.iterations,),
    "output.write_csv": lambda path: (os.path.getsize(path),),
}

SCENARIO_PREFIX = "scenario."


class TracerError(RuntimeError):
    """A traced name no longer resolves; the layer map needs updating."""


def resolve_layer_map(names=None) -> list[tuple[str, object]]:
    """Return ``(span_name, function)`` for every listed (or chosen) name.

    Modules are resolved through ``importlib.import_module`` because the
    package attribute ``lqmarket.simulate`` is the re-exported function,
    not the module.
    """
    targets = []
    for modname, funcs in LAYER_MAP.items():
        module = importlib.import_module(f"{PACKAGE}.{modname}")
        for func in funcs:
            span_name = f"{modname}.{func}"
            if names is not None and span_name not in names:
                continue
            fn = getattr(module, func, None)
            if not inspect.isfunction(fn):
                raise TracerError(
                    f"{PACKAGE}.{span_name} does not resolve to a function "
                    f"(got {type(fn).__name__}); update perfbench/tracer.py"
                )
            targets.append((span_name, fn))
    if names is not None:
        unknown = set(names) - {name for name, _ in targets}
        if unknown:
            raise TracerError(f"names not in the layer map: {sorted(unknown)}")
    return targets


def package_modules() -> list:
    """The package and every submodule, imported."""
    package = importlib.import_module(PACKAGE)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return modules


class Tracer:
    """Records spans around the layer functions while installed.

    ``names`` restricts tracing to a subset of the layer map; the
    untraced benchmark passes use it to watch only the capacity sweeps,
    whose returned regions carry the grid-point failures.
    """

    def __init__(self, names=None):
        self.spans: list = []
        self._stack: list[int] = []
        self._scenario = ""
        self._targets = resolve_layer_map(names)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = extract(result) if extract and result is not None else None
                spans[index] = (name, start, end, parent, self._scenario, info)

        return traced

    def install(self) -> None:
        if self._saved:
            raise TracerError("tracer is already installed")
        modules = package_modules()
        for name, fn in self._targets:
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def scenario(self, label: str):
        """Root span for one scenario run; its label tags every child."""
        self._scenario = label
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (SCENARIO_PREFIX + label, start, end, -1, label, None)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write(self, path) -> None:
        """Write the recorded spans as CSV, one span per line."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,scenario,info\n")
            for i, (name, start, end, parent, scenario, info) in enumerate(self.spans):
                extra = "" if info is None else " ".join(repr(v) for v in info)
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{scenario},{extra}\n")


# per-layer metric -> (unit, better); summarize() fills every one of them
PER_LAYER = {
    "riccati.solve_riccati.calls": ("count", "lower"),
    "riccati.solve_riccati.busy_s": ("s", "lower"),
    "riccati.solve_riccati.self_s": ("s", "lower"),
    "riccati.solve_riccati.us_per_call": ("us", "lower"),
    "riccati.solve_riccati.sweeps": ("count", "lower"),
    "riccati.solve_riccati.max_residual": ("fro_norm", "lower"),
    "riccati.solve_discounted_lyapunov.calls": ("count", "lower"),
    "riccati.solve_discounted_lyapunov.busy_s": ("s", "lower"),
    "riccati.solve_discounted_lyapunov.us_per_call": ("us", "lower"),
    "riccati.solve_discounted_lyapunov.sweeps": ("count", "lower"),
    "model.check_controllability.calls": ("count", "lower"),
    "model.check_controllability.busy_s": ("s", "lower"),
    "model.check_observability.calls": ("count", "lower"),
    "model.check_observability.busy_s": ("s", "lower"),
    "functionals.evaluate_policy.calls": ("count", "lower"),
    "functionals.evaluate_policy.busy_s": ("s", "lower"),
    "functionals.concavity_scan.busy_s": ("s", "lower"),
    "capacity.solve_constrained.calls": ("count", "lower"),
    "capacity.solve_constrained.busy_s": ("s", "lower"),
    "capacity.solve_constrained.self_s": ("s", "lower"),
    "capacity.maximize_dual.calls": ("count", "lower"),
    "capacity.maximize_dual.busy_s": ("s", "lower"),
    "capacity.q_alpha.calls": ("count", "lower"),
    "capacity.dual_evals_per_point": ("1/point", "lower"),
    "capacity.riccati_per_point": ("1/point", "lower"),
    "capacity.sweep_capacity_region.calls": ("count", "lower"),
    "capacity.sweep_capacity_region.busy_s": ("s", "lower"),
    "capacity.points_ok_ratio": ("ratio", "higher"),
    "renewables.volatility_vs_psi.busy_s": ("s", "lower"),
    "renewables.capacity_shrinkage.busy_s": ("s", "lower"),
    "renewables.der_cliff.busy_s": ("s", "lower"),
    "simulate.simulate.calls": ("count", "lower"),
    "simulate.simulate.busy_s": ("s", "lower"),
    "simulate.simulate.self_s": ("s", "lower"),
    "simulate.stream.calls": ("count", "lower"),
    "simulate.stream.busy_s": ("s", "lower"),
    "simulate.stream.us_per_1k_paths": ("us/1k", "lower"),
    "simulate.path_steps": ("count", "lower"),
    "simulate.step_us_per_1k_path_steps": ("us/1k", "lower"),
    "simulate.excluded_ratio": ("ratio", "lower"),
    "nash.solve_nash.calls": ("count", "lower"),
    "nash.solve_nash.busy_s": ("s", "lower"),
    "nash.solve_nash.self_s": ("s", "lower"),
    "nash.solve_nash.iters": ("count", "lower"),
    "nash.social_cost_scan.busy_s": ("s", "lower"),
    "nash.simulate_equilibrium.calls": ("count", "lower"),
    "nash.simulate_equilibrium.busy_s": ("s", "lower"),
    "cli.load_scenario.busy_s": ("s", "lower"),
    "output.write_csv.calls": ("count", "lower"),
    "output.write_csv.busy_s": ("s", "lower"),
    "output.write_csv.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metrics that must repeat exactly between traced passes of one run
EXACT_SUFFIXES = (".calls", ".sweeps", ".iters", ".bytes", "path_steps",
                  "_per_point", "_ratio", ".max_residual")

POINT = "capacity.solve_constrained"


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``).

    A ratio whose base is zero (the layer did not run) reads 0.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    infos: dict[str, list] = {}
    in_point = [False] * len(spans)
    point_calls = {"capacity.q_alpha": 0, "riccati.solve_riccati": 0}
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
        if info is not None:
            infos.setdefault(name, []).append(info)
        if parent >= 0:
            in_point[i] = in_point[parent] or spans[parent][0] == POINT
        if in_point[i] and name in point_calls:
            point_calls[name] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    def column(name, k):
        return [info[k] for info in infos.get(name, [])]

    m = {}
    for name in {f"{mod}.{fn}" for mod, fns in LAYER_MAP.items() for fn in fns}:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
        m[f"{name}.self_s"] = self_time.get(name, 0.0)
    for name in ("riccati.solve_riccati", "riccati.solve_discounted_lyapunov"):
        m[f"{name}.us_per_call"] = 1e6 * ratio(m[f"{name}.busy_s"], m[f"{name}.calls"])
        m[f"{name}.sweeps"] = sum(column(name, 0))
    m["riccati.solve_riccati.max_residual"] = max(
        column("riccati.solve_riccati", 1), default=0.0
    )
    points = m[f"{POINT}.calls"]
    m["capacity.dual_evals_per_point"] = ratio(point_calls["capacity.q_alpha"], points)
    m["capacity.riccati_per_point"] = ratio(point_calls["riccati.solve_riccati"], points)
    attempted, failed = grid_points(spans)
    m["capacity.points_ok_ratio"] = ratio(attempted - failed, attempted)
    m["simulate.stream.us_per_1k_paths"] = 1e9 * ratio(
        m["simulate.stream.busy_s"], m["simulate.stream.calls"]
    )
    paths = column("simulate.simulate", 0)
    steps = sum(n * t for n, t in zip(paths, column("simulate.simulate", 1)))
    m["simulate.path_steps"] = steps
    m["simulate.step_us_per_1k_path_steps"] = 1e9 * ratio(
        m["simulate.simulate.self_s"], steps
    )
    m["simulate.excluded_ratio"] = ratio(
        sum(column("simulate.simulate", 2)), sum(paths)
    )
    m["nash.solve_nash.iters"] = sum(column("nash.solve_nash", 0))
    m["output.write_csv.bytes"] = sum(column("output.write_csv", 0))
    return {key: m[key] for key in PER_LAYER if key in m}


def grid_points(spans) -> tuple[int, int]:
    """(attempted, failed) capacity grid points among the recorded sweeps."""
    ok = failed = 0
    for name, _, _, _, _, info in spans:
        if name == "capacity.sweep_capacity_region" and info is not None:
            ok += info[0]
            failed += info[1]
    return ok + failed, failed
