"""Batch command line: run scenario files, list experiments.

Usage:
    lqmarket run SCENARIO.yaml [--seed N] [--out-dir DIR]
                               [--override KEY=VALUE ...]
    lqmarket experiments

Scenario files are YAML mappings with an ``experiment`` name, a
``system`` or ``market`` section, experiment ``params``, an optional
``sim`` section for Monte Carlo settings, and an ``output`` stem.  Exit
codes: 0 on success, 2 for configuration problems, 3 for numerical
failures.  CSV outputs are deterministic per seed; run metadata lives in
a separate ``<stem>.manifest.json``.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .capacity import default_alpha_grid, sweep_capacity_region
from .errors import ConfigError, NumericalError
from .functionals import SCAN_TOL, concavity_scan
from .model import (
    LinearPolicy,
    MarketInstance,
    check_controllability,
    check_observability,
    noise_from_config,
    system_from_config,
)
from .nash import (
    MarketSpecPA,
    ProsumerSpec,
    assemble_aggregate,
    nash_social_cost,
    simulate_equilibrium,
    social_cost_scan,
    solve_nash,
)
from .output import write_csv, write_manifest
from .renewables import (
    DerScenario,
    capacity_shrinkage,
    der_cliff,
    volatility_vs_psi,
)
from .riccati import DEFAULT_TOL, closed_loop, solve_riccati
from .simulate import SimConfig, simulate
from .util import spectral_radius


# ---------------------------------------------------------------------------
# scenario loading


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as err:
        raise ConfigError(f"override {text!r} has an unparsable value: {err}")
    return key, value


def _apply_override(config: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = config
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(
                f"override path {dotted!r} crosses non-mapping entry {part!r}"
            )
        node = nxt
    node[parts[-1]] = value


def load_scenario(path, overrides=(), seed=None) -> dict:
    """Parse and normalize a scenario file, applying CLI overrides."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        config = yaml.safe_load(path.read_text())
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"cannot parse {path}{where}: {err}")
    if not isinstance(config, dict):
        raise ConfigError(f"scenario {path} must be a YAML mapping, got "
                          f"{type(config).__name__}")
    for item in overrides:
        key, value = _parse_override(item)
        _apply_override(config, key, value)
    if seed is not None:
        config.setdefault("sim", {})["seed"] = int(seed)
    if "experiment" not in config:
        raise ConfigError(f"scenario {path} is missing the experiment key")
    name = config["experiment"]
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {name!r}; known: {known}")
    exp = EXPERIMENTS[name]
    missing = [k for k in exp.required if k not in config]
    if missing:
        raise ConfigError(
            f"experiment {name} requires sections: {', '.join(missing)}"
        )
    config.setdefault("name", path.stem)
    config.setdefault("params", {})
    config["_scenario_path"] = str(path)
    return config


def _grid_from_config(spec, what: str) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    if isinstance(spec, dict):
        missing = [k for k in ("start", "stop", "points") if k not in spec]
        if missing:
            raise ConfigError(f"{what} grid missing keys: {', '.join(missing)}")
        spacing = spec.get("spacing", "log")
        n = int(spec["points"])
        if spacing == "log":
            return np.geomspace(float(spec["start"]), float(spec["stop"]), n)
        if spacing == "linear":
            return np.linspace(float(spec["start"]), float(spec["stop"]), n)
        raise ConfigError(f"{what} grid spacing must be log or linear")
    raise ConfigError(f"{what} grid must be a list or a start/stop/points mapping")


def _x0_from_params(params: dict, d: int | None = None) -> np.ndarray:
    if "x0" not in params:
        raise ConfigError("params.x0 is required")
    x0 = np.asarray(params["x0"], dtype=float).reshape(-1)
    if d is not None and x0.shape[0] != d:
        raise ConfigError(f"params.x0 has length {x0.shape[0]}, expected {d}")
    return x0


def _sim_config(config: dict) -> SimConfig:
    sim = config.get("sim")
    if not isinstance(sim, dict):
        raise ConfigError("this experiment requires a sim section")
    if "seed" not in sim:
        raise ConfigError("sim.seed is required (or pass --seed)")
    if "n_paths" not in sim:
        raise ConfigError("sim.n_paths is required")
    horizon = sim.get("horizon")
    if horizon in ("auto", None):
        horizon = None
    else:
        horizon = int(horizon)
    return SimConfig(
        seed=int(sim["seed"]),
        n_paths=int(sim["n_paths"]),
        horizon=horizon,
        truncation_eps=float(sim.get("truncation_eps", 1e-6)),
        state_bound=float(sim.get("state_bound", np.inf)),
    )


def market_from_config(section) -> MarketSpecPA:
    """Build a MarketSpecPA from a scenario ``market`` mapping."""
    if not isinstance(section, dict):
        raise ConfigError("market section must be a mapping")
    missing = [
        k for k in ("kappa", "r", "gamma", "noise") if k not in section
    ]
    if missing:
        raise ConfigError(f"market section missing keys: {', '.join(missing)}")

    def blocks(kind: str) -> tuple:
        entries = section.get(f"{kind}s", [])
        if not isinstance(entries, list):
            raise ConfigError(f"market.{kind}s must be a list")
        specs = []
        for entry in entries:
            if not isinstance(entry, dict) or "A_block" not in entry \
                    or "Q_block" not in entry:
                raise ConfigError(
                    f"each {kind} needs A_block and Q_block entries"
                )
            specs.append(
                ProsumerSpec(
                    kind=kind,
                    A_block=np.asarray(entry["A_block"], dtype=float),
                    Q_block=np.asarray(entry["Q_block"], dtype=float),
                    price_response=entry.get("price_response"),
                )
            )
        return tuple(specs)

    return MarketSpecPA(
        consumers=blocks("consumer"),
        producers=blocks("producer"),
        kappa=section["kappa"],
        zeta=section.get("zeta", 0.0),
        r=section["r"],
        gamma=section["gamma"],
        noise=noise_from_config(section["noise"]),
    )


def _market_instance(config: dict) -> MarketInstance:
    section = config.get("system")
    if not isinstance(section, dict):
        raise ConfigError("this experiment requires a system section")
    needed = {"beta", "sigma", "phi1", "phi2"}
    if not needed <= set(section):
        raise ConfigError(
            "this experiment needs the market system form "
            "(beta/sigma/phi1/phi2)"
        )
    from .model import build_price_taking_market

    return build_price_taking_market(
        beta=section["beta"],
        sigma=section["sigma"],
        phi1=section["phi1"],
        phi2=section["phi2"],
        noise=noise_from_config(section["noise"]),
        Q=section["Q"],
        r=section["r"],
        gamma=section["gamma"],
    )


def _stem(config: dict, out_dir: Path) -> Path:
    stem = config.get("output") or config["name"]
    stem = str(stem)
    if stem.endswith(".csv"):
        stem = stem[:-4]
    return out_dir / stem


def _pad(values, n: int) -> list:
    out = list(values)
    return out + [None] * (n - len(out))


# ---------------------------------------------------------------------------
# experiment runners (each returns the list of files written)


def run_riccati(config: dict, out_dir: Path) -> list[Path]:
    system = system_from_config(config["system"])
    params = config["params"]
    tol = float(params.get("tol", DEFAULT_TOL))
    sol = solve_riccati(system, tol=tol)
    ctrb = check_controllability(system)
    obs = check_observability(system)
    F = closed_loop(system.A, system.b, sol.gain.gain)
    rows = []
    for i in range(system.d):
        for j in range(system.d):
            rows.append(("K", i, j, sol.K[i, j]))
    for j in range(system.d):
        rows.append(("gain", 0, j, sol.gain.gain[j]))
    rows.append(("iterations", None, None, sol.iterations))
    rows.append(("residual", None, None, sol.residual))
    rows.append(("spectral_radius_F", None, None, spectral_radius(F)))
    rows.append(("controllable", None, None, ctrb.controllable))
    rows.append(("observable", None, None, obs.observable))
    path = write_csv(
        _stem(config, out_dir).with_suffix(".csv"),
        ("quantity", "i", "j", "value"),
        rows,
    )
    return [path]


def run_concavity(config: dict, out_dir: Path) -> list[Path]:
    system = system_from_config(config["system"])
    params = config["params"]
    r_grid = _grid_from_config(params.get("r_grid"), "r")
    x0 = _x0_from_params(params, system.d)
    which = params.get("which", "both")
    targets = ["optimal_cost", "state_penalizing"] if which == "both" else [which]
    tol = float(params.get("tol", SCAN_TOL))
    stem = _stem(config, out_dir)
    outputs = []
    for target in targets:
        scan = concavity_scan(system, r_grid, x0, which=target, tol=tol)
        n = scan.r.size
        d1 = _pad(scan.d1, n)
        d2 = _pad(scan.d2, n)
        rows = [
            (scan.r[i], scan.value[i], d1[i], d2[i]) for i in range(n)
        ]
        suffix = f"_{target}.csv" if len(targets) > 1 else ".csv"
        outputs.append(
            write_csv(
                stem.parent / (stem.name + suffix),
                ("r", "value", "d1", "d2"),
                rows,
            )
        )
    return outputs


def run_qalpha(config: dict, out_dir: Path) -> list[Path]:
    from .capacity import q_alpha

    system = system_from_config(config["system"])
    params = config["params"]
    if "alpha" not in params:
        raise ConfigError("params.alpha is required")
    alpha = float(params["alpha"])
    lam_grid = _grid_from_config(params.get("lambda_grid"), "lambda")
    x0 = _x0_from_params(params, system.d)
    tol = float(params.get("tol", 1e-10))

    rows = [
        (lam, q_alpha(system, alpha, float(lam), x0, tol=tol)) for lam in lam_grid
    ]
    path = write_csv(
        _stem(config, out_dir).with_suffix(".csv"), ("lambda", "q"), rows
    )
    return [path]


def _capacity_rows(region, reference_peak: float) -> list[tuple]:
    rows = []
    for p in region.points:
        rows.append(
            (
                p.alpha,
                p.lambda_star,
                p.L_star,
                p.efficiency_star,
                p.achieved_volatility,
                reference_peak / p.efficiency_star,
            )
        )
    return rows


CAPACITY_HEADER = (
    "alpha",
    "lambda_star",
    "L_star",
    "efficiency_star",
    "achieved_volatility",
    "normalized_efficiency",
)


def run_capacity(config: dict, out_dir: Path) -> list[Path]:
    system = system_from_config(config["system"])
    params = config["params"]
    x0 = _x0_from_params(params, system.d)
    gammas = params.get("gamma_values") or [system.gamma]
    gammas = [float(g) for g in np.atleast_1d(gammas)]
    from dataclasses import replace

    first = replace(system, gamma=gammas[0])
    if "alpha_grid" in params:
        alpha_grid = _grid_from_config(params["alpha_grid"], "alpha")
    else:
        alpha_grid = default_alpha_grid(
            first, x0, n_points=int(params.get("n_points", 40))
        )
    stem = _stem(config, out_dir)
    regions = []
    for g in gammas:
        sys_g = replace(system, gamma=g)
        regions.append(sweep_capacity_region(sys_g, alpha_grid, x0))
    # the first sweep's best efficiency anchors the normalized column
    reference_peak = float(np.max(regions[0].efficiencies))
    outputs = []
    for g, region in zip(gammas, regions):
        suffix = f"_gamma{g:g}.csv" if len(gammas) > 1 else ".csv"
        outputs.append(
            write_csv(
                stem.parent / (stem.name + suffix),
                CAPACITY_HEADER,
                _capacity_rows(region, reference_peak),
            )
        )
    return outputs


def run_nash(config: dict, out_dir: Path) -> list[Path]:
    spec = market_from_config(config.get("market"))
    params = config["params"]
    x0 = _x0_from_params(params, spec.market_dim)
    stem = _stem(config, out_dir)
    outputs = []

    eq = solve_nash(spec)
    game = eq.game
    rows = []
    for i, p in enumerate(eq.p):
        for j, v in enumerate(p):
            rows.append((f"p{i + 1}", 0, j, v))
    for i, K in enumerate(eq.K):
        for a in range(game.dim):
            for c in range(game.dim):
                rows.append((f"K{i + 1}", a, c, K[a, c]))
    for i in range(2):
        rows.append((f"gain_residual_{i + 1}", None, None, eq.gain_residuals[i]))
        rows.append(
            (f"evaluation_residual_{i + 1}", None, None, eq.evaluation_residuals[i])
        )
    rows.append(("spectral_radius_F", None, None, eq.spectral_radius_F))
    rows.append(("iterations", None, None, eq.iterations))
    rows.append(("social_cost", None, None, nash_social_cost(game, eq, x0)))
    outputs.append(
        write_csv(
            stem.parent / (stem.name + "_equilibrium.csv"),
            ("quantity", "i", "j", "value"),
            rows,
        )
    )

    if "r_grid" in params:
        scan = social_cost_scan(spec, _grid_from_config(params["r_grid"], "r"), x0)
        n = scan.r.size
        d1 = _pad(scan.d1, n)
        d2 = _pad(scan.d2, n)
        outputs.append(
            write_csv(
                stem.parent / (stem.name + "_rscan.csv"),
                ("r", "J_N", "d1", "d2"),
                [(scan.r[i], scan.J_N[i], d1[i], d2[i]) for i in range(n)],
            )
        )

    price = params.get("price_sim")
    if price:
        sim_cfg = _sim_config(config)
        r_values = [float(v) for v in price.get("r_values", [spec.r])]
        for idx, rv in enumerate(r_values):
            eq_r = solve_nash(spec.with_r(rv))
            batch = simulate_equilibrium(
                eq_r.game, eq_r, x0, sim_cfg, namespace=idx
            )
            rows = []
            for pid in range(batch.alpha_paths.shape[0]):
                for t in range(batch.horizon):
                    rows.append((t, pid, batch.alpha_paths[pid, t]))
            outputs.append(
                write_csv(
                    stem.parent / (stem.name + f"_prices_r{rv:g}.csv"),
                    ("t", "path_id", "alpha_t"),
                    rows,
                )
            )
    return outputs


def run_renewables(config: dict, out_dir: Path) -> list[Path]:
    base = _market_instance(config)
    params = config["params"]
    if "alpha" not in params:
        raise ConfigError("params.alpha is required")
    psi_grid = _grid_from_config(params.get("psi_grid"), "psi")
    x0 = _x0_from_params(params)
    sigma_r = float(params.get("sigma_r", 0.9))
    sigma_c = float(params.get("sigma_c", 0.01))
    stem = _stem(config, out_dir)
    outputs = []

    table = volatility_vs_psi(
        base,
        psi_grid,
        float(params["alpha"]),
        x0,
        sigma_r=sigma_r,
        sigma_c=sigma_c,
        fixed_lambda=float(params.get("fixed_lambda", 1.0)),
    )
    outputs.append(
        write_csv(
            stem.parent / (stem.name + "_volatility.csv"),
            ("psi_r", "volatility", "trace_term"),
            list(zip(table.psi_r, table.volatility, table.trace_term)),
        )
    )

    region_cfg = params.get("regions")
    if region_cfg:
        psi_values = np.asarray(region_cfg.get("psi_values", psi_grid), dtype=float)
        if "alpha_grid" in region_cfg:
            alpha_grid = _grid_from_config(region_cfg["alpha_grid"], "alpha")
        else:
            from .renewables import build_renewable_system

            smallest = build_renewable_system(
                base, float(psi_values[0]), sigma_r, sigma_c
            ).augmented
            x0_grid = np.concatenate([x0, [0.0]]) if x0.shape[0] == 3 else x0
            alpha_grid = default_alpha_grid(
                smallest, x0_grid, n_points=int(region_cfg.get("n_points", 40))
            )
        shrink = capacity_shrinkage(
            base, psi_values, alpha_grid, x0, sigma_r=sigma_r, sigma_c=sigma_c
        )
        # the largest-psi region's best efficiency anchors the normalization
        reference_peak = float(np.max(shrink.regions[-1].efficiencies))
        rows = []
        for psi, region in zip(shrink.psi_r, shrink.regions):
            for row in _capacity_rows(region, reference_peak):
                rows.append((psi,) + row)
        outputs.append(
            write_csv(
                stem.parent / (stem.name + "_regions.csv"),
                ("psi_r",) + CAPACITY_HEADER,
                rows,
            )
        )
    return outputs


def run_der_cliff(config: dict, out_dir: Path) -> list[Path]:
    base = _market_instance(config)
    params = config["params"]
    x0 = _x0_from_params(params, 3)
    total = float(params.get("psi_total", 2.0))
    scenario = DerScenario(
        base=base,
        sigma_rn=float(params.get("sigma_rn", 1.0)),
        v1=float(params.get("v1", 0.1)),
        v2=float(params.get("v2", 0.44)),
        period=int(params.get("period", 24)),
        xi=float(params.get("xi", 0.05)),
        psi_w=total / 2.0,
        psi_s=total / 2.0,
    )
    delta_grid = _grid_from_config(
        params.get("delta_grid", [round(0.1 * k, 1) for k in range(10)]), "delta"
    )
    table = der_cliff(scenario, delta_grid, x0, _sim_config(config))
    path = write_csv(
        _stem(config, out_dir).with_suffix(".csv"),
        ("delta", "volatility", "std_error", "n_paths_excluded"),
        list(
            zip(table.delta, table.volatility, table.std_error,
                table.n_paths_excluded)
        ),
    )
    return [path]


def run_simulate(config: dict, out_dir: Path) -> list[Path]:
    system = system_from_config(config["system"])
    params = config["params"]
    x0 = _x0_from_params(params, system.d)
    policy_cfg = params.get("policy", "optimal")
    if policy_cfg == "optimal":
        policy = solve_riccati(system).gain
    elif isinstance(policy_cfg, list):
        policy = LinearPolicy(np.asarray(policy_cfg, dtype=float))
    else:
        raise ConfigError("params.policy must be 'optimal' or a gain list")
    sim_cfg = _sim_config(config)
    dump = bool(params.get("dump_paths", False))
    batch = simulate(system, policy, x0, sim_cfg, store_paths=dump)
    stem = _stem(config, out_dir)
    rows = [
        ("cost", batch.cost.mean, batch.cost.std_error,
         batch.n_paths, batch.n_excluded, batch.horizon),
        ("volatility", batch.volatility.mean, batch.volatility.std_error,
         batch.n_paths, batch.n_excluded, batch.horizon),
        ("efficiency", batch.efficiency.mean, batch.efficiency.std_error,
         batch.n_paths, batch.n_excluded, batch.horizon),
    ]
    outputs = [
        write_csv(
            stem.with_suffix(".csv"),
            ("functional", "estimate", "std_error", "n_paths", "n_excluded",
             "horizon"),
            rows,
        )
    ]
    if dump:
        path_rows = []
        for pid in range(batch.states.shape[0]):
            for t in range(batch.horizon):
                state = batch.states[pid, t]
                path_rows.append(
                    (pid, t) + tuple(state) + (batch.controls[pid, t],)
                )
        coord_names = tuple(f"x_{i}" for i in range(system.d))
        outputs.append(
            write_csv(
                stem.parent / (stem.name + "_paths.csv"),
                ("path_id", "t") + coord_names + ("u",),
                path_rows,
            )
        )
    return outputs


@dataclass(frozen=True)
class ExperimentDef:
    run: callable
    required: tuple[str, ...]
    columns: str
    shipped: str
    summary: str


EXPERIMENTS = {
    "riccati": ExperimentDef(
        run=run_riccati,
        required=("system",),
        columns="quantity,i,j,value",
        shipped="riccati_base",
        summary="solve one discounted regulator and dump K, gain, diagnostics",
    ),
    "concavity_scan": ExperimentDef(
        run=run_concavity,
        required=("system", "params"),
        columns="r,value,d1,d2",
        shipped="fig2_concavity",
        summary="sweep the control penalty; tabulate cost curves with differences",
    ),
    "qalpha_profile": ExperimentDef(
        run=run_qalpha,
        required=("system", "params"),
        columns="lambda,q",
        shipped="fig3_qalpha",
        summary="profile the dual objective over a lambda grid at one budget",
    ),
    "capacity_sweep": ExperimentDef(
        run=run_capacity,
        required=("system", "params"),
        columns=",".join(CAPACITY_HEADER),
        shipped="fig4_capacity",
        summary="trace volatility-efficiency boundaries over a budget grid",
    ),
    "nash": ExperimentDef(
        run=run_nash,
        required=("market", "params"),
        columns="equilibrium: quantity,i,j,value; rscan: r,J_N,d1,d2; "
        "prices: t,path_id,alpha_t",
        shipped="fig5_nash",
        summary="solve the two-player market game, scan social cost, sample prices",
    ),
    "renewables_sweep": ExperimentDef(
        run=run_renewables,
        required=("system", "params"),
        columns="volatility: psi_r,volatility,trace_term; regions: psi_r,"
        + ",".join(CAPACITY_HEADER),
        shipped="fig7_renewables",
        summary="grow feed-in noise; track matched volatility and boundary shrink",
    ),
    "der_cliff": ExperimentDef(
        run=run_der_cliff,
        required=("system", "params", "sim"),
        columns="delta,volatility,std_error,n_paths_excluded",
        shipped="fig8_der_cliff",
        summary="shift noise from supply to weather; measure the volatility cliff",
    ),
    "simulate": ExperimentDef(
        run=run_simulate,
        required=("system", "params", "sim"),
        columns="functional,estimate,std_error,n_paths,n_excluded,horizon",
        shipped="simulate_base",
        summary="Monte Carlo the three functionals for one system and policy",
    ),
}


def list_experiments(file=None) -> None:
    file = file or sys.stdout
    for name in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[name]
        print(f"{name}", file=file)
        print(f"  {exp.summary}", file=file)
        print(f"  requires: {', '.join(exp.required)}", file=file)
        print(f"  columns:  {exp.columns}", file=file)
        print(f"  shipped:  scenarios/{exp.shipped}.yaml", file=file)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqmarket",
        description="Batch runner for discounted LQR market experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to a scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override sim.seed")
    run_p.add_argument("--out-dir", default=".",
                       help="directory for CSV and manifest outputs")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a scenario entry (dotted path, repeatable)")
    run_p.add_argument("--threads", type=int, default=1,
                       help="ignored; accepted for compatibility (sweeps run "
                            "serially and reruns are byte-identical)")
    sub.add_parser("experiments", help="list experiments, inputs, and columns")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "experiments":
        list_experiments()
        return 0

    try:
        config = load_scenario(args.scenario, args.override, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    exp = EXPERIMENTS[config["experiment"]]
    started = time.time()
    try:
        outputs = exp.run(config, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure ({type(err).__name__}): {err}", file=sys.stderr)
        return 3
    wall = time.time() - started

    manifest = {
        "scenario": config["_scenario_path"],
        "name": config["name"],
        "experiment": config["experiment"],
        "config": {k: v for k, v in config.items() if not k.startswith("_")},
        "seed": config.get("sim", {}).get("seed"),
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "wall_time_s": wall,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    manifest_path = write_manifest(
        _stem(config, out_dir).with_suffix(".manifest.json"), manifest
    )
    for p in outputs:
        print(p)
    print(manifest_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
