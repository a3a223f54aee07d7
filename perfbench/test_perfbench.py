"""Tests of the benchmark's own machinery: exact span counts on tiny
known calls, the layer map, the tolerance rules and BENCHMARK.json."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
from lqmarket import (  # noqa: E402
    NoiseSpec,
    build_price_taking_market,
    concavity_scan,
    q_alpha,
)
from lqmarket import capacity, cli, functionals, riccati  # noqa: E402

X0 = np.array([25.0, 25.0, 50.0])


@pytest.fixture
def system():
    return build_price_taking_market(
        beta=0.995, sigma=0.9, phi1=0.5, phi2=0.25,
        noise=NoiseSpec.diagonal((2.0, 2.0, 0.0)),
        Q=[[2.38, -1.73, -0.15], [-1.73, 2.15, 0.16], [-0.15, 0.16, 0.52]],
        r=0.01, gamma=0.5,
    ).system


def traced_counts(call):
    t = tracer.Tracer()
    with t.installed():
        call()
    return tracer.summarize(t.spans)


def test_concavity_scan_optimal_cost_counts(system):
    import lqmarket

    m = traced_counts(lambda: lqmarket.concavity_scan(
        system, [0.1, 1.0, 10.0], X0, which="optimal_cost"
    ))
    assert m["riccati.solve_riccati.calls"] == 3
    assert m["riccati.solve_discounted_lyapunov.calls"] == 0
    assert m["model.check_controllability.calls"] == 3
    assert m["functionals.concavity_scan.busy_s"] > 0.0


def test_one_q_alpha_is_one_riccati_solve(system):
    m = traced_counts(lambda: capacity.q_alpha(system, 27.0, 1.0, X0))
    assert m["capacity.q_alpha.calls"] == 1
    assert m["riccati.solve_riccati.calls"] == 1
    assert m["riccati.solve_riccati.sweeps"] >= 1


def test_every_layer_name_resolves_and_is_rebound():
    targets = tracer.resolve_layer_map()
    assert len(targets) == sum(len(v) for v in tracer.LAYER_MAP.values())
    originals = {name: fn for name, fn in targets}
    t = tracer.Tracer()
    with t.installed():
        for name in originals:
            module, func = name.split(".")
            bound = getattr(tracer.importlib.import_module(f"lqmarket.{module}"), func)
            assert bound is not originals[name], f"{name} was not rebound"
        # the module-level bindings other modules use are rebound too
        assert functionals.solve_riccati is not originals["riccati.solve_riccati"]
        assert cli.sweep_capacity_region is not originals[
            "capacity.sweep_capacity_region"]
    assert riccati.solve_riccati is originals["riccati.solve_riccati"]
    assert capacity.q_alpha is q_alpha
    assert functionals.concavity_scan is concavity_scan


def test_missing_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.LAYER_MAP, "riccati", ("solve_riccati", "no_such"))
    with pytest.raises(tracer.TracerError, match="riccati.no_such"):
        tracer.Tracer()


def test_self_time_subtracts_direct_children():
    spans = [
        ("scenario.x", 0.0, 10.0, -1, "x", None),
        ("capacity.solve_constrained", 1.0, 9.0, 0, "x", None),
        ("capacity.q_alpha", 2.0, 4.0, 1, "x", None),
        ("riccati.solve_riccati", 2.5, 3.5, 2, "x", (7, 1e-11)),
        ("riccati.solve_riccati", 5.0, 6.0, 1, "x", (3, 2e-11)),
    ]
    m = tracer.summarize(spans)
    assert m["capacity.solve_constrained.busy_s"] == 8.0
    assert m["capacity.solve_constrained.self_s"] == 5.0
    assert m["capacity.dual_evals_per_point"] == 1.0
    assert m["capacity.riccati_per_point"] == 2.0
    assert m["riccati.solve_riccati.sweeps"] == 10
    assert m["riccati.solve_riccati.max_residual"] == 2e-11
    assert set(m) == set(tracer.PER_LAYER) - {"trace.overhead_s"}


def test_reference_covers_every_shipped_scenario():
    index = check.load_index()["files"]
    shipped = {p.stem for p in (ROOT / "scenarios").glob("*.yaml")}
    assert set(index) == shipped
    assert {s for stems in bench_run.WORKLOADS.values() for s in stems} == shipped
    for stem, files in index.items():
        for name in files:
            header = check.read_table(check.reference_bytes(stem, name))[0]
            assert set(header) <= set(check.rules_for(name, [])), name


def _perturb(data: bytes, row: int, col: int, factor: float) -> bytes:
    rows = check.read_table(data)
    rows[row][col] = repr(float(rows[row][col]) * factor)
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


def test_tolerance_rules_accept_solver_noise_and_reject_errors():
    name = "fig4_capacity_gamma0.5.csv"
    ref = check.reference_bytes("fig4_capacity", name)
    assert check.compare_tables(name, ref, ref) == []
    # L* at 1e-9 relative is inside TAU_L; 1e-6 is not
    assert check.compare_tables(name, ref, _perturb(ref, 5, 2, 1 + 1e-9)) == []
    assert check.compare_tables(name, ref, _perturb(ref, 5, 2, 1 + 1e-6))
    # lambda* is pinned only to TAU_DUAL at the flat dual maximum
    assert check.compare_tables(name, ref, _perturb(ref, 5, 1, 1 + 1e-5)) == []
    assert check.compare_tables(name, ref, _perturb(ref, 5, 1, 1 + 1e-3))


def test_riccati_rows_follow_their_labels():
    name = "riccati_base.csv"
    ref = check.reference_bytes("riccati_base", name)
    rows = check.read_table(ref)
    k_row = next(i for i, r in enumerate(rows) if r[0] == "K")
    it_row = next(i for i, r in enumerate(rows) if r[0] == "iterations")
    assert check.compare_tables(name, ref, _perturb(ref, k_row, 3, 1 + 1e-10)) == []
    assert check.compare_tables(name, ref, _perturb(ref, k_row, 3, 1 + 1e-6))
    rows[it_row][3] = "31"  # another solver may take another number of sweeps
    other = ("\n".join(",".join(r) for r in rows) + "\n").encode()
    assert check.compare_tables(name, ref, other) == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracer.PER_LAYER
