"""Output correctness gate for benchmark passes.

Reference tables live under ``reference/<scenario>/<file>.gz``; they were
written by ``make_reference.py`` at each scenario's own seed.  A table
passes when its bytes equal the reference, or failing that, when every
column meets the rule in ``RULES``.  Each tolerance is derived from the
solver tolerance behind its column; README.md gives the derivation.

Tables that depend on the Monte Carlo seed (``seeded`` in the reference
index) are compared with the reference only on a pass at the scenario's
own seed.  At any other seed they must repeat byte for byte from pass to
pass, and the first copy is checked against seed-free facts: the
``simulate_base`` estimates against ``evaluate_policy``'s closed form,
the DER cliff against the reference within combined standard errors, and
the price paths for their layout and finiteness.
"""
from __future__ import annotations

import csv
import fnmatch
import gzip
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Solver tolerances behind the columns (see README.md for the derivation).
TAU_R = 1e-8  # Riccati/Lyapunov value iteration at tol 1e-10, gamma <= 0.9
TAU_SCAN = 1e-11  # concavity scans at SCAN_TOL = 1e-13
TAU_N = 1e-9  # Nash damped fixed point at NASH_TOL = 1e-12
TAU_P = 1e-7  # price paths: TAU_N carried through 160 closed-loop steps
TAU_DUAL = 1e-4  # lambda* and V(lambda*) at the flat dual maximum: sqrt(TAU_R)
TAU_L = 2e-8  # L* is stationary in lambda: TAU_R + TAU_DUAL^2
TAU_MC = 1e-8  # same-seed Monte Carlo: policy at TAU_R, sums reordered
RICCATI_TOL = 1e-10  # riccati_base params.tol; the residual certificate
NASH_CERT = 1e-8  # equilibrium residual certificate (acceptance c07)
K_SE = 5.0  # standard errors allowed for a Monte Carlo estimate
MAX_EXCLUDED = 0.10  # the engine's own exclusion limit


def read_table(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _floats(cells):
    return [float(c) for c in cells]


class Exact:
    def bad_rows(self, ref, new, col):
        return [i for i, (a, b) in enumerate(zip(ref, new)) if a[col] != b[col]]


class Tol:
    """|new - ref| <= tau * max(|ref|, floor); floor is the column's max
    magnitude for ``scale="column"`` (entries of one matrix or path set
    share its norm-wise error) and 0 for ``scale="entry"``."""

    def __init__(self, tau, scale="entry"):
        self.tau, self.scale = tau, scale

    def bad_rows(self, ref, new, col):
        a, b = _floats(r[col] for r in ref), _floats(r[col] for r in new)
        floor = max(map(abs, a), default=0.0) if self.scale == "column" else 0.0
        return [
            i for i, (x, y) in enumerate(zip(a, b))
            if not abs(y - x) <= self.tau * max(abs(x), floor)
        ]


class Diff:
    """Divided differences of the value column ``of`` (tolerance ``tau``)
    over the first column: a value error e_i moves d1_i by at most
    (e_i + e_i+1)/(x_i+1 - x_i), and d2_i by (e1_i + e1_i+1)/(x_i+2 - x_i)."""

    def __init__(self, order, of, tau):
        self.order, self.of, self.tau = order, of, tau

    def bad_rows(self, ref, new, col):
        x = _floats(r[0] for r in ref)
        err = [self.tau * abs(v) for v in _floats(r[self.of] for r in ref)]
        bound = [(err[i] + err[i + 1]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
        if self.order == 2:
            bound = [(bound[i] + bound[i + 1]) / (x[i + 2] - x[i])
                     for i in range(len(x) - 2)]
        bad = []
        for i, (a, b) in enumerate(zip(ref, new)):
            if i >= len(bound):
                if b[col] != "" or a[col] != "":
                    bad.append(i)
            elif not abs(float(b[col]) - float(a[col])) <= bound[i]:
                bad.append(i)
        return bad


class Count:
    """Iteration counts describe the solver, not the answer: any count in
    [1, max_iter] certifies convergence."""

    def __init__(self, max_iter):
        self.max_iter = max_iter

    def bad_rows(self, ref, new, col):
        return [i for i, r in enumerate(new)
                if not (r[col].isdigit() and 1 <= int(r[col]) <= self.max_iter)]


class Cert:
    """Residual certificates: 0 <= value <= bound."""

    def __init__(self, bound):
        self.bound = bound

    def bad_rows(self, ref, new, col):
        return [i for i, r in enumerate(new) if not 0.0 <= float(r[col]) <= self.bound]


class ByLabel:
    """Dispatch on the first column (a ``quantity`` label, fnmatch style)."""

    def __init__(self, rules):
        self.rules = rules

    def bad_rows(self, ref, new, col):
        bad, covered = set(), set()
        for pattern, rule in self.rules.items():
            idx = [i for i, r in enumerate(ref) if fnmatch.fnmatchcase(r[0], pattern)]
            covered.update(idx)
            if idx:
                sub = rule.bad_rows([ref[i] for i in idx], [new[i] for i in idx], col)
                bad.update(idx[k] for k in sub)
        return sorted(bad | (set(range(len(ref))) - covered))


def _riccati_cert(ref):
    """Value iteration stops at ||K' - K||_F <= tol (1 + ||K||_F)."""
    norm = math.sqrt(sum(float(r[3]) ** 2 for r in ref if r[0] == "K"))
    return RICCATI_TOL * (1.0 + norm)


EXACT = Exact()
CAPACITY = {
    "alpha": Tol(TAU_R),
    "lambda_star": Tol(TAU_DUAL),
    "L_star": Tol(TAU_L),
    "efficiency_star": Tol(TAU_L),
    "achieved_volatility": Tol(TAU_DUAL),
    "normalized_efficiency": Tol(2 * TAU_L),
}
QUANTITY_KEYS = {"quantity": EXACT, "i": EXACT, "j": EXACT}

# file pattern -> column -> rule; a callable builds the rules from the reference
RULES = {
    "riccati_base.csv": lambda ref: {
        **QUANTITY_KEYS,
        "value": ByLabel({
            "K": Tol(TAU_R, "column"),
            "gain": Tol(TAU_R, "column"),
            "spectral_radius_F": Tol(TAU_R),
            "iterations": Count(100_000),
            "residual": Cert(_riccati_cert(ref)),
            "controllable": EXACT,
            "observable": EXACT,
        }),
    },
    "fig2_concavity_*.csv": {
        "r": EXACT, "value": Tol(TAU_SCAN),
        "d1": Diff(1, 1, TAU_SCAN), "d2": Diff(2, 1, TAU_SCAN),
    },
    "fig3_qalpha.csv": {"lambda": EXACT, "q": Tol(TAU_R)},
    "fig4_capacity_gamma*.csv": CAPACITY,
    "fig5_nash_equilibrium.csv": {
        **QUANTITY_KEYS,
        "value": ByLabel({
            "p?": Tol(TAU_N, "column"),
            "K?": Tol(TAU_N, "column"),
            "gain_residual_?": Cert(NASH_CERT),
            "evaluation_residual_?": Cert(NASH_CERT),
            "spectral_radius_F": Tol(TAU_N),
            "iterations": Count(10_000),
            "social_cost": Tol(TAU_N),
        }),
    },
    "fig5_nash_rscan.csv": {
        "r": EXACT, "J_N": Tol(TAU_N),
        "d1": Diff(1, 1, TAU_N), "d2": Diff(2, 1, TAU_N),
    },
    "fig5_nash_prices_r*.csv": {
        "t": EXACT, "path_id": EXACT, "alpha_t": Tol(TAU_P, "column"),
    },
    "fig7_renewables_volatility.csv": {
        "psi_r": EXACT, "volatility": Tol(TAU_DUAL), "trace_term": Tol(TAU_R),
    },
    "fig7_renewables_regions.csv": {"psi_r": EXACT, **CAPACITY},
    "fig8_der_cliff.csv": {
        "delta": EXACT, "volatility": Tol(TAU_MC), "std_error": Tol(TAU_MC),
        "n_paths_excluded": EXACT,
    },
    "simulate_base.csv": {
        "functional": EXACT, "estimate": Tol(TAU_MC), "std_error": Tol(TAU_MC),
        "n_paths": EXACT, "n_excluded": EXACT, "horizon": EXACT,
    },
}


def rules_for(name: str, ref_rows) -> dict:
    for pattern, rules in RULES.items():
        if fnmatch.fnmatchcase(name, pattern):
            return rules(ref_rows) if callable(rules) else rules
    raise KeyError(f"no tolerance rules for {name}")


def compare_tables(name: str, ref_bytes: bytes, new_bytes: bytes) -> list[str]:
    """Problems found comparing one table with its reference ([] if none)."""
    if new_bytes == ref_bytes:
        return []
    ref, new = read_table(ref_bytes), read_table(new_bytes)
    if not new or ref[0] != new[0]:
        return [f"{name}: header {new[:1]} differs from {ref[0]}"]
    if len(ref) != len(new):
        return [f"{name}: {len(new) - 1} rows, reference has {len(ref) - 1}"]
    if any(len(r) != len(ref[0]) for r in new):
        return [f"{name}: ragged rows"]
    header, ref, new = ref[0], ref[1:], new[1:]
    rules = rules_for(name, ref)
    problems = []
    for col, column in enumerate(header):
        try:
            bad = rules[column].bad_rows(ref, new, col)
        except ValueError as err:
            bad, column = [0], f"{column} ({err})"
        if bad:
            i = bad[0]
            problems.append(
                f"{name}: column {column} outside tolerance on {len(bad)} rows, "
                f"first row {i + 1}: {new[i][col]!r} vs reference {ref[i][col]!r}"
            )
    return problems


def load_index() -> dict:
    return json.loads((REFERENCE_DIR / "index.json").read_text())


def reference_bytes(stem: str, name: str) -> bytes:
    return gzip.decompress((REFERENCE_DIR / stem / f"{name}.gz").read_bytes())


class Checker:
    """Checks every pass of one benchmark run.

    ``closed_form`` maps simulate_base's functionals to their
    ``evaluate_policy`` values; the caller computes it untraced.
    """

    def __init__(self, stems, closed_form=None):
        index = load_index()
        self.files = {stem: index["files"][stem] for stem in stems}
        self.closed_form = closed_form
        self._seen: dict[tuple[str, str], bytes] = {}

    def check_pass(self, stem: str, out_dir: Path, default_seed: bool) -> list[str]:
        expected = self.files[stem]
        found = sorted(p.name for p in out_dir.glob("*.csv"))
        if found != sorted(expected):
            return [f"{stem}: wrote {found}, expected {sorted(expected)}"]
        problems = []
        for name, meta in sorted(expected.items()):
            data = (out_dir / name).read_bytes()
            if default_seed or not meta["seeded"]:
                problems += compare_tables(name, reference_bytes(stem, name), data)
                continue
            first = self._seen.get((stem, name))
            if first is None:
                self._seen[(stem, name)] = data
                problems += self._check_seeded(stem, name, data)
            elif data != first:
                problems.append(f"{name}: differs between passes at one seed")
        return problems

    def _check_seeded(self, stem, name, data) -> list[str]:
        ref = read_table(reference_bytes(stem, name))
        new = read_table(data)
        if new[0] != ref[0] or len(new) != len(ref):
            return [f"{name}: layout differs from the reference"]
        cols = {c: i for i, c in enumerate(ref[0])}
        ref, new = ref[1:], new[1:]
        problems = []
        if name == "simulate_base.csv":
            for r in new:
                est, se, n, excl = float(r[1]), float(r[2]), int(r[3]), int(r[4])
                exact = self.closed_form[r[0]]
                if not abs(est - exact) <= K_SE * se:
                    problems.append(
                        f"{name}: {r[0]} estimate {est!r} is "
                        f"{abs(est - exact) / se:.2f} SE from closed form {exact!r}"
                    )
                if excl > MAX_EXCLUDED * n:
                    problems.append(f"{name}: {excl} of {n} paths excluded")
            if [r[0] for r in new] != [r[0] for r in ref] or \
                    [r[3] for r in new] != [r[3] for r in ref]:
                problems.append(f"{name}: functional or n_paths column differs")
        elif name == "fig8_der_cliff.csv":
            v, s = cols["volatility"], cols["std_error"]
            for a, b in zip(ref, new):
                gap = abs(float(b[v]) - float(a[v]))
                if a[0] != b[0] or not gap <= K_SE * math.hypot(float(a[s]), float(b[s])):
                    problems.append(
                        f"{name}: delta {b[0]} volatility {b[v]} vs reference {a[v]}"
                    )
        elif fnmatch.fnmatchcase(name, "fig5_nash_prices_r*.csv"):
            a = cols["alpha_t"]
            if any(x[:a] != y[:a] for x, y in zip(ref, new)):
                problems.append(f"{name}: t/path_id layout differs")
            if not all(math.isfinite(float(r[a])) for r in new):
                problems.append(f"{name}: non-finite prices")
        else:
            problems.append(f"{name}: no seed-free check defined")
        return problems
