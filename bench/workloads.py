"""Workload definitions: the generated config, the CLI call and the output gate.

Each workload is one CLI command on a config written from the benchmark
seed.  The Galerkin workloads are deterministic; the seed only reaches the
Monte Carlo seed and the probe-vector RNG of the traced run.  Reference
values were recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
import os

# example1's fields (a = 1 + y1 + 2 y2, y ~ exp-uniform^2, f = -2) with a
# constant obstacle g = -0.05 and no exact solution, written as a custom spec.
_EXAMPLE1_FIELDS = {
    "name": "ex1custom",
    "domain": [-1.5, 1.5, -1.5, 1.5],
    "densities": [{"kind": "exp-uniform"}, {"kind": "exp-uniform"}],
    "fields": {
        "a": {"mean": 1.0, "modes": [{"coeff": 1.0, "shape": 1.0, "dim": 0},
                                     {"coeff": 2.0, "shape": 1.0, "dim": 1}]},
        "f": -2.0,
        "g": -0.05,
    },
}

SG_SOLVE_LEVEL = [24, 8]
SG_PSOR_LEVEL = [16, 4]
CONVERGE_LEVELS = [[4, 8], [8, 8], [16, 8]]
MC_LEVEL = [16, 4]
MC_SAMPLES = 768

# Finest row of the sg-converge table at the reference commit.
CONVERGE_REFERENCE = {"eL2m1": 2.650632e-02, "eH1m1": 1.220342e-01,
                      "eL2m2": 7.018098e-02, "eH1m2": 2.196230e-01}
CONVERGE_RTOL = 1e-3

# Sum of the exported mean field and maximum of the exported variance field
# at the reference commit; both solvers stop at complementarity residual 1e-8.
FIELD_REFERENCE = {
    "sg-solve": {"mean_sum": -22.627214581098567, "var_max": 3.432848406275009e-05},
    "sg-psor": {"mean_sum": -9.968556648568354, "var_max": 3.539879163676576e-05},
}
FIELD_RTOL = 1e-4

# Largest nodal distance of the MC mean from the exact mean that the gate
# accepts: three times the largest value seen over seeds 0-39 (6.5e-3),
# which is the sampling error of MC_SAMPLES draws plus the P1 error at
# MC_LEVEL (8.4e-4, the smallest value seen).
MC_MEAN_TOL = 2e-2


def _custom(level, solver):
    return {"problem": "custom", "custom": _EXAMPLE1_FIELDS, "mode": "sg",
            "schedule": {"levels": [level]}, "solver": solver}


def make_config(workload: str, seed: int) -> tuple[dict, list[str]]:
    """Config dict and CLI subcommand (without the config path) of a workload."""
    if workload == "sg-solve":
        return _custom(SG_SOLVE_LEVEL, {"method": "active-set", "tol": 1e-8}), ["solve"]
    if workload == "sg-psor":
        solver = {"method": "psor", "omega": 1.7, "tol": 1e-8, "max_iter": 1000}
        return _custom(SG_PSOR_LEVEL, solver), ["solve"]
    if workload == "sg-converge":
        cfg = {"problem": "example1", "mode": "sg",
               "schedule": {"levels": CONVERGE_LEVELS},
               "solver": {"method": "active-set", "tol": 1e-10}, "quad_order": 64}
        return cfg, ["converge"]
    if workload == "mc":
        cfg = {"problem": "example1", "mode": "mc", "schedule": {"levels": [MC_LEVEL]},
               "solver": {"method": "active-set", "tol": 1e-8},
               "mc": {"n_samples": MC_SAMPLES, "seed": seed, "level": 0}}
        return cfg, ["mc"]
    raise KeyError(workload)


WORKLOADS = ("sg-solve", "sg-converge", "mc", "sg-psor")


def _read_field(path: str) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x1", "x2", "value"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [float(r[2]) for r in rows[1:]]


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def check_outputs(workload: str, cfg: dict, out_dir: str) -> tuple[list[str], dict]:
    """Gate one CLI run on its outputs; returns (problems, output figures)."""
    problems: list[str] = []
    figures: dict = {}
    tol = cfg["solver"]["tol"]
    if workload in ("sg-solve", "sg-psor"):
        tag = f"{cfg['custom']['name']}_level0"
        with open(os.path.join(out_dir, f"{tag}_report.json")) as fh:
            report = json.load(fh)["solver"]
        if not report["converged"]:
            problems.append("level did not converge")
        if not report["residual"] <= tol:
            problems.append(f"residual {report['residual']:.3e} above tol {tol:g}")
        nx = cfg["schedule"]["levels"][0][0]
        mean = _read_field(os.path.join(out_dir, f"{tag}_mean.csv"))
        var = _read_field(os.path.join(out_dir, f"{tag}_variance.csv"))
        for name, vals in (("mean", mean), ("variance", var)):
            if len(vals) != (nx + 1) ** 2 or not all(map(math.isfinite, vals)):
                problems.append(f"{name} field has a wrong size or non-finite values")
        figures = {"mean_sum": math.fsum(mean), "var_max": max(var)}
        ref = FIELD_REFERENCE[workload]
        for key, value in figures.items():
            if not _close(value, ref[key], FIELD_RTOL):
                problems.append(f"{key} {value!r} differs from reference {ref[key]!r}")
    elif workload == "sg-converge":
        with open(os.path.join(out_dir, "report.json")) as fh:
            levels = json.load(fh)["levels"]
        for lv in levels:
            if not lv["converged"] or not lv["residual"] <= tol:
                problems.append(f"level {lv['level']} did not converge "
                                f"(residual {lv['residual']:.3e})")
        with open(os.path.join(out_dir, "table.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(CONVERGE_LEVELS):
            problems.append(f"table has {len(rows)} rows")
        figures = {key: float(rows[-1][key]) for key in CONVERGE_REFERENCE}
        for key, value in figures.items():
            if not _close(value, CONVERGE_REFERENCE[key], CONVERGE_RTOL):
                problems.append(f"{key} {value:.6e} differs from reference "
                                f"{CONVERGE_REFERENCE[key]:.6e}")
    elif workload == "mc":
        with open(os.path.join(out_dir, "example1_mc_report.json")) as fh:
            report = json.load(fh)
        if report["n_failed"] != 0:
            problems.append(f"{report['n_failed']} sample solves failed")
        figures = {"mc_mean_err": _mc_mean_error(out_dir), "n_failed": report["n_failed"]}
        if not figures["mc_mean_err"] <= MC_MEAN_TOL:
            problems.append(f"MC mean error {figures['mc_mean_err']:.3e} "
                            f"above {MC_MEAN_TOL:g}")
    return problems, figures


def _mc_mean_error(out_dir: str) -> float:
    """Max nodal distance of the exported MC mean from the exact mean."""
    import numpy as np

    from sgobstacle.problems import example1
    from sgobstacle.stats import exact_statistic

    with open(os.path.join(out_dir, "example1_mc_mean.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    pts = np.array([[float(r[0]), float(r[1])] for r in rows])
    mc_mean = np.array([float(r[2]) for r in rows])
    problem = example1()
    exact = exact_statistic(problem.exact, problem.densities, 1, quad_order=64)
    return float(np.max(np.abs(mc_mean - exact.values(pts))))
