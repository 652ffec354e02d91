"""Iterate paths of the CLI on the benchmark configs.

Each test writes a copy of one benchmark config, as ``bench/workloads.py``
makes it at seed 7, runs it through ``cli.main`` and checks the solver
counts in its report: the active-set updates and conjugate gradient steps
of a Galerkin solve (per level of a convergence study), the sweeps of
projected SOR, and the updates (or projected SOR sweeps), factorizations
and failures of a Monte Carlo run.  A change that moves one of these paths
changes how the solvers get to their answer, even when the answer stays
within its tolerances.  The "hard shapes" variants give the coefficient
modes that are not multiples of the mean, so the Galerkin matvec makes
three sparse products and no Monte Carlo samples share a factor.  The "moving contact"
Monte Carlo run takes example1's fields with the constant obstacle -0.05
(the sg-solve config's custom problem) at nx = 32, where a block holds up
to 17 samples whose contact sets differ, and the run's samples share 53
factors.  A Monte Carlo sample's first update holds the final set of the
nearest sample of the last converged block, and the report counts the
samples that kept that start set; every sample but the first, which starts
cold, can.  Projected SOR colours the Galerkin rows from the Kronecker
factors; on these configs the colours are those of first fit on the
explicit matrix, and the product of the whole matrix is made only in the
few sweeps whose first colour class is within the tolerance.
"""

import copy
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_array_equal

import sgobstacle.lcp as lcp_module
from sgobstacle.cli import main as cli_main
from sgobstacle.lcp import greedy_colouring, solve_lcp
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import build_param_grid
from sgobstacle.runner import validate_config
from sgobstacle.system import assemble_sg

from oracles import assert_same_csr, coo_explicit

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SG_SOLVE, _ = workloads.make_config("sg-solve", 7)
SG_PSOR, _ = workloads.make_config("sg-psor", 7)
SG_CONVERGE, _ = workloads.make_config("sg-converge", 7)
MC, _ = workloads.make_config("mc", 7)
EXAMPLE1_FIELDS = SG_SOLVE["custom"]  # example1's fields with a constant obstacle


def hard_shapes(fields):
    """``fields`` with the modes 1 + 0.5 x1 and 1 - 0.3 x2."""
    fields = copy.deepcopy(fields)
    modes = fields["fields"]["a"]["modes"]
    modes[0]["shape"] = {"kind": "polynomial", "terms": [[1, 0, 0], [0.5, 1, 0]]}
    modes[1]["shape"] = {"kind": "polynomial", "terms": [[1, 0, 0], [-0.3, 0, 1]]}
    return fields


def run(tmp_path, command, cfg, report):
    """The report ``report`` of ``command`` on ``cfg``, run in ``tmp_path``."""
    cfg = dict(cfg, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["-q", command, str(path)]) == 0
    return json.loads((tmp_path / "out" / report).read_text())


@pytest.mark.parametrize("cfg, path, factors", [
    (SG_SOLVE, (8, 23), 1),
    (dict(SG_SOLVE, custom=hard_shapes(EXAMPLE1_FIELDS)), (9, 41), 3),
    (SG_PSOR, (92, 0), 1),
], ids=["proportional modes", "hard shapes", "projected SOR"])
def test_galerkin_solve(tmp_path, cfg, path, factors):
    r = run(tmp_path, "solve", cfg, "ex1custom_level0_report.json")
    solver = r["solver"]
    assert solver["converged"]
    assert (solver["iterations"], solver["inner_iterations"]) == path
    assert r["spatial_factors"] == factors


def galerkin_system(cfg):
    """The Galerkin system of the first level of ``cfg`` and its solver config."""
    cfg = validate_config(cfg)
    problem, level = cfg.problem, cfg.levels[0]
    system = assemble_sg(build_uniform_mesh(problem.rect, level.nx, level.ny),
                         build_param_grid(problem.densities, level.cells,
                                          cfg.parameterization == "xi"),
                         problem.fields["a"], problem.fields["f"], problem.fields["g"],
                         problem.dirichlet)
    return system, cfg.solver


@pytest.mark.parametrize("cfg", [SG_PSOR, dict(SG_PSOR, custom=hard_shapes(EXAMPLE1_FIELDS))],
                         ids=["proportional modes", "hard shapes"])
def test_galerkin_colours_are_first_fit_on_the_explicit_matrix(cfg):
    system, _ = galerkin_system(cfg)
    A = system.explicit()
    colour = np.asarray(system.colours())
    rows = np.repeat(np.arange(system.n), np.diff(A.indptr))
    off = rows != A.indices
    assert not np.any(colour[rows[off]] == colour[A.indices[off]])
    assert_array_equal(colour, greedy_colouring(A))


@pytest.mark.parametrize("cfg", [SG_PSOR, dict(SG_PSOR, custom=hard_shapes(EXAMPLE1_FIELDS))],
                         ids=["proportional modes", "hard shapes"])
def test_explicit_matches_the_coo_build(cfg):
    system, _ = galerkin_system(cfg)
    assert_same_csr(system.explicit(), coo_explicit(system))


def test_projected_sor_set_up_peaks_below_seven_megabytes():
    # the explicit matrix (2.2 MB) and its colour-ordered copy, written from
    # the factor patterns: 5.3 MB at the peak, 10.1 MB through a COO of the
    # union pattern and scipy's column gather
    system, _ = galerkin_system(SG_PSOR)
    tracemalloc.start()
    try:
        lcp_module._colour_ordered(system.explicit(), system.colours())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


def test_projected_sor_makes_few_whole_products(monkeypatch):
    # a sweep makes the product of the whole matrix only when its first
    # class is within the tolerance, or in the last sweep allowed
    system, solver = galerkin_system(SG_PSOR)
    products = []
    matmul = sp.csr_array.__matmul__

    def counted(A, v):
        products.append(A.shape[0])
        return matmul(A, v)

    monkeypatch.setattr(sp.csr_array, "__matmul__", counted)
    _, report = solve_lcp(system, system.obs, solver)
    assert report.converged and report.iterations == 92
    assert products.count(system.n) <= 5
    # one product per class and sweep, the first class's made after the
    # sweep before (or before the first sweep)
    assert len(products) == 92 * 8 + products.count(system.n) + 1


def test_galerkin_convergence(tmp_path):
    r = run(tmp_path, "converge", SG_CONVERGE, "report.json")
    levels = r["levels"]
    assert all(lv["converged"] and lv["spatial_factors"] == 1 for lv in levels)
    assert [(lv["iterations"], lv["inner_iterations"]) for lv in levels] == \
        [(0, 1), (5, 5), (3, 3)]


@pytest.mark.parametrize("cfg, report, counts, distinct, blocks", [
    (MC, "example1_mc_report.json", (20, 773, 0), 6, 16),
    (dict(MC, problem="custom", custom=hard_shapes(EXAMPLE1_FIELDS)),
     "ex1custom_mc_report.json", (54, 1583, 0), 1583, 16),
    (dict(MC, problem="custom", custom=EXAMPLE1_FIELDS, schedule={"levels": [[32, 4]]}),
     "ex1custom_mc_report.json", (187, 1667, 0), 53, 49),
    (dict(MC, mc=dict(MC["mc"], solver={"method": "psor", "omega": 1.5, "tol": 1e-8,
                                        "max_iter": 2000})),
     "example1_mc_report.json", (428, 0, 0), 0, 16),
], ids=["example1", "hard shapes", "moving contact", "projected SOR"])
def test_monte_carlo(tmp_path, cfg, report, counts, distinct, blocks):
    r = run(tmp_path, "mc", cfg, report)
    assert (r["solver_iterations"], r["sample_factorizations"], r["n_failed"]) == counts
    assert r["distinct_factorizations"] == distinct
    assert r["blocks"] == blocks
    # every moved sample hits the run's factor store or makes a new pair;
    # samples of other shapes have no store, so each makes its own, and
    # projected SOR factors nothing
    assert r["store_hits"] + distinct == r["sample_factorizations"]
    assert r["store_evictions"] == 0
    assert (r["store_peak_bytes"] > 0) == (r["store_hits"] > 0)
    assert 0 < r["start_sets_kept"] <= r["n_samples"] - 1
