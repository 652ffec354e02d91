"""Iterate paths of the CLI on the benchmark configs.

Each test writes a copy of one benchmark config, as ``bench/workloads.py``
makes it at seed 7, runs it through ``cli.main`` and checks the solver
counts in its report: the active-set updates and conjugate gradient steps
of a Galerkin solve (per level of a convergence study), the sweeps of
projected SOR, and the updates, factorizations and failures of a Monte
Carlo run.  A change that moves one of these paths changes how
the solvers get to their answer, even when the answer stays within its
tolerances.  The "hard shapes" variants give the coefficient modes that
are not multiples of the mean, so the Galerkin matvec makes three sparse
products and no Monte Carlo samples share a factor.  The "moving contact"
Monte Carlo run takes example1's fields with the constant obstacle -0.05
(the sg-solve config's custom problem) at nx = 32, where a block holds up
to 17 samples whose contact sets differ, and the run's samples share 53
factors.  A Monte Carlo sample's first update holds the final set of the
nearest sample of the last converged block, and the report counts the
samples that kept that start set; every sample but the first, which starts
cold, can.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from sgobstacle.cli import main as cli_main

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
], ids=["example1", "hard shapes", "moving contact"])
def test_monte_carlo(tmp_path, cfg, report, counts, distinct, blocks):
    r = run(tmp_path, "mc", cfg, report)
    assert (r["solver_iterations"], r["sample_factorizations"], r["n_failed"]) == counts
    assert r["distinct_factorizations"] == distinct
    assert r["blocks"] == blocks
    # every moved sample hits the run's factor store or makes a new pair;
    # samples of other shapes have no store, so each makes its own
    assert r["store_hits"] + distinct == r["sample_factorizations"]
    assert r["store_evictions"] == 0
    assert (r["store_peak_bytes"] > 0) == (r["store_hits"] > 0)
    assert 0 < r["start_sets_kept"] <= r["n_samples"] - 1
