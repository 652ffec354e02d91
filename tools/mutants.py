"""Committed mutants: each is one textual change to the package that the
tier-1 tests must catch.

For every mutant the script copies ``src``, ``tests`` and ``bench`` (whose
configs the iterate-path pins run) to a temporary directory, applies the
change there and runs tier-1 on the copy with ``-x`` (stop at the first
failure), with criterion 1 deselected: it fails for a known cause (the
nodal Dirichlet data), so it would kill every mutant.  An unchanged copy
runs first and must pass, else no kill would mean anything.
The script prints, per mutant, whether a test failed, the first failing
test and how long the run took, and exits 1 if any mutant survives or no
longer applies (its old text is not found exactly once).

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--deselect", "tests/test_acceptance.py::test_criterion_1_mean_convergence_rates"]
TIMEOUT = 900  # seconds of one tier-1 run; a mutant that runs longer counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    defect: str  # the class of defect the mutant stands for
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = [
    Mutant("masked-no-unit-diagonal", "banded Cholesky of the held entries",
           "src/sgobstacle/lcp.py",
           "    band[:, 0] += held\n", ""),
    Mutant("colour-rows-only", "projected SOR's colour permutation",
           "src/sgobstacle/lcp.py",
           "return A[order][:, order], bounds", "return A[order], bounds"),
    Mutant("start-set-first-row", "Monte Carlo start sets",
           "src/sgobstacle/mc.py",
           "held = sets[_nearest(Y, rows)].ravel()",
           "held = sets[np.zeros(len(Y), dtype=int)].ravel()"),
    Mutant("counter-dropped", "Monte Carlo counters",
           "src/sgobstacle/mc.py",
           "        result.distinct_factorizations += system.distinct_factorizations\n", ""),
    Mutant("precond-mean-delta", "Kronecker preconditioner",
           "src/sgobstacle/system.py",
           "inv_delta = (1.0 / delta).reshape(J, 1)",
           "inv_delta = np.full((J, 1), (1.0 / delta).mean())"),
    Mutant("fold-rtol-loose", "folding of stiffness terms",
           "src/sgobstacle/fields.py",
           "FOLD_RTOL = 1e-13", "FOLD_RTOL = 1e-2"),
    Mutant("lambda-start-off-obstacle", "start residual of an update",
           "src/sgobstacle/lcp.py",
           "if lam is not None and not exact and not np.any(active & (u != obs)):",
           "if lam is not None and not exact:"),
    Mutant("lifting-added", "Dirichlet lifting",
           "src/sgobstacle/system.py",
           "B -= kron_apply(gram.factors(k), L)", "B += kron_apply(gram.factors(k), L)"),
    Mutant("chan-no-cross-term", "moment accumulation",
           "src/sgobstacle/mc.py",
           " + delta ** 2 * (self.n * count / n)", ""),
    Mutant("store-evicts-newest", "factor store eviction",
           "src/sgobstacle/lcp.py",
           "popitem(last=False)", "popitem(last=True)"),
    Mutant("coefficient-check-loose", "config checks",
           "src/sgobstacle/runner.py",
           "if not a_lo > 0.0:", "if not a_lo > -1.0:"),
    Mutant("active-set-stop-loose", "active set stop test",
           "src/sgobstacle/lcp.py",
           "        converged = residual <= config.tol\n",
           "        converged = residual <= 100 * config.tol\n"),
    Mutant("psor-stop-loose", "projected SOR stop test",
           "src/sgobstacle/lcp.py",
           "        if residual <= config.tol:\n            break",
           "        if residual <= 100 * config.tol:\n            break"),
    Mutant("store-key-drops-first-entry", "factor store keys",
           "src/sgobstacle/lcp.py",
           "uses.setdefault(held[j].tobytes(), []).append(j)",
           "uses.setdefault(held[j][1:].tobytes(), []).append(j)"),
    Mutant("rule5-point-typo", "triangle quadrature rules",
           "src/sgobstacle/fem.py",
           "0.470142064105115", "0.470142064015115"),
    Mutant("repeated-set-goes-on", "active set stop at a repeated set",
           "src/sgobstacle/lcp.py",
           "            break  # the set repeats after a tight solve",
           "            pass  # the set repeats after a tight solve"),
    Mutant("band-drops-diagonal", "lower band builder",
           "src/sgobstacle/lcp.py",
           "lower = np.flatnonzero(k >= 0)", "lower = np.flatnonzero(k > 0)"),
    Mutant("mode-refusal-dropped", "the runner's refusal of a mode",
           "src/sgobstacle/runner.py",
           "    if cfg.mode not in (mode, \"both\"):", "    if False:"),
    Mutant("failed-precond-converges", "the active set exit of a failed preconditioner",
           "src/sgobstacle/lcp.py",
           "    converged = ok and residual <= config.tol\n",
           "    converged = residual <= config.tol\n"),
    Mutant("fold-ratio-one", "the ratios of folded stiffness terms",
           "src/sgobstacle/fields.py",
           "ratios[k] = c\n", "ratios[k] = 1.0\n"),
    Mutant("integrals-plain-gramian", "the basis integrals of the Gramians",
           "src/sgobstacle/param.py",
           "F.sum(axis=1) for F in self.factors(k)", "F.sum(axis=1) for F in self.factors(0)"),
]


def tier1(copy: Path) -> tuple[bool, str, float]:
    """(passed, first failing test or '', seconds) of tier-1 on ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    t0 = time.perf_counter()
    try:
        run = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT} s", time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    first = next((line.split(" - ")[0].split(" ", 1)[1] for line in run.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return run.returncode == 0, first or f"exit {run.returncode}", seconds


def fresh_copy(tmp: Path) -> Path:
    copy = tmp / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    return copy


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sgobstacle-mutants-") as tmp:
        tmp = Path(tmp)
        passed, first, seconds = tier1(fresh_copy(tmp))
        print(f"unchanged copy: {'passed' if passed else 'FAILED ' + first} in {seconds:.1f} s",
              flush=True)
        if not passed:
            return 1
        bad = 0
        for m in MUTANTS:
            copy = fresh_copy(tmp)
            target = copy / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: STALE, its old text is found {text.count(m.old)} times")
                bad += 1
                continue
            target.write_text(text.replace(m.old, m.new))
            passed, first, seconds = tier1(copy)
            if passed:
                bad += 1
            verdict = "SURVIVED" if passed else f"killed by {first}"
            print(f"{m.name} ({m.defect}): {verdict} in {seconds:.1f} s", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
