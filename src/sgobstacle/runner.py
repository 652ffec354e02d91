"""Experiment configuration, convergence studies and single runs.

Configs are JSON files with nested sections (problem, schedule, solver, mc,
output).  A convergence study walks a refinement schedule, solves the tensor
Galerkin problem per level (warm-started from the previous level), computes
relative errors of the first two moments against the exact solution by
tensor quadrature, and writes a CSV table plus a JSON report.  The config's
``parameterization`` puts the Galerkin hats of every level in y (``exp``)
or xi (``xi``); the problem is the same either way.  The exact
solution is a product phi(x) psi(y), so the errors of a level take one
evaluation of psi on the parameter quadrature nodes and one of phi and its
gradient at the spatial quadrature points.  Reported ``seconds`` cover
assembly and solve; error evaluation is timed apart as ``errors_seconds``.
Single-level and Monte Carlo runs write their mean and variance, nodal
arrays, as one CSV each and together as one VTK file (``_write_fields``).
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from ._checks import integer, known_keys, number, shown
from .fem import assembly_points, evaluate_p1, p1_distance
from .fields import bounds_check
from .lcp import SolverConfig, SolverNotConverged, solve_lcp
from .mc import mc_run
from .mesh import Mesh, build_uniform_mesh, write_vtk
from .param import build_param_grid, hat_values, kron_apply
from .problems import Problem, get_problem, problem_from_config
from .stats import (ParametricFunction, _full_blocks, psi_moments, sg_mean, sg_second_moment,
                    sg_variance, write_stat_csv)
from .system import EXPLICIT_LIMIT, SGSystem, assemble_sg

__all__ = [
    "ConfigError",
    "SolverNotConverged",
    "ExperimentConfig",
    "write_table",
    "validate_config",
    "load_config",
    "make_output_dir",
    "run_convergence",
    "run_single",
    "run_mc",
    "convergence_errors",
]

log = logging.getLogger("sgobstacle")

# Largest mesh and largest parameter grid (nodes) of a level: validation
# builds the finest mesh to check the coefficient, and a Galerkin run builds
# the grid's nodes, so larger requests are refused before either.
MAX_NODES = 2 ** 22

TABLE_HEADER = "h,s,eL2m1,ordL2m1,eH1m1,ordH1m1,eL2m2,ordL2m2,eH1m2,ordH1m2,iters,seconds"


class ConfigError(Exception):
    """Invalid configuration; the message lists every problem found."""


@dataclass(frozen=True)
class Level:
    nx: int
    ny: int
    cells: int

    def sizes(self, n_dims: int) -> tuple[int, int]:
        """Interior mesh nodes I and parameter nodes J of this level."""
        return (self.nx - 1) * (self.ny - 1), (self.cells + 1) ** n_dims


@dataclass
class ExperimentConfig:
    problem: Problem
    mode: str
    levels: list[Level]
    solver: SolverConfig
    mc_solver: SolverConfig  # the mc section's solver, else ``solver``
    parameterization: str = "exp"  # Galerkin hats linear in y ('exp') or in xi ('xi')
    mc_samples: int = 4096
    mc_seed: int = 0
    mc_level: int = 0
    quad_order: int = 64
    output_dir: str = "out"


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int too long to parse
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def _checked(errors: list, check, *args):
    """``check(*args)``, or None after noting its ValueError in ``errors``."""
    try:
        return check(*args)
    except ValueError as exc:
        errors.append(str(exc))
        return None


def _level(problem: Problem, h: float, cells: int, label: str,
           errors: list) -> Level | None:
    """The level of cell side ``h``, or None after noting why it cannot be built."""
    x0, x1, y0, y1 = problem.rect
    if not (h > 0.0 and ((x1 - x0) / h + 1.0) * ((y1 - y0) / h + 1.0) <= MAX_NODES):
        errors.append(f"{label} has a mesh of more than {MAX_NODES} nodes")
        return None
    nx, ny = (x1 - x0) / h, (y1 - y0) / h
    if min(nx, ny) < 1.5:
        side = "x" if nx < ny else "y"
        errors.append(f"{label} leaves fewer than 2 cells on the {side} side")
        return None
    if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        errors.append(f"{label} does not divide the domain sides")
        return None
    return Level(nx=round(nx), ny=round(ny), cells=cells)


def _coupled_levels(problem: Problem, parameterization: str, spec: dict,
                    errors: list) -> list[Level]:
    _checked(errors, known_keys, spec, ("h_over_s", "m_min", "m_max"), "schedule.coupled")
    if not problem.densities:
        errors.append("schedule.coupled needs a parameter dimension; use levels")
        return []
    h_over_s = spec.get("h_over_s", problem.h_over_s)
    if h_over_s is None:
        errors.append("schedule.coupled needs h_over_s (no problem default)")
        return []
    h_over_s = _checked(errors, number, h_over_s, "schedule.coupled.h_over_s")
    m_min = _checked(errors, integer, spec.get("m_min", 1), "schedule.coupled.m_min", 0, 30)
    m_max = _checked(errors, integer, spec.get("m_max", 4), "schedule.coupled.m_max",
                     m_min or 0, 30)
    if h_over_s is None or m_min is None or m_max is None:
        return []
    if h_over_s <= 0.0:
        errors.append(f"schedule.coupled.h_over_s must be positive, got {h_over_s!r}")
        return []
    # the widest parameter interval in the hat coordinate, y or xi
    in_xi = parameterization == "xi"
    span = max(rho.hi - rho.lo if in_xi else rho.support[1] - rho.support[0]
               for rho in problem.densities)
    levels = []
    for m in range(m_min, m_max + 1):
        cells = 2 ** m
        h = h_over_s * span / cells
        level = _level(problem, h, cells, f"coupled level m={m} (h={h!r})", errors)
        if level is None:
            # every level shares h_over_s, so the first one refused names the fault
            break
        levels.append(level)
    return levels


def _solver(spec, what: str, errors: list) -> SolverConfig | None:
    """The SolverConfig of a solver section, or None after noting why not."""
    if not isinstance(spec, dict):
        errors.append(f"{what} must be an object")
        return None
    try:
        return SolverConfig(**spec)
    except (TypeError, ValueError) as exc:
        errors.append(f"{what}: {exc}")
        return None


def _check_well_posed(problem: Problem, levels: list[Level], errors: list) -> None:
    """Refuse affine data for which the obstacle problem is not well posed.

    The coefficient a must be positive, and with zero Dirichlet data (a
    custom problem) the obstacle g must not exceed 0 on the boundary, or no
    function of H^1_0 lies above it.  Both ranges are taken over the
    parameter box (``fields.bounds_check``) on each level's mesh, built one
    at a time: a at the nodes and at the quadrature points of the assembly
    (``fem.assembly_points``), g at the boundary nodes.  The checks are discrete: a can
    still dip below zero between these points.
    """
    a, g = problem.fields["a"], problem.fields["g"]
    check_g = problem.dirichlet is None
    supports = [rho.support for rho in problem.densities]
    a_lo, g_hi = math.inf, -math.inf
    try:
        for nx, ny in sorted({(lv.nx, lv.ny) for lv in levels}):
            mesh = build_uniform_mesh(problem.rect, nx, ny)
            what = "coefficient a"
            for points in (mesh.nodes, assembly_points(mesh)):
                a_lo = np.minimum(a_lo, bounds_check(a, supports, points).lo)
            if check_g:
                what = "obstacle g"
                g_hi = np.maximum(g_hi, bounds_check(g, supports, mesh.nodes[mesh.boundary]).hi)
    except ValueError as exc:
        errors.append(f"{what}: {exc}")
        return
    if not a_lo > 0.0:
        errors.append(f"coefficient a is not uniformly positive: its minimum over the "
                      f"parameter box, the mesh nodes and the assembly quadrature points "
                      f"is {a_lo:.6g}")
    if not g_hi <= 0.0:
        errors.append(f"obstacle g lies above the zero boundary data, so no admissible "
                      f"function exists: its maximum over the parameter box and the "
                      f"boundary nodes is {g_hi:.6g}")


def validate_config(raw: dict) -> ExperimentConfig:
    """Check a parsed config and build the experiment plan.

    Raises ConfigError listing every problem found; unknown keys (top level,
    ``schedule``, ``schedule.coupled``, ``mc`` and the custom sections) are
    rejected to catch typos.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    errors: list[str] = []
    _checked(errors, known_keys, raw, ("problem", "mode", "parameterization", "schedule",
                                       "solver", "mc", "quad_order", "output_dir",
                                       "custom"), "config")

    mode = raw.get("mode", "sg")
    if mode not in ("sg", "mc", "both"):
        errors.append(f"mode must be sg, mc or both, got {shown(mode)}")
    parameterization = raw.get("parameterization", "exp")
    if parameterization not in ("exp", "xi"):
        errors.append(f"parameterization must be exp or xi, got {shown(parameterization)}")

    problem = None
    name = raw.get("problem", "example1")
    try:
        if name == "custom":
            if "custom" not in raw:
                raise ValueError("problem 'custom' needs a custom section")
            problem = problem_from_config(raw["custom"])
        else:
            problem = get_problem(name)
    except (KeyError, ValueError, TypeError) as exc:
        errors.append(str(exc))

    levels: list[Level] = []
    schedule = raw.get("schedule", {})
    if not isinstance(schedule, dict):
        errors.append("schedule must be an object")
    elif problem is not None:
        _checked(errors, known_keys, schedule, ("levels", "coupled"), "schedule")
        if "levels" in schedule and "coupled" in schedule:
            errors.append("schedule takes either levels or coupled, not both")
        elif "levels" in schedule and not isinstance(schedule["levels"], list):
            errors.append("schedule.levels must be a list of [nx, cells] pairs")
        elif "levels" in schedule:
            x0, x1 = problem.rect[:2]
            for entry in schedule["levels"]:
                if not (isinstance(entry, list) and len(entry) == 2):
                    errors.append(f"bad schedule level {shown(entry)}, want [nx, cells]")
                    continue
                # one message per entry, naming it once whatever is wrong in it
                faults: list[str] = []
                nx = _checked(faults, integer, entry[0], "nx", 2)
                cells = _checked(faults, integer, entry[1], "cells", 1)
                if faults:
                    errors.append(f"bad schedule level {shown(entry)}: {'; '.join(faults)}")
                    continue
                # more than MAX_NODES cells on a side is too many nodes, and such
                # an nx need not convert to a float for the division
                h = (x1 - x0) / nx if nx <= MAX_NODES else 0.0
                level = _level(problem, h, cells,
                               f"level [nx={shown(nx)}, cells={shown(cells)}]", errors)
                if level is not None:
                    levels.append(level)
        elif "coupled" in schedule and not isinstance(schedule["coupled"], dict):
            errors.append("schedule.coupled must be an object")
        elif "coupled" in schedule:
            levels = _coupled_levels(problem, parameterization, schedule["coupled"], errors)
        else:
            errors.append("schedule needs a levels list or a coupled rule")
        if not levels and not errors:
            errors.append("schedule is empty")
        if mode in ("sg", "both"):
            for level in levels:
                if (level.cells + 1) ** problem.n_dims > MAX_NODES:
                    errors.append(f"level [nx={level.nx}, cells={shown(level.cells)}] has a "
                                  f"parameter grid of more than {MAX_NODES} nodes")

    if "solver" not in raw:
        log.warning("no solver section in config, using defaults (%s)",
                    SolverConfig().method)
    solver = _solver(raw.get("solver", {}), "solver", errors)

    if problem is not None:
        _check_well_posed(problem, levels, errors)

    mc_raw = raw.get("mc", {})
    if not isinstance(mc_raw, dict):
        errors.append("mc must be an object")
        mc_raw = {}
    _checked(errors, known_keys, mc_raw, ("n_samples", "seed", "level", "solver"), "mc")
    # the variance estimate divides by n_samples - 1
    mc_samples = _checked(errors, integer, mc_raw.get("n_samples", 4096), "mc.n_samples", 2)
    mc_seed = _checked(errors, integer, mc_raw.get("seed", 0), "mc.seed")
    mc_level = _checked(errors, integer, mc_raw.get("level", 0), "mc.level", 0,
                        len(levels) - 1 if levels else None)
    mc_solver = _solver(mc_raw["solver"], "mc.solver", errors) if "solver" in mc_raw else solver

    # leggauss(q) solves a q x q eigenproblem, and a 2-D tensor rule of this
    # order has at most MAX_NODES nodes, the bound of a parameter grid
    quad_order = _checked(errors, integer, raw.get("quad_order", 64), "quad_order", 2,
                          math.isqrt(MAX_NODES))
    if solver is not None and solver.method == "psor" and mode in ("sg", "both"):
        for k, level in enumerate(levels):
            I, J = level.sizes(problem.n_dims)
            if I * J > EXPLICIT_LIMIT:
                errors.append(
                    f"level {k} has I*J = {I * J}, above the explicit matrix "
                    f"limit of {EXPLICIT_LIMIT} that projected SOR needs; use "
                    "method 'active-set'")

    if problem is not None and levels and mode in ("sg", "mc", "both"):
        # the problem name starts every output file name, and the longest of
        # them must fit the 255-byte file name limit of common file systems
        suffix = ("_mc_variance.csv" if mode == "mc"
                  else f"_level{len(levels) - 1}_variance.csv")
        size = len(os.fsencode(problem.name)) + len(suffix)
        if size > 255:
            errors.append(f"problem name {shown(problem.name)} is too long: output file "
                          f"<name>{suffix} would take {size} bytes, above the 255-byte "
                          "file name limit")

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        errors.append(f"output_dir must be a string, got {shown(output_dir)}")

    if errors:
        raise ConfigError("; ".join(errors))

    return ExperimentConfig(
        problem=problem, mode=mode, levels=levels, solver=solver,
        parameterization=parameterization, mc_samples=mc_samples, mc_seed=mc_seed,
        mc_level=mc_level, mc_solver=mc_solver, quad_order=quad_order, output_dir=output_dir,
    )


@dataclass
class TableRow:
    h: float
    s: float
    errors: dict  # eL2m1, eH1m1, eL2m2, eH1m2
    orders: dict  # same keys, values may be None
    iters: int
    seconds: float


def write_table(rows: list[TableRow], path: str) -> None:
    """Write the error table as CSV under ``TABLE_HEADER``, one line per row."""
    with open(path, "w") as fh:
        fh.write(TABLE_HEADER + "\n")
        for row in rows:
            cells = [f"{row.h:.10g}", f"{row.s:.10g}"]
            for key in ("eL2m1", "eH1m1", "eL2m2", "eH1m2"):
                cells.append(f"{row.errors[key]:.6e}")
                order = row.orders[key]
                cells.append("" if order is None else f"{order:.4f}")
            cells.append(str(row.iters))
            cells.append(f"{row.seconds:.3f}")
            fh.write(",".join(cells) + "\n")


def convergence_errors(system: SGSystem, u: np.ndarray, exact: ParametricFunction,
                       quad_order: int = 64) -> dict:
    """Relative L2/H1-seminorm errors of the first two moment fields.

    The exact solution is phi(x) psi(y), so its mean and second moment are
    m1 phi and m2 phi^2, with gradients m1 grad phi and 2 m2 phi grad phi,
    from the scalars (m1, m2) = E[psi], E[psi^2] of one tensor parameter
    quadrature over the system's densities (``stats.psi_moments``); the
    discrete moments are P1 fields on its mesh from the Galerkin coefficients.
    """
    fields = np.stack([sg_mean(system, u), sg_second_moment(system, u)])
    m1, m2 = psi_moments(exact, system.grid.densities, quad_order, (1, 2))

    def exact_data(x):
        phi, dphi = exact.space(x), exact.space_grad(x)
        em, em2 = m1 * phi, m2 * phi ** 2
        egm, egm2 = m1 * dphi, (2.0 * m2) * phi[:, None] * dphi
        return np.stack([em, em2, em, em2]), np.stack([egm, egm2, egm, egm2])

    # the norms of the exact data are the distances of zero fields
    l2, h1 = p1_distance(system.mesh, np.concatenate([fields, np.zeros_like(fields)]), exact_data)
    return {
        "eL2m1": float(l2[0] / l2[2]),
        "eH1m1": float(h1[0] / h1[2]),
        "eL2m2": float(l2[1] / l2[3]),
        "eH1m2": float(h1[1] / h1[3]),
    }


def _interpolate_solution(old: SGSystem, u_old: np.ndarray, new: SGSystem) -> np.ndarray:
    """Transfer a tensor solution to a finer level (warm start).

    The old blocks are interpolated to the new parameter nodes by the
    Kronecker product of the old hats' values there, then each new block
    is the old P1 field at the new interior nodes.
    """
    transfer = [hat_values(o, n) for o, n in zip(old.grid.breakpoints, new.grid.breakpoints)]
    interp = kron_apply(transfer, _full_blocks(old, u_old))
    return evaluate_p1(old.mesh, interp, new.mesh.nodes[new.mesh.interior]).reshape(-1)


def _solve_level(cfg: ExperimentConfig, level: Level, warm_from=None):
    """(system, u, report, seconds of assembly and solve) of one level."""
    problem = cfg.problem
    mesh = build_uniform_mesh(problem.rect, level.nx, level.ny)
    grid = build_param_grid(problem.densities, level.cells, cfg.parameterization == "xi")
    t0 = time.perf_counter()
    system = assemble_sg(mesh, grid, problem.fields["a"], problem.fields["f"],
                         problem.fields["g"], problem.dirichlet)
    x0 = None if warm_from is None else _interpolate_solution(*warm_from, system)
    u, report = solve_lcp(system, system.obs, cfg.solver, x0=x0)
    return system, u, report, time.perf_counter() - t0


def _sizes(system: SGSystem) -> dict:
    """The sizes that every report of a Galerkin level gives: interior
    nodes I, parameter nodes J and sparse products per matvec."""
    return {"I": system.n_spatial, "J": system.n_param,
            "spatial_factors": system.spatial_factors}


def _timed_errors(cfg: ExperimentConfig, system: SGSystem, u: np.ndarray):
    """``convergence_errors`` of a solved level and the seconds they took."""
    t0 = time.perf_counter()
    errs = convergence_errors(system, u, cfg.problem.exact, cfg.quad_order)
    return errs, time.perf_counter() - t0


def _check_mode(cfg: ExperimentConfig, command: str, mode: str) -> None:
    """Refuse a config whose mode is neither ``mode`` nor 'both', the modes
    that the ``command`` subcommand runs."""
    if cfg.mode not in (mode, "both"):
        raise ConfigError(f"{command} subcommand needs mode {mode!r} or 'both'")


def run_convergence(cfg: ExperimentConfig):
    """Walk the schedule, build the error table, write table.csv and report.json.

    Returns (rows, reports), a TableRow and a report dict per level.  Raises
    ConfigError, before it makes the output directory, on a mode other than
    'sg' or 'both' and on a problem without an exact solution, and
    SolverNotConverged after writing outputs if any level failed.
    """
    problem = cfg.problem
    _check_mode(cfg, "converge", "sg")
    if problem.exact is None:
        raise ConfigError(f"converge needs an exact solution, and problem "
                          f"{problem.name!r} has none")
    make_output_dir(cfg)
    rows = []
    reports = []
    prev = None
    failed = []
    for k, level in enumerate(cfg.levels):
        system, u, report, seconds = _solve_level(cfg, level, prev)
        errs, errors_seconds = _timed_errors(cfg, system, u)
        h = system.mesh.cell_side()
        s = system.grid.s
        # the order is taken in h, or in s where h stays; a repeated level has none
        prev_row = rows[-1] if rows else None
        ratio = None
        if prev_row is not None and abs(prev_row.h - h) > 1e-14:
            ratio = prev_row.h / h
        elif prev_row is not None and abs(prev_row.s - s) > 1e-14:
            ratio = prev_row.s / s
        orders = {key: None if ratio is None
                  else float(np.log(prev_row.errors[key] / e) / np.log(ratio))
                  for key, e in errs.items()}
        rows.append(TableRow(h=h, s=s, errors=errs, orders=orders,
                             iters=report.iterations, seconds=seconds))
        reports.append({"level": k, "nx": level.nx, "cells": level.cells, **_sizes(system),
                        "errors_seconds": errors_seconds, **report.as_dict()})
        log.info("level %d: nx=%d cells=%d IJ=%d eL2m1=%.4e eH1m1=%.4e "
                 "iters=%d (%.2fs)", k, level.nx, level.cells, system.n,
                 errs["eL2m1"], errs["eH1m1"], report.iterations, seconds)
        if not report.converged:
            failed.append(k)
        prev = (system, u)
    write_table(rows, os.path.join(cfg.output_dir, "table.csv"))
    _write_report(cfg, "report.json",
                  {"problem": problem.name, "mode": cfg.mode, "levels": reports})
    if failed:
        raise SolverNotConverged(f"levels {failed} did not converge")
    return rows, reports


def make_output_dir(cfg: ExperimentConfig) -> None:
    """Create ``cfg.output_dir`` if needed; a path that cannot be made a
    directory (an existing file, say) is a config error."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.output_dir!r}: "
                          f"{exc.strerror or exc}") from exc


def _write_report(cfg: ExperimentConfig, name: str, payload: dict) -> None:
    with open(os.path.join(cfg.output_dir, name), "w") as fh:
        json.dump(payload, fh, indent=2)


def _write_fields(cfg: ExperimentConfig, mesh: Mesh, fields: dict, tag: str) -> dict:
    """Write each nodal array of ``fields`` (by name) as ``<tag>_<name>.csv``
    and all of them as ``<tag>.vtk``; returns the paths."""
    paths = {}
    for name, values in fields.items():
        paths[name] = os.path.join(cfg.output_dir, f"{tag}_{name}.csv")
        write_stat_csv(mesh, values, paths[name])
    paths["vtk"] = os.path.join(cfg.output_dir, f"{tag}.vtk")
    write_vtk(mesh, paths["vtk"], point_data=fields, title="solution statistics")
    return paths


def run_single(cfg: ExperimentConfig, level_index: int):
    """Solve one schedule level, write mean/variance exports and a report.

    Raises ConfigError, before it makes the output directory, on a mode
    other than 'sg' or 'both' and on a level outside the schedule."""
    _check_mode(cfg, "solve", "sg")
    if not (0 <= level_index < len(cfg.levels)):
        raise ConfigError(f"level {level_index} outside the schedule "
                          f"(0..{len(cfg.levels) - 1})")
    make_output_dir(cfg)
    level = cfg.levels[level_index]
    system, u, report, seconds = _solve_level(cfg, level)
    tag = f"{cfg.problem.name}_level{level_index}"
    paths = _write_fields(cfg, system.mesh, {"mean": sg_mean(system, u),
                                             "variance": sg_variance(system, u)}, tag)
    payload = {
        "problem": cfg.problem.name,
        "level": level_index,
        "nx": level.nx, "cells": level.cells, **_sizes(system),
        "seconds": seconds,
        "solver": report.as_dict(),
        "outputs": paths,
    }
    if cfg.problem.exact is not None:
        payload["errors"], payload["errors_seconds"] = _timed_errors(cfg, system, u)
    _write_report(cfg, f"{tag}_report.json", payload)
    if not report.converged:
        raise SolverNotConverged(f"level {level_index} did not converge "
                                 f"(residual {report.residual:.3e})")
    return system, u, report, payload


def run_mc(cfg: ExperimentConfig):
    """Monte Carlo run at the configured level; mode 'both' adds a Galerkin
    run on the same mesh and reports the discrepancy and timing ratio.
    Raises ConfigError, before it makes the output directory, on a mode
    other than 'mc' or 'both', and SolverNotConverged after writing when
    that Galerkin run does not converge."""
    _check_mode(cfg, "mc", "mc")
    make_output_dir(cfg)
    problem = cfg.problem
    level = cfg.levels[cfg.mc_level]
    mesh = build_uniform_mesh(problem.rect, level.nx, level.ny)
    t0 = time.perf_counter()
    result = mc_run(mesh, problem.fields, problem.densities, cfg.mc_samples,
                    cfg.mc_seed, cfg.mc_solver, problem.dirichlet)
    mc_seconds = time.perf_counter() - t0

    tag = f"{problem.name}_mc"
    paths = _write_fields(cfg, mesh, {"mean": result.mean, "variance": result.variance()}, tag)
    timing_path = os.path.join(cfg.output_dir, f"{tag}_timing.csv")
    with open(timing_path, "w") as fh:
        fh.write("phase,seconds\n")
        for phase, secs in result.timings.items():
            fh.write(f"{phase},{secs:.6f}\n")
        fh.write(f"total,{mc_seconds:.6f}\n")

    payload = {
        "problem": problem.name,
        "n_samples": cfg.mc_samples,
        "seed": cfg.mc_seed,
        **result.counters(),
        "level": cfg.mc_level,
        "nx": level.nx,
        "mc_seconds": mc_seconds,
        "outputs": paths,
    }
    if cfg.mode == "both":
        system, u, report, sg_seconds = _solve_level(cfg, level)
        gap = float(np.max(np.abs(sg_mean(system, u) - result.mean)))
        payload.update(sg_seconds=sg_seconds, mean_max_gap=gap, sg_converged=report.converged,
                       **_sizes(system))
        log.info("mc %.2fs vs sg %.2fs, mean gap %.3e", mc_seconds, sg_seconds, gap)
    _write_report(cfg, f"{tag}_report.json", payload)
    if cfg.mode == "both" and not report.converged:
        raise SolverNotConverged(f"Galerkin level {cfg.mc_level} did not converge "
                                 f"(residual {report.residual:.3e})")
    return result, payload
