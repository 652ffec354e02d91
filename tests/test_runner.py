import copy
import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgobstacle import fem, param
from sgobstacle.cli import main as cli_main
from sgobstacle.fem import P1Operator, p1_distance
from sgobstacle.lcp import SolverConfig, SparseObstacleSystem, active_set_solve
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.runner import (TABLE_HEADER, ConfigError, ErrorTable,
                               SolverNotConverged, TableRow, load_config,
                               run_convergence, run_mc, run_single,
                               validate_config)
from sgobstacle.system import EXPLICIT_LIMIT

SPAN = np.e - 1.0 / np.e


def base_config(**overrides):
    cfg = {
        "problem": "example2",
        "mode": "sg",
        "schedule": {"levels": [[4, 1], [8, 2]]},
        "solver": {"method": "active-set", "tol": 1e-10},
        "quad_order": 16,
    }
    cfg.update(overrides)
    return cfg


class TestValidateConfig:
    def test_minimal_config_passes(self):
        cfg = validate_config(base_config())
        assert cfg.problem.name == "example2"
        assert [(lv.nx, lv.cells) for lv in cfg.levels] == [(4, 1), (8, 2)]
        assert cfg.solver.tol == 1e-10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="solvers"):
            validate_config(base_config(solvers={}))
        with pytest.raises(ConfigError, match="unknown config key 'explicit_limit'"):
            validate_config(base_config(explicit_limit=EXPLICIT_LIMIT))
        # a custom problem's name is custom.name; nothing read a top-level one
        with pytest.raises(ConfigError, match="unknown config key 'name'"):
            validate_config(base_config(name="fuzz"))

    @pytest.mark.parametrize("section", ["mc", "schedule", "schedule.coupled", "custom",
                                         "custom.fields", "field", "mode", "density",
                                         "spatial function"])
    def test_unknown_key_in_nested_section_rejected(self, section):
        # a typo in a nested section is a config error, never a silent default
        cfg = custom_config(3.0, mode="both")
        custom = cfg["custom"]
        if section == "mc":
            cfg = base_config(mc={"n_sample": 100})
            typo = "n_sample"
        elif section == "schedule":
            cfg["schedule"]["level"] = [[8, 2]]
            typo = "level"
        elif section == "schedule.coupled":
            cfg["schedule"] = {"coupled": {"h_over_s": 1.0, "m_mn": 0, "m_max": 1}}
            typo = "m_mn"
        elif section == "custom":
            custom["nmae"] = "mine"
            typo = "nmae"
        elif section == "custom.fields":
            custom["fields"]["h"] = 1.0
            typo = "h"
        elif section == "field":
            custom["fields"]["a"] = {"mean": 3.0,
                                     "mdoes": [{"coeff": 1.0, "shape": 1.0, "dim": 0}]}
            section, typo = "field a", "mdoes"
        elif section == "mode":
            custom["fields"]["a"] = {"mean": 3.0,
                                     "modes": [{"coeff": 1.0, "shape": 1.0, "dimm": 0}]}
            section, typo = "field a mode", "dimm"
        elif section == "density":
            custom["densities"] = [{"kind": "uniform", "lo": 0.0, "high": 3.0}]
            typo = "high"
        else:
            custom["fields"]["a"] = {"mean": {"kind": "constant", "value": 3.0, "vlaue": 2.0}}
            typo = "vlaue"
        with pytest.raises(ConfigError, match=f"unknown {section} key '{typo}'"):
            validate_config(cfg)

    def test_unknown_problem_names_valid_ids(self):
        with pytest.raises(ConfigError, match="example1.*example2"):
            validate_config(base_config(problem="example9"))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config(base_config(mode="hybrid"))

    def test_all_errors_collected(self):
        bad = base_config(mode="hybrid", quad_order=1)
        with pytest.raises(ConfigError, match="mode.*; .*quad_order"):
            validate_config(bad)

    def test_non_affine_problem_rejected_for_galerkin(self):
        cfg = base_config(parameterization="xi")
        with pytest.raises(ConfigError, match="affine"):
            validate_config(cfg)
        cfg["mode"] = "mc"
        assert validate_config(cfg).problem.parameterization == "xi"

    def test_missing_solver_block_warns_and_defaults(self, caplog):
        cfg = base_config()
        del cfg["solver"]
        with caplog.at_level(logging.WARNING, logger="sgobstacle"):
            parsed = validate_config(cfg)
        assert parsed.solver.method == "active-set"
        assert any("solver" in rec.message for rec in caplog.records)

    def test_bad_solver_options_rejected(self):
        with pytest.raises(ConfigError, match="solver"):
            validate_config(base_config(solver={"method": "psor", "omega": 5.0}))
        for key in ("sweeps", "cg_tol", "cg_max_iter", "record_energy"):
            with pytest.raises(ConfigError, match=f"solver: .*'{key}'"):
                validate_config(base_config(solver={key: 3}))

    @pytest.mark.parametrize("solver, message", [
        ({"tol": float("nan")}, "tol must be a finite number"),
        ({"tol": True}, "tol must be a finite number"),
        ({"omega": float("inf")}, "omega must be a finite number"),
        ({"omega": 2.0}, "omega must lie in"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"max_iter": "7"}, "max_iter must be an integer >= 1"),
        ({"max_iter": 0}, "max_iter must be an integer >= 1"),
        ({"max_iter": True}, "max_iter must be an integer >= 1"),
    ])
    def test_solver_values_checked(self, solver, message):
        with pytest.raises(ConfigError, match=f"solver: .*{message}"):
            validate_config(base_config(solver=solver))
        with pytest.raises(ConfigError, match=f"mc.solver: .*{message}"):
            validate_config(base_config(mc={"solver": solver}))

    def test_schedule_required(self):
        cfg = base_config()
        del cfg["schedule"]
        with pytest.raises(ConfigError, match="schedule"):
            validate_config(cfg)

    def test_levels_and_coupled_exclusive(self):
        cfg = base_config()
        cfg["schedule"]["coupled"] = {"m_min": 1, "m_max": 2}
        with pytest.raises(ConfigError, match="either levels or coupled"):
            validate_config(cfg)

    def test_bad_level_entries(self):
        with pytest.raises(ConfigError, match="nx must be an integer >= 2"):
            validate_config(base_config(schedule={"levels": [[1, 1]]}))
        with pytest.raises(ConfigError, match="cells must be an integer >= 1"):
            validate_config(base_config(schedule={"levels": [[4, 0]]}))

    def test_coupled_schedule_uses_problem_constant(self):
        # example1: h_over_s = 3 / (2 span) on a side-3 square, so level m
        # has cells = 2^m and nx = 2^(m+1)
        cfg = validate_config({"problem": "example1", "mode": "sg",
                               "schedule": {"coupled": {"m_min": 1, "m_max": 3}},
                               "solver": {}})
        assert [(lv.nx, lv.cells) for lv in cfg.levels] == \
            [(4, 2), (8, 4), (16, 8)]

    def test_coupled_zero_coefficient_rejected(self):
        cfg = {"problem": "example1", "mode": "sg",
               "schedule": {"coupled": {"m_min": 1, "m_max": 2, "h_over_s": 0.0}},
               "solver": {}}
        with pytest.raises(ConfigError, match="positive"):
            validate_config(cfg)

    def test_coupled_non_integer_mesh_rejected(self):
        cfg = {"problem": "example1", "mode": "sg",
               "schedule": {"coupled": {"m_min": 1, "m_max": 1, "h_over_s": 0.7}},
               "solver": {}}
        with pytest.raises(ConfigError, match="divide"):
            validate_config(cfg)

    def test_mc_level_bounds(self):
        cfg = base_config(mode="mc", mc={"n_samples": 8, "level": 5})
        with pytest.raises(ConfigError, match="mc.level"):
            validate_config(cfg)

    def test_mc_sample_count_positive(self):
        cfg = base_config(mode="mc", mc={"n_samples": 0})
        with pytest.raises(ConfigError, match="n_samples"):
            validate_config(cfg)

    def test_dirichlet_key_removed(self):
        # boundary data come from the problem; there is no key to drop them
        with pytest.raises(ConfigError, match="unknown config key 'dirichlet'"):
            validate_config(base_config(dirichlet="exact"))

    def test_custom_problem_needs_section(self):
        with pytest.raises(ConfigError, match="custom"):
            validate_config(base_config(problem="custom"))

    def test_custom_problem_takes_only_exp(self, tmp_path, capsys):
        # custom fields are affine in y as given; xi used to run them unchanged
        cfg = custom_config(3.0, mode="mc", parameterization="xi")
        with pytest.raises(ConfigError, match="problem 'custom' takes parameterization "
                                              "exp, got 'xi'"):
            validate_config(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["-q", "info", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error")
        cfg["parameterization"] = "exp"
        assert validate_config(cfg).problem.parameterization == "exp"

    @pytest.mark.parametrize("section, key, name, value", [
        pytest.param(None, "quad_order", "quad_order", "many", id="None-quad_order-quad_order"),
        pytest.param("mc", "n_samples", "mc.n_samples", "lots", id="mc-n_samples-mc.n_samples"),
        pytest.param("mc", "seed", "mc.seed", "lots", id="mc-seed-mc.seed"),
        pytest.param("mc", "level", "mc.level", "lots", id="mc-level-mc.level"),
        # integers are never truncated or parsed from strings
        pytest.param(None, "quad_order", "quad_order", 3.9, id="quad_order=3.9"),
        pytest.param(None, "quad_order", "quad_order", "7", id="quad_order='7'"),
        pytest.param(None, "quad_order", "quad_order", True, id="quad_order=true"),
        pytest.param("mc", "seed", "mc.seed", True, id="seed=true"),
        pytest.param("mc", "seed", "mc.seed", -1, id="seed=-1"),
        pytest.param("mc", "n_samples", "mc.n_samples", 2.5, id="n_samples=2.5"),
    ])
    def test_non_numeric_integers_rejected(self, section, key, name, value):
        cfg = base_config()
        if section is None:
            cfg[key] = value
        else:
            cfg[section] = {key: value}
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            validate_config(cfg)

    def test_every_non_numeric_integer_listed(self):
        cfg = base_config(quad_order="many", mc={"n_samples": "lots", "seed": None})
        with pytest.raises(ConfigError) as info:
            validate_config(cfg)
        for name in ("quad_order", "mc.n_samples", "mc.seed"):
            assert f"{name} must be an integer" in str(info.value)

    @pytest.mark.parametrize("overrides, message", [
        ({"mc": 5}, "mc must be an object"),
        ({"solver": 5}, "solver must be an object"),
        ({"schedule": {"levels": 5}}, "schedule.levels must be a list"),
        ({"schedule": {"coupled": 5}}, "schedule.coupled must be an object"),
        ({"schedule": {"coupled": {"h_over_s": "x"}}},
         "schedule.coupled.h_over_s must be a finite number"),
        ({"schedule": {"coupled": {"m_min": "a"}}},
         "schedule.coupled.m_min must be an integer"),
        ({"output_dir": 5}, "output_dir must be a string"),
    ])
    def test_wrongly_typed_sections_rejected(self, overrides, message, tmp_path,
                                             capsys):
        cfg = base_config(**overrides)
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["-q", "solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert message in err

    def test_psor_within_explicit_limit(self):
        # level [100, 8] of example1 (two parameter dimensions) has
        # I*J = 99**2 * 9**2 = 793881, above the limit; [8, 4] is far below
        psor = {"method": "psor"}
        levels = {"levels": [[8, 4], [100, 8]]}
        validate_config(base_config(problem="example1", solver=psor,
                                    schedule={"levels": [[8, 4]]}))
        with pytest.raises(ConfigError, match=f"level 1 has I\\*J = 793881, above "
                                              f".*{EXPLICIT_LIMIT}"):
            validate_config(base_config(problem="example1", solver=psor, schedule=levels))
        # the limit only binds the solver that reads the explicit matrix
        validate_config(base_config(problem="example1", schedule=levels))
        validate_config(base_config(problem="example1", mode="mc", solver=psor,
                                    schedule=levels))

    def test_coefficient_mode_outside_parameter_box(self):
        with pytest.raises(ConfigError, match="coefficient a: mode dimension 1"):
            validate_config(custom_config(
                {"mean": 1.0, "modes": [{"coeff": 1.0, "shape": 1.0, "dim": 1}]}))

    def test_positive_coefficient_accepted(self):
        cfg = validate_config(custom_config(
            {"mean": 3.5, "modes": [{"coeff": -1.0, "shape": 1.0, "dim": 0}]}))
        assert cfg.problem.name == "custom"


class TestValidateConfigRegressions:
    """Inputs the validate_config fuzz found raising something else than ConfigError."""

    @pytest.mark.parametrize("custom_overrides, message", [
        ({"fields": {"a": None, "f": 1.0, "g": 0.0}}, "field a must be a finite number"),
        ({"fields": {"a": {"modes": 3}, "f": 1.0, "g": 0.0}}, "field a modes must be a list"),
        ({"fields": {"a": {"modes": [5]}, "f": 1.0, "g": 0.0}}, "a mode must be an object"),
        ({"fields": {"a": {"mean": {"kind": "polynomial", "terms": [[1.0, 10 ** 30, 0]]}},
                     "f": 1.0, "g": 0.0}}, "polynomial exponent must be an integer"),
        ({"fields": 7}, "fields must be an object"),
        ({"domain": [1.0, 0.0, 0.0, 1.0]}, "needs x0 < x1"),
        ({"domain": [-1e308, 1e308, 0.0, 1.0]}, "finite sides"),
        ({"domain": [0.0, 1.0, 0.0, 1e-20]}, "fewer than 2 cells on the y side"),
        ({"densities": [{"kind": "uniform", "lo": 0.0, "hi": float("inf")}]},
         "uniform hi must be a finite number"),
        ({"densities": [{"kind": "exp-uniform", "lo": 0.0, "hi": 1000.0}]},
         "exp-uniform needs"),
        ({"name": ["x"]}, "custom name must be a string"),
        ({"name": "sub/dir"}, "custom name must be a plain file name, got 'sub/dir'"),
        ({"name": "../x"}, "custom name must be a plain file name"),
        ({"name": ".."}, "custom name must be a plain file name"),
        ({"name": ""}, "custom name must be a plain file name"),
        ({"fields": {"a": 3.0, "f": {"mean": {"kind": "polynomial", "terms": [],
                                              "term": [[1.0, 0, 0]]}}, "g": 0.0}},
         "unknown spatial function key 'term'"),
    ])
    def test_malformed_custom_section(self, custom_overrides, message):
        cfg = custom_config(3.0)
        cfg["custom"].update(custom_overrides)
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)

    @pytest.mark.parametrize("schedule, message", [
        ({"levels": [[10 ** 300, 1]]}, "more than 4194304 nodes"),
        ({"levels": [[float("inf"), 1]]}, "bad schedule level"),
        ({"levels": [{"0": 4, "1": 2}]}, "bad schedule level"),
        ({"coupled": {"h_over_s": 5e-324, "m_max": 2}}, "more than 4194304 nodes"),
        ({"coupled": {"h_over_s": 1e300, "m_max": 2}}, "fewer than 2 cells"),
        ({"coupled": {"h_over_s": float("inf")}}, "h_over_s must be a finite number, got inf"),
        ({"coupled": {"h_over_s": 1.0, "m_max": 10 ** 30}},
         "m_max must be an integer in 1..30"),
        ({"levels": [[8, 10 ** 30]]}, "parameter grid of more than 4194304 nodes"),
        ({"levels": [[8, 2 ** 22]]}, "parameter grid of more than 4194304 nodes"),
        # a float or a string is refused, never truncated or parsed
        ({"levels": [[8.9, 4]]}, "nx must be an integer >= 2, got 8.9"),
        ({"levels": [["8", 4]]}, "nx must be an integer >= 2, got '8'"),
        ({"levels": [[1e300, 1]]}, "nx must be an integer >= 2, got 1e"),
        ({"coupled": {"h_over_s": 1.0, "m_min": 1.9}},
         "schedule.coupled.m_min must be an integer in 0..30, got 1.9"),
    ])
    def test_unbuildable_levels(self, schedule, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(custom_config(3.0, schedule=schedule))

    def test_huge_level_is_quoted_short(self):
        with pytest.raises(ConfigError, match="more than 4194304 nodes") as info:
            validate_config(custom_config(3.0, schedule={"levels": [[10 ** 300, 1]]}))
        message = str(info.value)
        assert "1" + "0" * 36 + "..." in message
        assert "0" * 37 not in message

    def test_bad_level_named_once(self):
        with pytest.raises(ConfigError) as info:
            validate_config(custom_config(3.0, schedule={"levels": [[8.9, "4"]]}))
        message = str(info.value)
        assert message.count("bad schedule level") == 1
        assert "bad schedule level [8.9, '4']: nx must be an integer >= 2, got 8.9; " \
               "cells must be an integer >= 1, got '4'" in message

    def test_long_config_values_are_cut(self):
        with pytest.raises(ConfigError) as info:
            validate_config(base_config(mode="x" * 500, quad_order=[0.5] * 100))
        message = str(info.value)
        assert "got '" + "x" * 36 + "...;" in message
        assert "got " + repr([0.5] * 100)[:37] + "..." in message
        assert len(message) < 200

    def test_huge_integer_option(self):
        with pytest.raises(ConfigError, match="quad_order must be an integer"):
            validate_config(base_config(quad_order=float("inf")))

    def test_quad_order_capped(self):
        # leggauss(q) builds and diagonalizes a q x q matrix; the cap keeps a
        # 2-D tensor rule within MAX_NODES nodes.  Validation only: no rule
        # of either order is built here.
        assert validate_config(base_config(quad_order=2048)).quad_order == 2048
        with pytest.raises(ConfigError, match="quad_order must be an integer in "
                                              "2..2048, got 2049"):
            validate_config(base_config(quad_order=2049))

    def test_coupled_schedule_needs_a_parameter_dimension(self):
        cfg = custom_config(3.0, schedule={"coupled": {"h_over_s": 1.0}})
        cfg["custom"]["densities"] = []
        with pytest.raises(ConfigError, match="schedule.coupled needs a parameter dimension"):
            validate_config(cfg)

    def test_many_parameter_dimensions(self):
        # the ellipticity bound is separable in y: 40 dimensions do not
        # enumerate 2^40 box vertices.  Monte Carlo builds no parameter grid,
        # while a Galerkin run would need 5^40 parameter nodes.
        cfg = custom_config({"mean": 50.0, "modes": [{"coeff": 1.0, "shape": 1.0, "dim": d}
                                                     for d in range(40)]}, mode="mc")
        cfg["custom"]["densities"] = [{"kind": "uniform", "lo": -1.0, "hi": 1.0}] * 40
        assert validate_config(cfg).problem.n_dims == 40
        with pytest.raises(ConfigError, match="parameter grid of more than"):
            validate_config(dict(cfg, mode="sg"))
        cfg["custom"]["fields"]["a"]["mean"] = 39.5
        with pytest.raises(ConfigError, match="not uniformly positive"):
            validate_config(cfg)


def custom_config(a_spec, **overrides):
    """Custom problem on (-1, 1)^2 with y1 ~ U(0, 3) and the given coefficient."""
    cfg = {
        "problem": "custom",
        "custom": {
            "domain": [-1.0, 1.0, -1.0, 1.0],
            "densities": [{"kind": "uniform", "lo": 0.0, "hi": 3.0}],
            "fields": {"a": a_spec, "f": -2.0, "g": -0.05},
        },
        "mode": "sg",
        "schedule": {"levels": [[8, 4]]},
        "solver": {"method": "active-set"},
    }
    cfg.update(overrides)
    return cfg


ILL_POSED_FIELDS = {
    # g = 0.1 lies above the zero Dirichlet data: no function of H^1_0 is >= g
    "obstacle": {"a": {"mean": 1.0, "modes": [{"coeff": 0.5, "shape": 1.0, "dim": 0}]},
                 "f": -2.0, "g": 0.1},
    # a = 16 (x1 - 0.25)^2 - 0.5 + 0.1 y is -0.5 on x1 = 0.25 but 0.5 at every
    # node of a [2, 2] mesh
    "coefficient": {"a": {"mean": {"kind": "polynomial",
                                   "terms": [[16.0, 2, 0], [-8.0, 1, 0], [0.5, 0, 0]]},
                          "modes": [{"coeff": 0.1, "shape": 1.0, "dim": 0}]},
                    "f": -2.0, "g": -0.05},
}
ILL_POSED_MESSAGES = {"obstacle": "obstacle g lies above the zero boundary data",
                      "coefficient": "coefficient a is not uniformly positive"}


def ill_posed_config(kind, **overrides):
    """A custom problem on (0, 1)^2 with y ~ U(0, 1) and the ``kind`` fields
    of ``ILL_POSED_FIELDS``, at level [nx=2, cells=2]."""
    cfg = {"problem": "custom",
           "custom": {"domain": [0.0, 1.0, 0.0, 1.0],
                      "densities": [{"kind": "uniform", "lo": 0.0, "hi": 1.0}],
                      "fields": copy.deepcopy(ILL_POSED_FIELDS[kind])},
           "mode": "sg", "schedule": {"levels": [[2, 2]]},
           "solver": {"method": "active-set"}}
    cfg.update(overrides)
    return cfg


class TestIllPosedData:
    @pytest.mark.parametrize("kind", sorted(ILL_POSED_FIELDS))
    def test_refused(self, kind):
        # both solved to "converged" with residual 0 or 5.6e-17 before
        with pytest.raises(ConfigError, match=ILL_POSED_MESSAGES[kind]):
            validate_config(ill_posed_config(kind))

    def test_obstacle_is_checked_over_the_parameter_box(self):
        # g = -0.1 + 0.2 y is below the boundary data for y < 0.5 only
        cfg = ill_posed_config("obstacle")
        cfg["custom"]["fields"]["g"] = {"mean": -0.1,
                                        "modes": [{"coeff": 0.2, "shape": 1.0, "dim": 0}]}
        with pytest.raises(ConfigError, match="maximum over the parameter box and the "
                                              "boundary nodes is 0.1"):
            validate_config(cfg)

    def test_obstacle_below_the_boundary_data_is_accepted(self):
        # g may rise above 0 inside: x1 (1 - x1) x2 (1 - x2) (1 + y) - 0.01
        # is -0.01 on the boundary; g = 0 touches the data there
        cfg = ill_posed_config("obstacle", schedule={"levels": [[4, 2]]})
        bubble = [[1.0, 1, 1], [-1.0, 2, 1], [-1.0, 1, 2], [1.0, 2, 2]]
        cfg["custom"]["fields"]["g"] = {
            "mean": {"kind": "polynomial", "terms": bubble + [[-0.01, 0, 0]]},
            "modes": [{"coeff": 1.0, "shape": {"kind": "polynomial", "terms": bubble},
                       "dim": 0}]}
        assert validate_config(cfg).problem.name == "custom"
        cfg["custom"]["fields"]["g"] = 0.0
        assert validate_config(cfg).problem.name == "custom"

    def test_positive_coefficient_is_accepted(self):
        # 16 (x1 - 0.25)^2 + 0.5 + 0.1 y >= 0.5 at every point
        cfg = ill_posed_config("coefficient")
        cfg["custom"]["fields"]["a"]["mean"]["terms"][2] = [1.5, 0, 0]
        assert validate_config(cfg).problem.name == "custom"


class TestErrorTable:
    def test_csv_layout(self, tmp_path):
        errs = {"eL2m1": 0.5, "eH1m1": 0.25, "eL2m2": 0.125, "eH1m2": 0.0625}
        rows = [
            TableRow(h=0.5, s=1.0, errors=errs,
                     orders={k: None for k in errs}, iters=3, seconds=0.01),
            TableRow(h=0.25, s=0.5, errors=errs,
                     orders={k: 2.0 for k in errs}, iters=4, seconds=0.02),
        ]
        path = tmp_path / "table.csv"
        ErrorTable(rows=rows).to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == TABLE_HEADER
        first = lines[1].split(",")
        assert first[0] == "0.5"
        assert first[3] == ""          # no order on the first row
        assert lines[2].split(",")[3] == "2.0000"
        assert len(first) == len(TABLE_HEADER.split(","))


class TestRunConvergence:
    def test_errors_decrease_and_orders_fill_in(self, tmp_path):
        cfg = validate_config(base_config(output_dir=str(tmp_path)))
        table, reports = run_convergence(cfg)
        assert len(table.rows) == 2
        r0, r1 = table.rows
        for key in ("eL2m1", "eH1m1", "eL2m2", "eH1m2"):
            assert r1.errors[key] < r0.errors[key]
            assert r0.orders[key] is None
            assert 0.3 < r1.orders[key] < 3.5
        assert (tmp_path / "table.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["levels"]) == 2
        assert all(lv["converged"] for lv in report["levels"])
        # each level carries its per-update trace, one record per update
        for lv in report["levels"]:
            assert lv["errors_seconds"] > 0.0
            assert len(lv["trace"]) == lv["iterations"]
            assert all(r["pcg"] >= 0 and r["rtol"] > 0.0 for r in lv["trace"])

    def test_repeated_level_has_no_order(self, tmp_path):
        # neither h nor s changes between the rows, so there is no order to
        # take, and no log(1) division may warn
        cfg = validate_config(base_config(schedule={"levels": [[4, 2], [4, 2]]},
                                          output_dir=str(tmp_path)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, _ = run_convergence(cfg)
        assert all(order is None for row in table.rows for order in row.orders.values())
        lines = (tmp_path / "table.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            assert [cells[k] for k in header if k.startswith("ord")] == [""] * 4

    def test_table_deterministic_up_to_timings(self, tmp_path):
        cfg1 = validate_config(base_config(output_dir=str(tmp_path / "a")))
        cfg2 = validate_config(base_config(output_dir=str(tmp_path / "b")))
        run_convergence(cfg1)
        run_convergence(cfg2)

        def strip_seconds(path):
            return [line.rsplit(",", 1)[0]
                    for line in path.read_text().splitlines()]

        assert strip_seconds(tmp_path / "a" / "table.csv") == \
            strip_seconds(tmp_path / "b" / "table.csv")

    def test_fused_errors_match_direct_norms(self, tmp_path):
        # the fused error evaluation must agree with composing the
        # reference statistic and the plain norm routine
        from sgobstacle.runner import _solve_level, convergence_errors
        from sgobstacle.stats import exact_statistic, sg_mean

        cfg = validate_config(base_config(output_dir=str(tmp_path)))
        mesh, grid, system, u, report, _ = _solve_level(cfg, cfg.levels[0])
        errs = convergence_errors(mesh, system, u, cfg.problem.exact,
                                  cfg.problem.densities, quad_order=16)
        exact_mean = exact_statistic(cfg.problem.exact, cfg.problem.densities,
                                     moment=1, quad_order=16)
        mean = sg_mean(system, u).values

        def exact_data(x):
            return exact_mean.values(x), np.zeros((x.shape[0], 2))

        direct = (p1_distance(mesh, mean, exact_data)[0]
                  / p1_distance(mesh, np.zeros_like(mean), exact_data)[0])
        assert errs["eL2m1"] == pytest.approx(direct, rel=1e-10)

    def test_unconverged_level_raises_after_writing(self, tmp_path):
        cfg = validate_config(base_config(
            output_dir=str(tmp_path),
            solver={"method": "psor", "tol": 1e-14, "max_iter": 1}))
        with pytest.raises(SolverNotConverged):
            run_convergence(cfg)
        assert (tmp_path / "table.csv").exists()

    def test_custom_problem_has_no_error_table(self, tmp_path):
        cfg = validate_config({
            "problem": "custom",
            "custom": {
                "domain": [0.0, 1.0, 0.0, 1.0],
                "densities": [{"kind": "exp-uniform"}],
                "fields": {"a": {"mean": 1.0,
                                 "modes": [{"coeff": 1.0, "shape": 1.0, "dim": 0}]},
                           "f": -2.0, "g": -1.0},
            },
            "schedule": {"levels": [[4, 2]]},
            "solver": {},
            "output_dir": str(tmp_path),
        })
        with pytest.raises(ConfigError, match="exact"):
            run_convergence(cfg)
        # single-level solves still work, they just skip the error block
        system, u, report, payload = run_single(cfg, 0)
        assert "errors" not in payload and "errors_seconds" not in payload
        assert report.converged


# The four errors of every row of the example tables on levels [4, 8],
# [8, 8] and [16, 8] (quad_order 64, tol 1e-10), recorded from the tensor
# quadrature of u itself; the product-form moments must reproduce them.
PINNED_ERRORS = {
    "example1": [
        (0.36588724417723417, 0.46711938633509875, 0.8226688360918777, 0.771986022363288),
        (0.08164621183707384, 0.23814739644090688, 0.23758986179855843, 0.42758472034306483),
        (0.026506323235444995, 0.12203424253653262, 0.07018098376453727, 0.21962303509743755),
    ],
    "example2": [
        (0.5467344784025979, 0.6074270515439154, 1.370115403258371, 1.0038908118894236),
        (0.13852179753744048, 0.3222132649435107, 0.410967650615485, 0.6017715708048342),
        (0.035312695846037724, 0.16351737488595983, 0.10924400662866131, 0.3181474798609676),
    ],
}


@pytest.mark.parametrize("problem", sorted(PINNED_ERRORS))
def test_error_table_is_pinned(problem):
    cfg = validate_config({"problem": problem,
                           "schedule": {"levels": [[4, 8], [8, 8], [16, 8]]},
                           "solver": {"method": "active-set", "tol": 1e-10},
                           "quad_order": 64})
    table, _ = run_convergence(cfg, write=False)
    got = [tuple(row.errors[k] for k in ("eL2m1", "eH1m1", "eL2m2", "eH1m2"))
           for row in table.rows]
    np.testing.assert_allclose(got, PINNED_ERRORS[problem], rtol=1e-10, atol=0.0)


def test_converge_builds_each_gauss_rule_once(monkeypatch):
    # the hat Gramians and the reference statistics share one cached rule
    # per order: 12 and quad_order points (the preconditioner's means are
    # Gramian sums and take no rule of their own)
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    param.gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    cfg = validate_config({"problem": "example1",
                           "schedule": {"levels": [[4, 8], [8, 8], [16, 8]]},
                           "solver": {"method": "active-set", "tol": 1e-10},
                           "quad_order": 64})
    run_convergence(cfg, write=False)
    assert sorted(calls) == [12, 64]


def test_errors_build_the_spatial_quadrature_once(monkeypatch):
    # the values and the gradients of a level's errors share one set of
    # quadrature points and one triangle geometry
    from sgobstacle.runner import _solve_level, convergence_errors

    cfg = validate_config({"problem": "example1", "schedule": {"levels": [[4, 2]]},
                           "quad_order": 8})
    mesh, _, system, u, _, _ = _solve_level(cfg, cfg.levels[0])
    calls = []
    for name in ("_reference_rule", "_triangle_geometry"):
        def counted(*args, name=name, fn=getattr(fem, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(fem, name, counted)
    convergence_errors(mesh, system, u, cfg.problem.exact, cfg.problem.densities, 8)
    assert sorted(calls) == ["_reference_rule", "_triangle_geometry"]


class TestRunSingle:
    def test_writes_fields_and_report(self, tmp_path):
        cfg = validate_config(base_config(output_dir=str(tmp_path)))
        system, u, report, payload = run_single(cfg, 0)
        assert report.converged
        out = {p.name for p in tmp_path.iterdir()}
        assert "example2_level0_mean.csv" in out
        assert "example2_level0_variance.csv" in out
        assert "example2_level0.vtk" in out
        assert "example2_level0_report.json" in out
        assert payload["errors"]["eL2m1"] > 0
        assert payload["errors_seconds"] > 0.0
        # level 0 converges at its cold start; level 1 takes active-set updates
        _, _, report, _ = run_single(cfg, 1)
        written = json.loads((tmp_path / "example2_level1_report.json").read_text())
        trace = written["solver"]["trace"]
        assert len(trace) == report.iterations >= 1
        assert trace[-1]["tight"] and trace[-1]["residual"] == report.residual

    def test_level_out_of_range(self, tmp_path):
        cfg = validate_config(base_config(output_dir=str(tmp_path)))
        with pytest.raises(ConfigError, match="level"):
            run_single(cfg, 7)


class TestRunMC:
    def test_writes_moment_fields_and_timing(self, tmp_path):
        cfg = validate_config(base_config(
            mode="mc", output_dir=str(tmp_path),
            mc={"n_samples": 8, "seed": 1, "level": 0}))
        result, payload = run_mc(cfg)
        assert result.n_failed == 0
        assert payload["n_samples"] == 8
        report = json.loads((tmp_path / "example2_mc_report.json").read_text())
        assert report["solver_iterations"] == result.solver_iterations
        timing = (tmp_path / "example2_mc_timing.csv").read_text().splitlines()
        assert timing[0] == "phase,seconds"
        assert {row.split(",")[0] for row in timing[1:]} == \
            {"setup", "samples", "total"}
        assert (tmp_path / "example2_mc_mean.csv").exists()
        assert (tmp_path / "example2_mc_variance.csv").exists()

    def test_both_mode_reports_comparison(self, tmp_path):
        cfg = validate_config(base_config(
            mode="both", output_dir=str(tmp_path),
            mc={"n_samples": 16, "seed": 0, "level": 0}))
        _, payload = run_mc(cfg)
        assert payload["sg_converged"]
        assert payload["sg_seconds"] > 0
        # the solution peaks around 8.5; with 16 samples the MC noise is
        # order one, so this only guards against scale or layout mixups
        assert payload["mean_max_gap"] < 2.0

    def test_non_affine_parameterization_runs_mc(self, tmp_path):
        cfg = validate_config(base_config(
            mode="mc", parameterization="xi", output_dir=str(tmp_path),
            mc={"n_samples": 4, "seed": 0, "level": 0}))
        result, _ = run_mc(cfg)
        assert result.accumulator.n == 4


class TestCLI:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_info_exits_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        assert cli_main(["-q", "info", path]) == 0
        out = capsys.readouterr().out
        assert "example2" in out
        assert "IJ=" in out

    def test_converge_exits_zero_and_prints_table(self, tmp_path, capsys):
        path = self.write_config(tmp_path,
                                 base_config(output_dir=str(tmp_path / "out")))
        assert cli_main(["-q", "converge", path]) == 0
        out = capsys.readouterr().out
        assert "eL2m1" in out
        assert (tmp_path / "out" / "table.csv").exists()

    def test_output_dir_override(self, tmp_path):
        path = self.write_config(tmp_path,
                                 base_config(output_dir=str(tmp_path / "orig")))
        override = tmp_path / "override"
        assert cli_main(["-q", "solve", path, "--level", "0",
                         "--output-dir", str(override)]) == 0
        assert (override / "example2_level0_mean.csv").exists()
        assert not (tmp_path / "orig").exists()

    def test_config_error_exits_one(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(mode="hybrid"))
        assert cli_main(["-q", "converge", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli_main(["-q", "info", missing]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["-q", "info", str(bad)]) == 1
        # past Python's digit limit for parsing an int, json.load raises a
        # ValueError that is not a JSONDecodeError; without the limit the
        # level is refused as too large
        huge = tmp_path / "huge.json"
        huge.write_text('{"schedule": {"levels": [[' + "1" * 5000 + ', 1]]}}')
        assert cli_main(["-q", "info", str(huge)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        assert cli_main(["-q", "info", str(listed)]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_solver_failure_exits_two(self, tmp_path, capsys):
        cfg = base_config(output_dir=str(tmp_path / "out"),
                          solver={"method": "psor", "tol": 1e-14, "max_iter": 1})
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "converge", path]) == 2
        assert "solver failure" in capsys.readouterr().err

    def test_mc_sample_failures_exit_two(self, tmp_path, capsys):
        cfg = {"problem": "example1", "mode": "mc",
               "schedule": {"levels": [[8, 2]]},
               "solver": {"method": "psor", "tol": 1e-14, "max_iter": 1},
               "mc": {"n_samples": 8, "seed": 0, "level": 0},
               "output_dir": str(tmp_path / "out")}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "mc", path]) == 2
        assert capsys.readouterr().err.startswith(
            "solver failure: 8 of 8 sample solves failed to converge")

    def test_unconverged_galerkin_half_exits_two_after_writing(self, tmp_path, capsys):
        # mode both: the Monte Carlo half succeeds, the Galerkin half stops
        # after one active-set update; the report is written all the same
        cfg = {"problem": "example1", "mode": "both",
               "schedule": {"levels": [[8, 4]]},
               "solver": {"method": "active-set", "max_iter": 1},
               "mc": {"n_samples": 16, "seed": 0, "level": 0,
                      "solver": {"method": "active-set"}},
               "output_dir": str(tmp_path / "out")}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "mc", path]) == 2
        assert capsys.readouterr().err.startswith(
            "solver failure: Galerkin level 0 did not converge")
        report = json.loads((tmp_path / "out" / "example1_mc_report.json").read_text())
        assert report["sg_converged"] is False
        assert report["n_failed"] == 0

    def test_mc_without_parameter_dimensions(self, tmp_path):
        # with no densities every sample is the one deterministic problem
        # and draws an empty parameter row: the run exits 0, its variance is
        # zero and its mean is that solve
        cfg = {"problem": "custom", "mode": "mc", "schedule": {"levels": [[5, 1]]},
               "solver": {"method": "active-set", "tol": 1e-12},
               "custom": {"domain": [0.0, 1.0, 0.0, 1.0], "densities": [],
                          "fields": {"a": 1.0, "f": -4.0, "g": -0.05}},
               "mc": {"n_samples": 6, "seed": 0, "level": 0},
               "output_dir": str(tmp_path / "out")}
        assert cli_main(["-q", "mc", self.write_config(tmp_path, cfg)]) == 0

        def column(name):
            rows = (tmp_path / "out" / f"custom_mc_{name}.csv").read_text().splitlines()
            return np.array([float(r.split(",")[2]) for r in rows[1:]])

        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 5)
        ii = mesh.interior
        op = P1Operator(mesh)
        ones = np.ones(len(op.points))
        K = op.interior.csr(op.interior.data(op.integrals(ones)))
        u, _ = active_set_solve(SparseObstacleSystem(K, op.load(-4.0 * ones)[ii]),
                                np.full(ii.size, -0.05), SolverConfig(tol=1e-12))
        assert np.any(u == -0.05)  # the obstacle binds
        assert np.all(np.abs(column("variance")) <= 1e-30)  # zero up to roundoff
        np.testing.assert_allclose(column("mean")[ii], u, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("command", ["solve", "converge"])
    def test_galerkin_subcommands_require_sg_mode(self, tmp_path, capsys, command):
        # PSOR above the explicit limit is a valid Monte Carlo config; run as
        # a Galerkin solve it would need the explicit matrix the limit forbids
        cfg = {"problem": "example1", "mode": "mc",
               "schedule": {"levels": [[100, 8]]},
               "solver": {"method": "psor"}, "output_dir": str(tmp_path / "out")}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command} subcommand needs mode "
                              "'sg' or 'both'")
        assert not (tmp_path / "out").exists()

    def test_single_mc_sample_exits_one(self, tmp_path, capsys):
        # one sample has no variance estimate: refused before the run starts
        cfg = {"problem": "example1", "mode": "mc", "schedule": {"levels": [[4, 2]]},
               "mc": {"n_samples": 1}, "output_dir": str(tmp_path / "out")}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "mc", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "mc.n_samples must be an integer >= 2, got 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_huge_parameter_grid_exits_one(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"problem": "example2",
                                            "schedule": {"levels": [[4, 10 ** 30]]}})
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "parameter grid" in err
        assert "Traceback" not in err

    def test_psor_above_explicit_limit_exits_one(self, tmp_path, capsys):
        cfg = {"problem": "example1", "mode": "sg",
               "schedule": {"levels": [[100, 8]]},
               "solver": {"method": "psor"}, "output_dir": str(tmp_path / "out")}
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert f"limit of {EXPLICIT_LIMIT}" in err
        assert not (tmp_path / "out").exists()

    def test_non_elliptic_coefficient_exits_one(self, tmp_path, capsys):
        # a = 1 - y1 with y1 ~ U(0, 3) changes sign on the parameter box;
        # solving it anyway gives a "converged" run with every node active
        cfg = custom_config(
            {"mean": 1.0, "modes": [{"coeff": -1.0, "shape": 1.0, "dim": 0}]},
            output_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert "not uniformly positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", sorted(ILL_POSED_FIELDS))
    def test_ill_posed_data_exits_one(self, tmp_path, capsys, kind):
        cfg = ill_posed_config(kind, output_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert ILL_POSED_MESSAGES[kind] in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["sub/dir", "../x"])
    def test_custom_name_with_directory_part_exits_one(self, tmp_path, capsys, name):
        # the name is part of the output file names: a directory in it
        # failed after the solve, or wrote outside output_dir
        cfg = custom_config(3.0, output_dir=str(tmp_path / "out"))
        cfg["custom"]["name"] = name
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: custom name must be a plain file name")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_custom_name_too_long_for_its_files_exits_one(self, tmp_path, capsys):
        # "<name>_level0_variance.csv" must fit 255 bytes: the name used to
        # pass validation, solve the level and die writing the first field
        cfg = custom_config(3.0, output_dir=str(tmp_path / "out"))
        cfg["schedule"] = {"levels": [[4, 1]]}
        cfg["custom"]["name"] = "x" * 300
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: problem name 'xxx")
        assert "320 bytes, above the 255-byte file name limit" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        # the longest name that fits is solved and written
        cfg["custom"]["name"] = "x" * 235
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 0
        assert (tmp_path / "out" / ("x" * 235 + "_level0_variance.csv")).exists()
        cfg["custom"]["name"] = "x" * 236
        with pytest.raises(ConfigError, match="256 bytes"):
            validate_config(cfg)

    def test_custom_name_the_file_system_cannot_encode_exits_one(self, tmp_path, capsys):
        # a lone surrogate is valid JSON but no file name: it used to solve
        # and die writing the first field with a UnicodeEncodeError
        cfg = custom_config(3.0, output_dir=str(tmp_path / "out"))
        cfg["custom"]["name"] = "a\ud800"
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: custom name must be a plain file name")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_file_exits_one(self, tmp_path, capsys):
        # a directory where an output file goes fails after the solve
        out = tmp_path / "out"
        (out / "example2_level0_mean.csv").mkdir(parents=True)
        path = self.write_config(tmp_path, base_config(output_dir=str(out)))
        assert cli_main(["-q", "solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: [Errno 21] Is a directory")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["converge", "solve", "mc"])
    def test_output_dir_that_is_a_file_exits_one(self, tmp_path, capsys, command):
        # the output directory is made before the solve, so a path that
        # cannot be one fails at once as a config error
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = base_config(mode="both", output_dir=str(taken),
                          mc={"n_samples": 4, "seed": 0, "level": 0})
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output_dir '{taken}'")
        assert "Traceback" not in err
        assert taken.read_text() == ""

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        cfg = base_config(mode="mc", output_dir=str(tmp_path / "out"),
                          mc={"n_samples": 4, "seed": -1, "level": 0})
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "mc", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: mc.seed must be an integer >= 0, got -1")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["active-set", "psor"])
    def test_custom_problem_without_densities_solves(self, tmp_path, method):
        # no densities: deterministic data, one parameter node (J = 1)
        cfg = custom_config(3.0, output_dir=str(tmp_path / "out"),
                            solver={"method": method})
        cfg["custom"]["densities"] = []
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "custom_level0_report.json").read_text())
        assert report["J"] == 1 and report["solver"]["converged"]
        variance = np.loadtxt(out / "custom_level0_variance.csv", delimiter=",",
                              skiprows=1)[:, 2]
        assert variance.size == 81 and not variance.any()

    def test_wide_exp_uniform_solves(self, tmp_path):
        # exp-uniform bounds -3 and 3 lie in [-700, 700], so the config is
        # valid and its level solves
        cfg = custom_config({"mean": 1.0, "modes": [{"coeff": 1.0, "shape": 1.0, "dim": 0}]},
                            output_dir=str(tmp_path / "out"))
        cfg["custom"]["densities"] = [{"kind": "exp-uniform", "lo": -3.0, "hi": 3.0}]
        validate_config(cfg)
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "solve", path]) == 0
        report = json.loads((tmp_path / "out" / "custom_level0_report.json").read_text())
        assert report["solver"]["converged"]

    def test_mc_subcommand_requires_mc_mode(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        assert cli_main(["-q", "mc", path]) == 1
        cfg = base_config(mode="mc", output_dir=str(tmp_path / "out"),
                          mc={"n_samples": 4, "seed": 0, "level": 0})
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["-q", "mc", path]) == 0


# -- fuzzing validate_config ---------------------------------------------------

_FUZZ_BASES = [
    {
        "problem": "custom", "mode": "both", "parameterization": "exp",
        "schedule": {"levels": [[4, 2], [6, 1]]},
        "solver": {"method": "active-set", "omega": 1.5, "tol": 1e-8, "max_iter": None},
        "mc": {"n_samples": 8, "seed": 0, "level": 1, "solver": {"method": "psor"}},
        "quad_order": 8, "output_dir": "out",
        "custom": {
            "name": "c", "domain": [0.0, 1.0, 0.0, 1.0],
            "densities": [{"kind": "uniform", "lo": 1.0, "hi": 2.0},
                          {"kind": "exp-uniform", "lo": -1.0, "hi": 1.0}],
            "fields": {
                "a": {"mean": {"kind": "constant", "value": 2.0},
                      "modes": [{"coeff": 0.5, "dim": 0,
                                 "shape": {"kind": "polynomial", "terms": [[1.0, 1, 0]]}},
                                {"coeff": 0.1, "shape": 1.0, "dim": 1}]},
                "f": 1.0,
                "g": {"mean": -1.0, "modes": []},
            },
        },
    },
    {
        "problem": "example1", "mode": "mc", "parameterization": "xi",
        "schedule": {"coupled": {"h_over_s": 1.0, "m_min": 1, "m_max": 2}},
        "solver": {"method": "psor", "omega": 1.2},
        "mc": {"n_samples": 4},
    },
]


def _paths(value, prefix=()):
    """Every key path into nested dicts and lists, parents before children."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(cfg, path, new):
    """Set ``cfg[path] = new`` if the path still exists."""
    node = cfg
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if (isinstance(node, dict) and isinstance(key, str)
            or isinstance(node, list) and isinstance(key, int) and key < len(node)):
        node[key] = new


_json_scalars = (st.none() | st.booleans() | st.integers(-3, 12)
                 | st.sampled_from([2 ** 31, 2 ** 63, 10 ** 30, -10 ** 30])
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.text(max_size=6)
                 | st.sampled_from(["uniform", "exp-uniform", "constant", "polynomial",
                                    "psor", "active-set", "sg", "mc", "exp", "xi",
                                    "example1", "example2", "custom"]))
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["kind", "lo", "hi", "mean"]),
                      children, max_size=3),
    max_leaves=8)


@st.composite
def _fuzzed_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    paths = list(_paths(cfg))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4)):
        _replace(cfg, path, draw(_json_values))
    if draw(st.booleans()):
        cfg[draw(st.text(max_size=6))] = draw(_json_values)
    return draw(st.sampled_from([cfg, draw(_json_values)]))


@st.composite
def _fuzzed_solvers(draw):
    cfg = copy.deepcopy(_FUZZ_BASES[0])
    values = _json_scalars | st.sampled_from([1, 7, 1e-9, 0.5, 1.9])
    for key in draw(st.lists(st.sampled_from(sorted(cfg["solver"])), min_size=1, max_size=3)):
        cfg["solver"][key] = draw(values)
    return cfg


def _assert_usable_solver(solver):
    for value in (solver.omega, solver.tol):
        assert type(value) in (int, float) and math.isfinite(value)
    assert solver.max_iter is None or type(solver.max_iter) is int and solver.max_iter >= 1


class TestValidateConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_fuzzed_configs())
    def test_only_config_errors_escape(self, cfg):
        # any JSON-like value in any section or key either validates or is
        # refused with ConfigError, never another exception; solver options
        # that validate are usable as they are
        try:
            parsed = validate_config(cfg)
        except ConfigError:
            return
        for solver in (parsed.solver, parsed.mc_solver):
            if solver is not None:
                _assert_usable_solver(solver)

    @settings(max_examples=200, deadline=None)
    @given(_fuzzed_solvers())
    def test_accepted_solver_options_are_usable(self, cfg):
        # few fully fuzzed configs validate at all, so the solver section
        # gets its own fuzz on an otherwise valid config
        try:
            parsed = validate_config(cfg)
        except ConfigError:
            return
        _assert_usable_solver(parsed.solver)

    def test_bases_are_valid(self):
        for cfg in _FUZZ_BASES:
            validate_config(copy.deepcopy(cfg))
