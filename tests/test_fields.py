import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgobstacle.fields import AffineField, bounds_check
from sgobstacle.param import Density1D, draw

E = np.e
EY = (E - 1.0 / E) / 2.0


def one(x):
    return np.ones(x.shape[0])


def two_fields():
    a = AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)])
    densities = (Density1D.exp_uniform(), Density1D.exp_uniform())
    return a, densities


class TestAffineField:
    def test_evaluate(self):
        a = AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)])
        x = np.array([[0.3, -0.2], [1.0, 1.0]])
        assert_allclose(a.evaluate(x, np.array([0.5, 2.0])), [5.5, 5.5])

    def test_spatially_varying_mode(self):
        a = AffineField.build(lambda x: x[:, 0], [(3.0, lambda x: x[:, 1], 0)])
        x = np.array([[2.0, 0.5]])
        assert a.evaluate(x, np.array([4.0]))[0] == pytest.approx(2.0 + 3.0 * 0.5 * 4.0)

    def test_n_dims(self):
        a, _ = two_fields()
        assert a.n_dims == 2
        assert AffineField.build(1.0).n_dims == 0

    def test_terms_combine_modes(self):
        a = AffineField.build(0.5, [(1.0, one, 0), (2.0, lambda x: x[:, 0], 0)])
        x = np.array([[3.0, 0.0]])
        assert_allclose(a.terms(x, 2), [[0.5], [1.0 + 6.0], [0.0]])
        with pytest.raises(ValueError, match="outside the 0 parameter dimensions"):
            a.terms(x, 0)


class TestBounds:
    def test_known_range(self):
        # a = 1 + y1 + 2 y2 with y in (1/e, e)^2 ranges over (1 + 3/e, 1 + 3e)
        a, densities = two_fields()
        supports = [rho.support for rho in densities]
        b = bounds_check(a, supports, np.zeros((1, 2)))
        assert b.lo == pytest.approx(2.103638323514327, rel=1e-12)
        assert b.hi == pytest.approx(9.154845485377136, rel=1e-12)

    def test_matches_vertex_enumeration(self):
        # the field is affine in y, so its extremes over the box sit at the
        # vertices; two modes share dimension 0
        a = AffineField.build(lambda x: 2.0 + x[:, 0],
                              [(0.5, lambda x: x[:, 1], 0), (-0.7, lambda x: x[:, 0] ** 2, 0),
                               (1.3, lambda x: np.sin(3.0 * x[:, 0]), 2)])
        supports = [(0.2, 1.7), (-1.0, 2.0), (-0.5, 0.5)]
        pts = np.random.default_rng(4).uniform(-1, 1, (30, 2))
        vertex_vals = [a.evaluate(pts, np.array([supports[d][(v >> d) & 1] for d in range(3)]))
                       for v in range(8)]
        b = bounds_check(a, supports, pts)
        assert b.lo == pytest.approx(min(v.min() for v in vertex_vals), rel=1e-13)
        assert b.hi == pytest.approx(max(v.max() for v in vertex_vals), rel=1e-13)

    def test_bounds_bracket_samples(self):
        a = AffineField.build(lambda x: 1.0 + x[:, 0] ** 2,
                              [(0.5, lambda x: x[:, 1], 0),
                               (-0.3, lambda x: x[:, 0] * x[:, 1], 1)])
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (40, 2))
        supports = [(0.2, 1.7), (-1.0, 2.0)]
        b = bounds_check(a, supports, pts)
        for _ in range(200):
            y = np.array([rng.uniform(*s) for s in supports])
            vals = a.evaluate(pts, y)
            assert vals.min() >= b.lo - 1e-12
            assert vals.max() <= b.hi + 1e-12

    def test_mode_outside_box_rejected(self):
        a, _ = two_fields()
        with pytest.raises(ValueError):
            bounds_check(a, [(0.0, 1.0)], np.zeros((1, 2)))


class TestScenarios:
    def test_deterministic_in_seed_and_index(self):
        # row i of a run's draws depends only on the seed and on i
        _, densities = two_fields()
        Y = draw(densities, np.random.default_rng(42), 10)
        assert Y.shape == (10, 2)
        assert_allclose(draw(densities, np.random.default_rng(42), 8)[7], Y[7], rtol=0)
        assert not np.allclose(Y[7], Y[8])
        assert not np.allclose(draw(densities, np.random.default_rng(43), 8)[7], Y[7])

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_rows_do_not_depend_on_the_block_split(self, n_dims):
        # 37 rows and then 63 from one stream are the 100 rows of one call
        densities = (Density1D.exp_uniform(), Density1D.uniform(-0.5, 2.0))[:n_dims]
        whole = draw(densities, np.random.default_rng(0), 100)
        rng = np.random.default_rng(0)
        split = np.vstack([draw(densities, rng, 37), draw(densities, rng, 63)])
        assert np.array_equal(split, whole)

    def test_no_densities_draw_empty_rows(self):
        rng = np.random.default_rng(0)
        assert draw((), rng, 5).shape == (5, 0)
        # and take no doubles from the stream
        assert rng.random() == np.random.default_rng(0).random()

    def test_sample_mean_near_expectation(self):
        _, densities = two_fields()
        draws = draw(densities, np.random.default_rng(9), 4000)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - EY) < 4 * se)
