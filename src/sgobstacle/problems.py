"""Built-in obstacle problems and the field registry for custom configs.

Both built-in problems have two parameter dimensions y_k = exp(xi_k) with
xi_k uniform on (-1, 1), manufactured exact solutions with a circular
contact set, and Dirichlet data taken from the exact solution (which is
nonzero on the boundary of the domain).  Every problem, built-in or custom,
is affine in y.  The coordinate in which the Galerkin hats are piecewise
linear, y or the xi of the densities, is a choice of the discretization,
not of the problem: the experiment's ``parameterization`` makes it (see
``runner.ExperimentConfig`` and ``param.ParamGrid``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import integer, known_keys, number, shown
from .fem import SpatialFunction
from .fields import AffineField
from .param import Density1D
from .stats import ParametricFunction

__all__ = ["Problem", "get_problem", "example1", "example2", "spatial_from_spec",
           "density_from_spec", "problem_from_config"]

SPAN = np.e - 1.0 / np.e  # width of the support (1/e, e) of y = exp(xi)


@dataclass(frozen=True)
class Problem:
    name: str
    rect: tuple[float, float, float, float]
    densities: tuple[Density1D, ...]
    fields: dict  # 'a', 'f', 'g' -> AffineField
    dirichlet: Callable | None
    exact: ParametricFunction | None
    h_over_s: float | None = None  # default coupling constant for h = c * s

    @property
    def n_dims(self) -> int:
        return len(self.densities)


def _rho(x):
    return x[:, 0] ** 2 + x[:, 1] ** 2


def example1() -> Problem:
    """Random diffusion coefficient, constant source, zero obstacle.

    a = 1 + y1 + 2 y2, f = -2, g = 0 on (-1.5, 1.5)^2 with y_k = exp(xi_k);
    the exact solution has contact set {|x| <= 1} and scales like
    1 / (1 + y1 + 2 y2).
    """

    def w_profile(x):
        rho = _rho(x)
        out = np.zeros(x.shape[0])
        outside = rho > 1.0
        r = rho[outside]
        out[outside] = 0.5 * (r - np.log(r) - 1.0)
        return out

    def w_grad(x):
        rho = _rho(x)
        out = np.zeros_like(x)
        outside = rho > 1.0
        out[outside] = x[outside] * (1.0 - 1.0 / rho[outside])[:, None]
        return out

    def inv_denom(y):
        return 1.0 / (1.0 + y[..., 0] + 2.0 * y[..., 1])

    exact = ParametricFunction(space=w_profile, param=inv_denom, space_grad=w_grad)
    return Problem(
        name="example1", rect=(-1.5, 1.5, -1.5, 1.5),
        densities=(Density1D.exp_uniform(), Density1D.exp_uniform()),
        fields={"a": AffineField.build(1.0, [(1.0, 1.0, 0), (2.0, 1.0, 1)]),
                "f": AffineField.build(-2.0),
                "g": AffineField.build(0.0)},
        dirichlet=exact.value, exact=exact, h_over_s=3.0 / (2.0 * SPAN),
    )


def example2() -> Problem:
    """Unit coefficient, random source, zero obstacle.

    a = 1, f = F(x) (y1 + 2 y2) on (-1, 1)^2 with contact radius r0 = 0.7;
    the exact solution is (rho - r0^2)^2 (y1 + 2 y2) outside the contact set.
    """
    r0sq = 0.49

    def f_profile(x):
        rho = _rho(x)
        return np.where(rho <= r0sq,
                        8.0 * r0sq * (rho - 1.0 - r0sq),
                        -8.0 * (2.0 * rho - r0sq))

    def u_profile(x):
        return np.maximum(_rho(x) - r0sq, 0.0) ** 2

    def u_profile_grad(x):
        return 4.0 * np.maximum(_rho(x) - r0sq, 0.0)[:, None] * x

    def scale(y):
        return y[..., 0] + 2.0 * y[..., 1]

    exact = ParametricFunction(space=u_profile, param=scale, space_grad=u_profile_grad)
    return Problem(
        name="example2", rect=(-1.0, 1.0, -1.0, 1.0),
        densities=(Density1D.exp_uniform(), Density1D.exp_uniform()),
        fields={"a": AffineField.build(1.0),
                "f": AffineField.build(0.0, [(1.0, f_profile, 0), (2.0, f_profile, 1)]),
                "g": AffineField.build(0.0)},
        dirichlet=exact.value, exact=exact, h_over_s=1.0 / SPAN,
    )


_BUILTINS = {"example1": example1, "example2": example2}

MAX_EXPONENT = 64  # largest power of x1 or x2 in a polynomial spec


def get_problem(name: str) -> Problem:
    if name not in _BUILTINS:
        raise KeyError(f"unknown problem {name!r}; built-ins: {sorted(_BUILTINS)}")
    return _BUILTINS[name]()


def _entries(spec, what: str, length: int | None = None) -> list:
    if not isinstance(spec, list) or (length is not None and len(spec) != length):
        want = "a list" if length is None else f"a list of {length} entries"
        raise ValueError(f"{what} must be {want}, got {shown(spec)}")
    return spec


def spatial_from_spec(spec) -> SpatialFunction:
    """Spatial function registry for config files.

    Accepts a bare number (constant) or a dict:
      {"kind": "constant", "value": v}
      {"kind": "polynomial", "terms": [[c, p, q], ...]}  for sum c x1^p x2^q
    Numbers must be finite and exponents integers in 0..MAX_EXPONENT; any
    other spec, or a key the kind does not take, raises ValueError.
    """
    if not isinstance(spec, dict):
        return SpatialFunction.constant(number(spec, "a constant spatial function"))
    if "kind" not in spec:
        raise ValueError(f"bad spatial function spec {shown(spec)}")
    kind = spec["kind"]
    if kind == "constant":
        known_keys(spec, ("kind", "value"), "spatial function")
        return SpatialFunction.constant(number(spec.get("value"), "constant value"))
    if kind == "polynomial":
        known_keys(spec, ("kind", "terms"), "spatial function")
        terms = [(number(c, "polynomial coefficient"),
                  integer(p, "polynomial exponent", 0, MAX_EXPONENT),
                  integer(q, "polynomial exponent", 0, MAX_EXPONENT))
                 for c, p, q in (_entries(t, "polynomial term", 3)
                                 for t in _entries(spec.get("terms"), "polynomial terms"))]

        def values(x, terms=tuple(terms)):
            out = np.zeros(x.shape[0])
            for c, p, q in terms:
                out += c * x[:, 0] ** p * x[:, 1] ** q
            return out

        return SpatialFunction(values=values)
    raise ValueError(f"unknown spatial function kind {shown(kind)}")


def density_from_spec(spec) -> Density1D:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"bad density spec {shown(spec)}")
    kind = spec["kind"]
    known_keys(spec, ("kind", "lo", "hi"), "density")
    if kind == "uniform":
        return Density1D.uniform(number(spec.get("lo"), "uniform lo"),
                                 number(spec.get("hi"), "uniform hi"))
    if kind == "exp-uniform":
        lo = number(spec.get("lo", -1.0), "exp-uniform lo")
        hi = number(spec.get("hi", 1.0), "exp-uniform hi")
        if not -700.0 <= lo < hi <= 700.0:
            raise ValueError(f"exp-uniform needs -700 <= lo < hi <= 700, got ({lo}, {hi})")
        return Density1D.exp_uniform(lo, hi)
    raise ValueError(f"unknown density kind {shown(kind)}")


def _affine_from_spec(spec, what: str) -> AffineField:
    if not isinstance(spec, dict):
        return AffineField.build(number(spec, f"field {what}"))
    known_keys(spec, ("mean", "modes"), f"field {what}")
    mean = spatial_from_spec(spec.get("mean", 0.0))
    modes = []
    for m in _entries(spec.get("modes", []), f"field {what} modes"):
        if not isinstance(m, dict):
            raise ValueError(f"field {what}: a mode must be an object, got {shown(m)}")
        known_keys(m, ("coeff", "shape", "dim"), f"field {what} mode")
        modes.append((number(m.get("coeff"), f"field {what} mode coeff"),
                      spatial_from_spec(m.get("shape")),
                      integer(m.get("dim"), f"field {what} mode dim")))
    return AffineField.build(mean, modes)


def _encodes_as_file_name(name: str) -> bool:
    """Whether the file system encoding takes ``name`` (a lone surrogate it cannot)."""
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        return False
    return True


def problem_from_config(custom: dict) -> Problem:
    """Assemble a custom problem from its config section.

    Custom problems have no exact solution; convergence errors are not
    available for them.  The name becomes part of output file names, so it
    must be a plain file name (no directory part).
    """
    if not isinstance(custom, dict):
        raise ValueError(f"custom must be an object, got {shown(custom)}")
    known_keys(custom, ("domain", "densities", "fields", "name"), "custom")
    rect = tuple(number(v, "domain bound")
                 for v in _entries(custom.get("domain"), "domain [x0, x1, y0, y1]", 4))
    if not (0.0 < rect[1] - rect[0] < np.inf and 0.0 < rect[3] - rect[2] < np.inf):
        raise ValueError(f"domain [x0, x1, y0, y1] needs x0 < x1 and y0 < y1 with "
                         f"finite sides, got {rect}")
    densities = tuple(density_from_spec(d)
                      for d in _entries(custom.get("densities"), "densities"))
    fields = custom.get("fields")
    if not isinstance(fields, dict):
        raise ValueError(f"fields must be an object, got {shown(fields)}")
    known_keys(fields, ("a", "f", "g"), "custom.fields")
    fields = {key: _affine_from_spec(fields.get(key), key) for key in ("a", "f", "g")}
    name = custom.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError(f"custom name must be a string, got {shown(name)}")
    if (name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name
            or not _encodes_as_file_name(name)):
        raise ValueError(f"custom name must be a plain file name, got {shown(name)}")
    return Problem(name=name, rect=rect, densities=densities, fields=fields,
                   dirichlet=None, exact=None, h_over_s=None)
