"""Tensor-product Galerkin system for the stochastic obstacle problem.

The fully discrete problem couples a P1 space on the mesh (I interior nodes)
with the multilinear hat basis on the parameter grid (J nodes).  The system
matrix is a sum of Kronecker products G_k ⊗ K_k and is kept in factored
form: each parametric Gramian G_k as its 1-D factors (``param.Gramians``).
Matrix-vector products work blockwise on (J, I) reshapes of flat vectors
with index j*I + i, K_k on the rows and G_k one parameter dimension at a
time (``param.kron_apply``).  The explicit sparse sum is built only when
projected SOR asks for it (``SGSystem.explicit``).  Conjugate gradients are
preconditioned with the best Kronecker approximation G̃ ⊗ K̄ of the sum
(Ullmann, SISC 2010), whose parametric factor is inverted in the doubly
orthogonal hat basis (Babuška, Tempone and Zouraris, SINUM 2004).  The
same preconditioner serves every active-set update, on full-length vectors
(``reduced_precond``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import P1Operator
from .fields import AffineField, affine_factors, lift
from .mesh import Mesh
from .param import Gramians, ParamGrid, assemble_gramians, kron_apply

__all__ = ["SGSystem", "assemble_sg"]

# Largest I*J for which ``SGSystem.explicit()`` builds the Kronecker matrix;
# projected SOR needs that matrix, so a PSOR level above it is a config error.
EXPLICIT_LIMIT = 500_000


@dataclass
class SGSystem:
    """Factored Galerkin LCP data: find u >= obs with Au - b >= 0 complementary.

    Attributes
    ----------
    K0, Kk : CSR stiffness factors over interior nodes, all on K0's pattern
        (Kk entries may be None for parameter dimensions the coefficient
        does not touch); K0 pairs with the Gramian G_0 and Kk[d] with G_{d+1}.
    gram : parametric Gramians as 1-D factors, with the basis integrals.
    b : flat right-hand side of length I*J, parameter-major.
    obs : flat obstacle values at the tensor nodes.
    boundary_values : (J, n_boundary) Dirichlet data, one row per parameter node.
    A : explicit CSR matrix, None until the first ``explicit()`` call builds
        it (and for good when I*J exceeds ``EXPLICIT_LIMIT``).
    """

    mesh: Mesh
    grid: ParamGrid
    K0: sp.csr_array
    Kk: list
    gram: Gramians
    b: np.ndarray
    obs: np.ndarray
    boundary_values: np.ndarray
    A: sp.csr_array | None = None

    def __post_init__(self):
        self._precond = None

    @property
    def n_spatial(self) -> int:
        return self.K0.shape[0]

    @property
    def n_param(self) -> int:
        return len(self.gram.g0)

    @property
    def n(self) -> int:
        return self.n_spatial * self.n_param

    def _terms(self):
        """(k, K_k) for every stiffness term that is present."""
        return [(k, K) for k, K in enumerate([self.K0, *self.Kk]) if K is not None]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        V = v.reshape(self.n_param, self.n_spatial)
        return sum(kron_apply(self.gram.factors(k), (K @ V.T).T)
                   for k, K in self._terms()).reshape(-1)

    def diag(self) -> np.ndarray:
        return sum(np.outer(self.gram.diagonal(k), K.diagonal())
                   for k, K in self._terms()).reshape(-1)

    def explicit(self) -> sp.csr_array | None:
        """The summed Kronecker matrix sum_k G_k ⊗ K_k, built and cached on the first call.

        Every K_k shares K0's CSR pattern, so A's entries are the union
        pattern of the sparse G_k against that pattern, with values
        sum_k outer(G_k on the union, K_k.data), gathered in one COO to CSR
        conversion.  A stores exactly the nonzeros of the sum, with sorted
        indices, whatever the number of terms.  The G_k stay sparse: with
        I = 1, J can reach ``EXPLICIT_LIMIT``.  None when I*J exceeds
        ``EXPLICIT_LIMIT``.
        """
        if self.A is None and self.n <= EXPLICIT_LIMIT:
            terms = self._terms()
            G = [self.gram.matrix(k).tocoo() for k, _ in terms]
            I, J = self.n_spatial, self.n_param
            keys, at = np.unique(np.concatenate([g.row.astype(np.int64) * J + g.col
                                                 for g in G]), return_inverse=True)
            on_union = np.zeros((len(G), keys.size))
            on_union[np.repeat(np.arange(len(G)), [g.nnz for g in G]), at] = np.concatenate(
                [g.data for g in G])
            data = sum(np.outer(v, K.data) for v, (_, K) in zip(on_union, terms))
            K_rows = np.repeat(np.arange(I), np.diff(self.K0.indptr))
            rows = (keys // J * I)[:, None] + K_rows
            cols = (keys % J * I)[:, None] + self.K0.indices
            A = sp.coo_array((data.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(self.n, self.n)).tocsr()
            A.eliminate_zeros()
            A.sort_indices()
            self.A = A
        return self.A

    def precond(self) -> Callable[[np.ndarray], np.ndarray]:
        """Apply (G̃ ⊗ K̄)^-1, the inverse of the best Kronecker approximation of A.

        A = G_0 ⊗ K_0 + sum_k G_k ⊗ K_k, with K_0 = ``K0`` and the stiffness
        K_k = ``Kk[k - 1]`` of y_k.  K̄ = K_0 + sum_k E[y_k] K_k is the
        stiffness at the y-averaged coefficient, with E[y_k] the entry sum
        of the y-weighted Gramian factor of dimension k (the hats sum to
        one), and G̃ = sum_k alpha_k G_k (k = 0 included) with
        alpha_k = <K_k, K̄>_F / <K̄, K̄>_F.  So the
        preconditioner is A itself when every K_k is a multiple of K̄ (a
        coefficient whose modes all have the mean's shape), and G_0 ⊗ K̄
        without modes.

        K̄ is solved by SuperLU on the (I, J) transpose of the residual
        blocks.  G̃^-1 = W diag(1 / delta) W^T with W = ⊗ W_d the doubly
        orthogonal basis (``Gramians.eigenbasis``) and delta_j = alpha_0 +
        sum_k alpha_k lam_{k, j_k}, so W and W^T act one parameter dimension
        at a time (``param.kron_apply``).  delta_j = <K(lam_j), K̄>_F /
        <K̄, K̄>_F for the stiffness K(lam_j) at a point of the parameter box,
        which is positive when the coefficient is positive on the box.

        Built on the first call and cached.  Raises numpy.linalg.LinAlgError
        when K̄ is singular or some delta_j <= 0 (a coefficient that is not
        positive on the parameter box).
        """
        if self._precond is None:
            means = [my.sum() for my in self.gram.mass_y]
            K_bar = self.K0.copy()
            for mean, K in zip(means, self.Kk):
                if K is not None:
                    K_bar = K_bar + mean * K
            try:
                lu_k = spla.splu(sp.csc_matrix(K_bar))
            except RuntimeError as exc:
                raise np.linalg.LinAlgError(f"mean stiffness K̄: {exc}") from exc
            norm2 = float(K_bar.multiply(K_bar).sum())

            def alpha(K):
                return 0.0 if K is None else float(K.multiply(K_bar).sum()) / norm2

            basis = self.gram.eigenbasis()
            delta = np.full(self.grid.shape, alpha(self.K0))
            for k, ((_, lam), K) in enumerate(zip(basis, self.Kk)):
                delta += alpha(K) * lam.reshape((-1,) + (1,) * (len(basis) - 1 - k))
            if not delta.min() > 0.0:
                raise np.linalg.LinAlgError(
                    "Kronecker preconditioner is not positive definite: the "
                    "coefficient is not positive on the parameter box")
            I, J = self.n_spatial, self.n_param
            inv_delta = (1.0 / delta).reshape(J, 1)
            W = [W_d for W_d, _ in basis]
            W_T = [W_d.T for W_d in W]

            def apply(r: np.ndarray) -> np.ndarray:
                V = lu_k.solve(r.reshape(J, I).T).T
                return kron_apply(W, kron_apply(W_T, V) * inv_delta).reshape(-1)

            self._precond = apply
        return self._precond

    def reduced_precond(self, active: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``precond()`` itself: G̃ ⊗ K̄ does not depend on the ``active`` mask."""
        return self.precond()


def assemble_sg(mesh: Mesh, grid: ParamGrid, a_field: AffineField,
                f_field: AffineField, g_field: AffineField, dirichlet=None) -> SGSystem:
    """Assemble the tensor Galerkin LCP for given coefficient/source/obstacle.

    The spatial data of the affine terms (``fields.affine_factors``) are
    contracted with the Gramians (stiffness, load and the Dirichlet lifting
    of ``dirichlet``, a callable (x, y) -> boundary values or None for
    homogeneous data) and with the parameter nodes (obstacle).  The explicit
    Kronecker matrix is not built here (``SGSystem.explicit``).
    """
    op = P1Operator(mesh)
    factors = affine_factors(op, a_field, f_field, g_field, grid.n_dims)
    gram = assemble_gramians(grid)
    y_nodes = grid.nodes()
    B = np.array([gram.g0, *gram.gk]).T @ factors.load
    D, lifting = lift(op, dirichlet, y_nodes, factors.K_ib[:, None])
    for k, L in enumerate(lifting):
        B -= kron_apply(gram.factors(k), L)
    obs = np.column_stack([np.ones(grid.n_nodes), y_nodes]) @ factors.obs
    # a dimension on which a has no mode has a zero stiffness row
    Kk = [op.interior.csr(d) if d.any() else None for d in factors.K_ii[1:]]
    return SGSystem(mesh=mesh, grid=grid, K0=op.interior.csr(factors.K_ii[0]), Kk=Kk,
                    gram=gram, b=B.reshape(-1), obs=obs.reshape(-1), boundary_values=D)

