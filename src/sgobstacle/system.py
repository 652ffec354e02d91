"""Tensor-product Galerkin system for the stochastic obstacle problem.

The fully discrete problem couples a P1 space on the mesh (I interior nodes)
with the multilinear hat basis on the parameter grid (J nodes).  The system
matrix is a sum of Kronecker products G_k ⊗ K_k and is kept in factored
form: each parametric Gramian G_k as its 1-D factors (``param.Gramians``).
Matrix-vector products work blockwise on (J, I) reshapes of flat vectors
with index j*I + i, K_k on the rows and G_k one parameter dimension at a
time (``param.kron_apply``).  The K_k are held as the rows of stored
entries that ``fields.affine_factors`` gives, one row per affine term
(zero for a parameter dimension without modes), all on the interior block
of the mesh operator; every consumer reads the rows.  The matvec makes one
sparse product per spatial shape: a term whose K_k is c K, to rounding,
for the K of an earlier term joins that term's group
(``fields.fold_terms``), with c folded into its first Gramian factor, and
an all-zero K_k (a coefficient with zero mean) joins none.  So a
coefficient whose modes have the mean's shape, as in both of the paper's
examples, costs one sparse product per matvec.  The explicit sparse sum
is built only when projected SOR asks for it, written straight into CSR
arrays from two small patterns, the union of the G_k and ``pattern``
(``SGSystem.explicit``), and the rows' colours that it sweeps in come
from the same two patterns (``SGSystem.colours``).
Conjugate gradients are preconditioned with the best Kronecker
approximation G̃ ⊗ K̄ of the sum (Ullmann, SISC 2010), whose parametric
factor is inverted in the doubly orthogonal hat basis (Babuška, Tempone
and Zouraris, SINUM 2004).  Its apply takes the active set and truncates
K̄ at the spatial nodes held at every parameter node, so it stays a
Kronecker product, and it is the exact inverse of the inactive block
wherever the modes have the mean's shape and the contact set does not
depend on y (``SGSystem.precond``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import Block, P1Operator
from .fields import AffineField, affine_factors, fold_terms, lift
from .lcp import greedy_colouring
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
    pattern : the interior block of the mesh operator (``fem.Block``), the
        CSR pattern of every stiffness term.
    stiffness : (1 + M, nnz) stored entries of K_k on ``pattern``, row k
        pairing with the Gramian G_k: the mean's at row 0 and the summed
        modes of parameter dimension d at row d + 1, zero where d has none.
    gram : parametric Gramians as 1-D factors.
    b : flat right-hand side of length I*J, parameter-major.
    obs : flat obstacle values at the tensor nodes.
    boundary_values : (J, n_boundary) Dirichlet data, one row per parameter node.
    A : explicit CSR matrix, None until the first ``explicit()`` call builds
        it (and for good when I*J exceeds ``EXPLICIT_LIMIT``).
    """

    mesh: Mesh
    grid: ParamGrid
    pattern: Block
    stiffness: np.ndarray
    gram: Gramians
    b: np.ndarray
    obs: np.ndarray
    boundary_values: np.ndarray
    A: sp.csr_array | None = None

    def __post_init__(self):
        # (K, [factors of G_k for each term c K]) per spatial shape, c folded
        # into the first factor
        self._groups = []
        for g, ratios in fold_terms(self.stiffness):
            factors = []
            for k in np.flatnonzero(ratios):
                F = self.gram.factors(k)
                factors.append(F if k == g else [ratios[k] * F[0], *F[1:]])
            self._groups.append((self.pattern.csr(self.stiffness[g]), factors))

    @property
    def n_spatial(self) -> int:
        return self.pattern.shape[0]

    @property
    def n_param(self) -> int:
        return self.grid.n_nodes

    @property
    def n(self) -> int:
        return self.n_spatial * self.n_param

    @property
    def spatial_factors(self) -> int:
        """Sparse products per ``matvec``: the number of spatial shapes."""
        return len(self._groups)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        V = v.reshape(self.n_param, self.n_spatial)
        out = np.zeros(V.shape)
        for K, factors in self._groups:
            KV = np.ascontiguousarray((K @ V.T).T)
            for F in factors:
                out += kron_apply(F, KV)
        return out.reshape(-1)

    def diag(self) -> np.ndarray:
        K_diag = self.pattern.csr(self.stiffness).diagonal().reshape(len(self.stiffness), -1)
        return sum(np.outer(self.gram.diagonal(k), d) for k, d in enumerate(K_diag)).reshape(-1)

    def _factor_patterns(self):
        """The patterns of G and K whose Kronecker product is A's, each as
        (indptr, indices, values) in CSR order with sorted columns:

        - G's is the union of the G_k, which is G_0's, since every
          ``mass_y[d]`` stores inside the tridiagonal ``mass[d]``: the
          Kronecker product of the patterns of the ``mass[d]``.  Its values
          (terms, nnz) are the G_k on it, their factors multiplied in
          dimension order as ``sp.kron`` chains them, so an entry that a
          G_k does not store is ±0 there.
        - K's is ``pattern``, with values (terms, nnz) the K_k on it.
        """
        factors = [self.gram.factors(k) for k in range(len(self.stiffness))]
        rows, cols, g_val = np.zeros(1, int), np.zeros(1, int), np.ones((len(factors), 1))
        for d, m in enumerate(self.gram.mass):
            r, c = np.nonzero(m)
            rows, cols = (rows[:, None] * len(m) + r).ravel(), (cols[:, None] * len(m) + c).ravel()
            g_val = (g_val[:, :, None] * np.array([F[d][r, c] for F in factors])[:, None]
                     ).reshape(len(factors), -1)
        by_row = np.argsort(rows, kind="stable")  # each row's columns stay sorted
        g_ptr = np.zeros(self.n_param + 1, dtype=int)
        np.cumsum(np.bincount(rows, minlength=self.n_param), out=g_ptr[1:])
        return ((g_ptr, cols[by_row], g_val[:, by_row]),
                (self.pattern.indptr, self.pattern.indices, self.stiffness))

    def explicit(self) -> sp.csr_array | None:
        """The summed Kronecker matrix sum_k G_k ⊗ K_k, built and cached on the first call.

        A's CSR arrays are written straight from the patterns of G and K
        (``_factor_patterns``): row j*I + i starts at G.indptr[j] nnz_K +
        len_G(j) K.indptr[i] and holds, in sorted column order, the entries
        of G's row j against those of K's row i.  So the product of the
        entry e_off into G's row j and the entry f_off into K's row i sits
        e_off len_K(i) + f_off past that start, in column t*I + s for their
        columns t and s, and its value is sum_k G_k[e] K_k[f], summed in
        term order.  Sums that cancel to zero are dropped, so A stores
        exactly the nonzeros of the sum, with sorted indices, int32 when
        they fit.  No G_k is formed: with I = 1, J can reach
        ``EXPLICIT_LIMIT``.  None when I*J exceeds ``EXPLICIT_LIMIT``.
        """
        if self.A is None and self.n <= EXPLICIT_LIMIT:
            (g_ptr, g_ind, g_val), (k_ptr, k_ind, k_val) = self._factor_patterns()
            nnz_K = k_ind.size
            g_len, k_len = np.diff(g_ptr), np.diff(k_ptr)
            # per entry of G and of K: its row's start and length, its offset in the row
            e_start, e_len = np.repeat(g_ptr[:-1], g_len), np.repeat(g_len, g_len)
            f_start, f_len = np.repeat(k_ptr[:-1], k_len), np.repeat(k_len, k_len)
            e_off, f_off = np.arange(g_ind.size) - e_start, np.arange(nnz_K) - f_start
            at = ((e_start * nnz_K)[:, None] + e_len[:, None] * f_start
                  + e_off[:, None] * f_len + f_off)
            idx = np.int32 if max(at.size, self.n) <= np.iinfo(np.int32).max else np.int64
            indices = np.empty(at.size, dtype=idx)
            indices[at] = g_ind[:, None] * self.n_spatial + k_ind
            values = np.multiply.outer(g_val[0], k_val[0])
            for g, K in zip(g_val[1:], k_val[1:]):
                values += np.multiply.outer(g, K)
            data = np.empty(at.size)
            data[at] = values
            indptr = np.append((g_ptr[:-1, None] * nnz_K + g_len[:, None] * k_ptr[:-1]).ravel(),
                               at.size).astype(idx)
            A = sp.csr_array((data, indices, indptr), shape=(self.n, self.n))
            A.eliminate_zeros()
            self.A = A
        return self.A

    def colours(self) -> np.ndarray:
        """One colour per row of A, no two rows of one colour coupled by A.

        A's pattern lies in the strong product of the two patterns of
        ``_factor_patterns``: the union of the G_k (J rows) and ``pattern``
        (I rows).  With c_G and c_K their first-fit colourings
        (``lcp.greedy_colouring``) and n_K the colours of c_K, row j*I + i
        gets c_G(j) n_K + c_K(i): two distinct rows coupled by A have
        coupled j, so they differ in c_G, or share j and have coupled i, so
        they differ in c_K.  So projected SOR colours the factors and never
        walks the rows of A.
        """
        (g_ptr, g_ind, _), _ = self._factor_patterns()
        G = sp.csr_array((np.ones(g_ind.size), g_ind, g_ptr), shape=(self.n_param,) * 2)
        c_G, c_K = np.array(greedy_colouring(G)), np.array(greedy_colouring(self.pattern))
        return (c_G[:, None] * (c_K.max() + 1) + c_K).ravel()

    def precond(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``apply(r, active)``: the inverse of the best Kronecker
        approximation G̃ ⊗ K̄ of A, truncated at the spatial nodes that
        ``active`` holds at every parameter node.

        A = G_0 ⊗ K_0 + sum_k G_k ⊗ K_k, with K_k the ``stiffness`` row k.
        K̄ = K_0 + sum_k E[y_k] K_k is the stiffness at the y-averaged
        coefficient, with E[y_k] the entry sum of the y-weighted Gramian
        factor of dimension k (the hats sum to one), and G̃ = sum_k
        alpha_k G_k (k = 0 included) with alpha_k = <K_k, K̄>_F / <K̄, K̄>_F,
        the Frobenius products taken on the stored entries.  So the
        preconditioner is A itself when every K_k is a multiple of K̄ (a
        coefficient whose modes all have the mean's shape), and G_0 ⊗ K̄
        without modes.

        K̄ is solved by SuperLU on the (I, J) transpose of the residual
        blocks, in a symmetric minimum degree order (MMD on the pattern of
        K̄ + K̄^T, pivots on the diagonal), which keeps the fill of the SPD
        K̄ low.  G̃^-1 = W diag(1 / delta) W^T with W = ⊗ W_d the doubly
        orthogonal basis (``Gramians.eigenbasis``) and delta_j = alpha_0 +
        sum_k alpha_k lam_{k, j_k}, so W and W^T act one parameter dimension
        at a time (``param.kron_apply``).  delta_j = <K(lam_j), K̄>_F /
        <K̄, K̄>_F for the stiffness K(lam_j) at a point of the parameter box,
        which is positive when the coefficient is positive on the box.

        Spatial node i is held everywhere when ``active.reshape(J, I)[:, i]``
        is all true.  With S the other nodes, the apply is (G̃ ⊗ K̄_SS)^-1 on
        the columns S of the (J, I) blocks of ``r`` and zero on the held
        columns, where K̄_SS is K̄ on the rows and columns S: the truncation
        at the contact nodes of obstacle multigrid (Gräser and Kornhuber,
        J. Comput. Math. 2009), here kept in Kronecker form.  The
        inactive block of A holds G_k ⊗ (K_k)_SS, so the apply is its exact
        inverse when every K_k is a multiple of K̄ and the set holds whole
        columns.  A mask without a whole held column gets (G̃ ⊗ K̄)^-1 r, with
        the factor of K̄ that ``precond()`` makes, and a mask that holds every
        node gets zeros.  One factor lives at a time: an apply whose held
        nodes differ from the factor's frees it, then factors its K̄_SS.

        Built anew on each call, which the solvers make once per solve, so
        a solved system keeps no factor.  Raises numpy.linalg.LinAlgError
        when K̄ is singular or some delta_j <= 0 (a coefficient that is not
        positive on the parameter box).
        """
        means = [1.0, *(my.sum() for my in self.gram.mass_y)]
        k_bar = np.array(means) @ self.stiffness
        I, J = self.n_spatial, self.n_param
        K_bar = self.pattern.csr(k_bar)

        def factor(kept):
            """SuperLU of K̄ on the ``kept`` nodes."""
            try:
                return spla.splu(sp.csc_matrix(K_bar[kept][:, kept]),
                                 permc_spec="MMD_AT_PLUS_A",
                                 options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise np.linalg.LinAlgError(f"mean stiffness K̄: {exc}") from exc

        kept = np.ones(I, dtype=bool)
        lu_k = factor(kept)
        alpha = self.stiffness @ k_bar / (k_bar @ k_bar)
        basis = self.gram.eigenbasis()
        delta = np.full(self.grid.shape, alpha[0])
        for k, (_, lam) in enumerate(basis):
            delta += alpha[k + 1] * lam.reshape((-1,) + (1,) * (len(basis) - 1 - k))
        if not delta.min() > 0.0:
            raise np.linalg.LinAlgError(
                "Kronecker preconditioner is not positive definite: the "
                "coefficient is not positive on the parameter box")
        inv_delta = (1.0 / delta).reshape(J, 1)
        W = [W_d for W_d, _ in basis]
        W_T = [W_d.T for W_d in W]

        def apply(r: np.ndarray, active: np.ndarray) -> np.ndarray:
            nonlocal lu_k, kept
            now = ~active.reshape(J, I).all(axis=0)  # nodes not held everywhere
            out = np.zeros((J, I))
            if not now.any():
                return out.reshape(-1)
            if not np.array_equal(now, kept):
                lu_k = kept = None  # free the old factor before the new one is made
                lu_k, kept = factor(now), now
            V = kron_apply(W_T, lu_k.solve(r.reshape(J, I)[:, kept].T).T)
            V *= inv_delta
            out[:, kept] = kron_apply(W, V)
            return out.reshape(-1)

        return apply


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
    B = np.array([gram.integrals(k) for k in range(len(factors.load))]).T @ factors.load
    D, lifting = lift(op, dirichlet, y_nodes, factors.K_ib[:, None])
    for k, L in enumerate(lifting):
        B -= kron_apply(gram.factors(k), L)
    obs = np.column_stack([np.ones(grid.n_nodes), y_nodes]) @ factors.obs
    return SGSystem(mesh=mesh, grid=grid, pattern=op.interior, stiffness=factors.K_ii,
                    gram=gram, b=B.reshape(-1), obs=obs.reshape(-1), boundary_values=D)

