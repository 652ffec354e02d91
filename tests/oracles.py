"""Reference builds that the package no longer makes, kept for the tests
to compare against."""

import functools

import numpy as np
import scipy.sparse as sp


def gramian(gram, k):
    """G_k as a sparse CSR matrix, the Kronecker product of ``gram.factors(k)``,
    dimension 0 first; exact zeros of the factors are not stored, and
    without dimensions G_k is the 1 x 1 identity."""
    mats = [sp.csr_array(F) for F in gram.factors(k)] or [sp.csr_array(np.ones((1, 1)))]
    return functools.reduce(lambda A, F: sp.kron(A, F, format="csr"), mats)


def coo_explicit(system):
    """sum_k G_k ⊗ K_k of an ``SGSystem`` as one COO to CSR conversion: the
    union pattern of the sparse G_k against ``pattern``, with values
    sum_k outer(G_k on the union, ``stiffness[k]``), zeros dropped and
    indices sorted."""
    G = [gramian(system.gram, k).tocoo() for k in range(len(system.stiffness))]
    I, J = system.n_spatial, system.n_param
    keys, at = np.unique(np.concatenate([g.row.astype(np.int64) * J + g.col for g in G]),
                         return_inverse=True)
    on_union = np.zeros((len(G), keys.size))
    on_union[np.repeat(np.arange(len(G)), [g.nnz for g in G]), at] = np.concatenate(
        [g.data for g in G])
    data = sum(np.outer(v, K) for v, K in zip(on_union, system.stiffness))
    K_rows = np.repeat(np.arange(I), np.diff(system.pattern.indptr))
    rows = (keys // J * I)[:, None] + K_rows
    cols = (keys % J * I)[:, None] + system.pattern.indices
    A = sp.coo_array((data.ravel(), (rows.ravel(), cols.ravel())),
                     shape=(system.n, system.n)).tocsr()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def assert_same_csr(A, ref):
    """A holds ``ref``'s indptr, indices and data, byte for byte in the data,
    with int32 indices."""
    assert A.shape == ref.shape
    assert A.indptr.dtype == A.indices.dtype == np.int32
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert A.data.dtype == ref.data.dtype and A.data.tobytes() == ref.data.tobytes()
