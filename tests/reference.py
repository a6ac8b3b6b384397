"""Test-only reference routes: second constructions of facts the program builds one way.

Each function here was once program code that no verb reached, or the
route the program took before a faster one replaced it.  The tests compare
the program's one route against these (the structure-built commutant against
the kernel of the commutator stack and against its per-block unit products,
the cell form's index arithmetic against the Kronecker loop, the intertwiner from the leader
eigenvectors against the corner eigensolve, commutation unit against unit
against the basis witness, the instance builder's Lüders and preparation maps
against their direct constructions), or use them as independent oracles
(``is_psd`` on a Choi matrix).
"""

from __future__ import annotations

import numpy as np

from staralg import (
    AlgebraStructure,
    ChannelMap,
    IllConditioned,
    InvalidState,
    MatrixStarAlgebra,
    NotNonselective,
    ProjectiveMeasurement,
    ShapeMismatch,
    build_channel,
    channel_from_kraus,
    channel_on_algebra,
    full_matrix_algebra,
    structure_decomposition,
)
from staralg.algebra import CORNER_EIGENVALUE_CUT, products
from staralg.numerics import DEFAULT_TOL, RANK_GAP_FACTOR, Tolerances, canonical_basis, dagger, is_hermitian, vec

#: Relative singular-value cut of :func:`null_space`: the kernel directions of
#: stacked commutators of unit-scale matrices sit at rounding, the rest near 1.
KERNEL_RANK_CUT = 1e-9

#: Relative gap that splits a random observable's spectrum into Lüders
#: eigenspaces: a repeated eigenvalue spreads by rounding, while distinct ones of
#: a Gaussian combination are almost surely far more than 1e-8 of the spread apart.
LUDERS_CLUSTER_GAP = 1e-8


def is_psd(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the matrix is Hermitian and its eigenvalues are all >= -eps_psd."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        return False
    return bool(np.linalg.eigvalsh(0.5 * (h + dagger(h))).min() >= -tol.eps_psd)


def null_space(mat: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the kernel of ``mat`` (columns).

    Singular values below KERNEL_RANK_CUT * max(sigma_max, scale) are
    treated as zero; ``scale=1.0`` makes an all-noise matrix of unit-scale
    entries read as zero rather than as full rank.  The cut must be clean:
    the smallest kept singular value has to exceed the largest discarded one
    by RANK_GAP_FACTOR, otherwise IllConditioned is raised.  Tall input is
    first reduced to the R of its QR factorization, which has the same
    singular values and right-singular vectors.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ShapeMismatch("null_space expects a 2d array")
    n = mat.shape[1]
    if mat.shape[0] == 0:
        return np.eye(n, dtype=complex)
    mat = np.linalg.qr(mat, mode="r") if mat.shape[0] > n else mat
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < n)
    smax = s[0] if s.size else 0.0
    thresh = KERNEL_RANK_CUT * max(smax, scale)
    if smax <= thresh:
        return np.eye(n, dtype=complex)
    rank = int(np.count_nonzero(s > thresh))
    if 0 < rank < s.size and s[rank] > 0 and s[rank - 1] < RANK_GAP_FACTOR * s[rank]:
        raise IllConditioned(
            "no clear spectral gap at the kernel threshold: "
            f"sigma_kept={s[rank - 1]:.3e}, sigma_dropped={s[rank]:.3e}"
        )
    return dagger(vh[rank:, :]) if rank < n else np.zeros((n, 0), dtype=complex)


def null_space_commutant(a: MatrixStarAlgebra) -> MatrixStarAlgebra:
    """The commutant as the joint kernel of the stacked operators 1 (x) b - b^T (x) 1, in the canonical gauge."""
    n = a.ambient_dim
    eye = np.eye(n)
    kernel = null_space(np.concatenate([np.kron(eye, b) - np.kron(b.T, eye) for b in a.basis]), scale=1.0)
    # column k is the column-stacked vec(X_k); a row-major reshape gives X_k^T
    return MatrixStarAlgebra(n, canonical_basis(kernel.T.reshape(-1, n, n).transpose(0, 2, 1)))


def block_units_commutant(a: MatrixStarAlgebra) -> MatrixStarAlgebra:
    """The commutant from the intertwiner's columns, one block at a time, in the canonical gauge.

    Over the columns w_(alpha, s) of block k of W, the units sum_alpha
    w_(alpha, s) w_(alpha, t)* / sqrt(n_k) are HS-orthonormal and span the
    commutant's block W (1_{n_k} (x) M_{m_k}) W*.
    """
    n = a.ambient_dim
    st = structure_decomposition(a)
    units, off = [], 0
    for nk, mk in st.blocks:
        # cols[s] is the n x n_k matrix of the columns w_(alpha, s), alpha = 0..n_k-1
        cols = st.intertwiner[:, off : off + nk * mk].reshape(n, nk, mk).transpose(2, 0, 1)
        units.append((cols[:, None] @ dagger(cols)[None, :]).reshape(mk * mk, n, n) / np.sqrt(nk))
        off += nk * mk
    return MatrixStarAlgebra(n, canonical_basis(np.concatenate(units)))


def kronecker_cell_form(mu, sizes1, sizes2) -> tuple[MatrixStarAlgebra, MatrixStarAlgebra]:
    """The cell theorem's standard pair by Kronecker products: E_pq of block k on its leg of every cell of block k.

    Cell (i, j) with mu_ij > 0 holds C^{n_i} (x) C^{m_j} (x) C^{mu_ij} on the
    next diagonal block of the ambient space, cells in row-major order; each
    element is normalized by its HS norm.
    """
    mu = np.asarray(mu)
    n_i, m_j = list(sizes1), list(sizes2)
    cells = [(i, j) for i in range(len(n_i)) for j in range(len(m_j)) if mu[i, j]]
    offsets = np.cumsum([0] + [n_i[i] * m_j[j] * mu[i, j] for i, j in cells])
    n = int(offsets[-1])

    def algebra(sizes: list[int], side: int) -> MatrixStarAlgebra:
        basis = []
        for k, size in enumerate(sizes):
            g = np.zeros((size * size, n, n), dtype=complex)
            for c, (i, j) in enumerate(cells):
                if (i, j)[side] == k:
                    legs = [np.eye(n_i[i])[None], np.eye(m_j[j])[None], np.eye(mu[i, j])[None]]
                    legs[side] = np.eye(size * size).reshape(-1, size, size)
                    g[:, offsets[c] : offsets[c + 1], offsets[c] : offsets[c + 1]] = np.kron(np.kron(*legs[:2]), legs[2])
            basis.append(g / np.linalg.norm(g, axis=(1, 2))[:, None, None])
        return MatrixStarAlgebra(n, np.concatenate(basis))

    return algebra(n_i, 0), algebra(m_j, 1)


def corner_intertwiner(s: AlgebraStructure) -> np.ndarray:
    """W from the full matrix-unit stacks: column (alpha, s) of block k is e_alpha0 xi_s.

    xi is the canonical basis of the range of the corner e_00, read off a
    second eigh of that corner (eigenvalues above CORNER_EIGENVALUE_CUT);
    W is the identity for M_n.
    """
    n = s.algebra.ambient_dim
    if s.algebra.dim == n * n:
        return np.eye(n, dtype=complex)
    cols = []
    for e, m in zip(s.units, s.multiplicities):
        w, v = np.linalg.eigh(0.5 * (e[0, 0] + dagger(e[0, 0])))
        xi = canonical_basis(v[:, w > CORNER_EIGENVALUE_CUT].T[:, :, None])[:, :, 0].T
        if xi.shape[1] != m:
            raise IllConditioned(f"corner projection has rank {xi.shape[1]}, expected {m}")
        cols.append((e[:, 0] @ xi).transpose(1, 0, 2).reshape(n, -1))
    return np.concatenate(cols, axis=1)


def basis_commute_witness(
    a1: MatrixStarAlgebra, a2: MatrixStarAlgebra, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, float]:
    """(x, y, entry): the largest entry of [e_a0, c_b] over A1's column units and A2's whole basis."""
    e = np.concatenate(a1.structure(tol).column_units)
    comm = products(e, a2.basis) - products(a2.basis, e).transpose(1, 0, 2, 3)
    skew = np.abs(comm).reshape(len(e), a2.dim, -1).max(axis=2)
    i, j = np.unravel_index(skew.argmax(), skew.shape)
    return e[i], a2.basis[j], float(skew[i, j])


def identity_channel(n: int) -> ChannelMap:
    """Certified identity map on M_n, the channel of the single Kraus operator 1_n."""
    return channel_from_kraus(np.eye(n, dtype=complex)[None], n)


def state_prep_operation(sigma: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> ChannelMap:
    """Observable-picture discard-and-prepare x -> tr(sigma x) 1 on M_n, for a density matrix sigma."""
    sigma = np.asarray(sigma, dtype=complex)
    n = sigma.shape[0]
    if not is_hermitian(sigma, tol):
        raise InvalidState("prepared state is not Hermitian")
    evals = np.linalg.eigvalsh(0.5 * (sigma + dagger(sigma)))
    if evals[0] < -tol.eps_psd or abs(float(np.real(np.trace(sigma))) - 1.0) > tol.eps_verify * n:
        raise InvalidState("prepared state is not a density matrix")
    return build_channel(full_matrix_algebra(n), n, np.outer(vec(np.eye(n)), vec(sigma).conj()), tol)


def luders_operation(measurement: ProjectiveMeasurement, tol: Tolerances = DEFAULT_TOL) -> ChannelMap:
    """Nonselective projective measurement x -> sum_k P_k x P_k on M_n."""
    measurement.validate(tol)
    n = measurement.ambient_dim
    channel = channel_from_kraus(measurement.projections, n, n, tol)
    if not channel.operation:
        raise NotNonselective("measurement map failed certification")
    return channel


def extend_to_ambient(channel: ChannelMap, tol: Tolerances = DEFAULT_TOL) -> ChannelMap:
    """The map composed with the trace-compatible expectation onto its domain span, on the full algebra."""
    return build_channel(
        full_matrix_algebra(channel.in_dim), channel.out_dim, channel.action @ channel.domain.expectation, tol
    )


def random_luders_channel(a: MatrixStarAlgebra, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL) -> ChannelMap:
    """Nonselective measurement of a generic observable inside the algebra."""
    herm = a.hermitian_basis
    h = np.tensordot(rng.standard_normal(herm.shape[0]), herm, axes=(0, 0))
    w, v = np.linalg.eigh(h)
    spread = max(float(w[-1] - w[0]), 1.0)
    clusters = np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > LUDERS_CLUSTER_GAP * spread) + 1)
    return channel_on_algebra(a, np.stack([v[:, g] @ dagger(v[:, g]) for g in clusters]), tol)
