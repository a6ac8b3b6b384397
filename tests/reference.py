"""Test-only reference routes: second constructions of facts the program builds one way.

Each function here was once program code that no verb reached.  The tests
compare the program's one route against these (the structure-built
commutant against the kernel of the commutator stack, the instance
builder's Lüders and preparation maps against their direct constructions),
or use them as independent oracles (``is_psd`` on a Choi matrix).
"""

from __future__ import annotations

import numpy as np

from staralg import (
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
)
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
