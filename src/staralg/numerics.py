"""Dense complex-matrix numerics shared by every other module.

Matrices are numpy ``complex128`` arrays.  Vectorization is column-stacking
throughout, so ``vec(A X B) = (B^T kron A) vec(X)``.  Every comparison routes
through a :class:`Tolerances` instance so suites can tighten or loosen the
numerical contract in one place.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IllConditioned, ShapeMismatch

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "dagger",
    "vec",
    "unvec",
    "hs_norm",
    "is_hermitian",
    "kron",
    "orthonormalize",
    "canonical_basis",
    "haar_unitary",
    "hermitian_to_rvec",
    "rvec_to_hermitian",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the toolkit.

    eps_herm     Hermiticity residual allowed on inputs.
    eps_psd      floor on eigenvalues when deciding positivity.
    eps_algebra  residual allowed on algebraic identities (closure,
                 commutation, projections onto spans).
    eps_verify   residual allowed when certifying derived objects
                 (isomorphisms, extensions, dilations).
    """

    eps_herm: float = 1e-9
    eps_psd: float = 1e-9
    eps_algebra: float = 1e-9
    eps_verify: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("eps_herm", "eps_psd", "eps_algebra", "eps_verify"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    cols = rows if cols is None else cols
    v = np.asarray(v, dtype=complex)
    if v.size != rows * cols:
        raise ShapeMismatch(f"cannot reshape length {v.size} into ({rows},{cols})")
    return v.reshape((rows, cols), order="F")


def hs_norm(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def is_hermitian(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    h = _as_square(h)
    scale = max(1.0, hs_norm(h))
    return hs_norm(h - dagger(h)) <= tol.eps_herm * scale


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (delegates to numpy)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


#: Relative singular-value cut of :func:`orthonormalize`: products of
#: orthonormal elements are redundant only up to rounding, far below 1e-10.
SPAN_RANK_CUT = 1e-10
#: Least ratio of the smallest kept to the largest dropped singular value at a
#: rank cut; across a narrower gap the rank is a guess, so it is refused.
RANK_GAP_FACTOR = 1e3


def orthonormalize(mats: np.ndarray) -> np.ndarray:
    """Orthonormal basis (HS inner product) of the span of ``mats``.

    ``mats`` is an array of shape (k, n, m); the result has shape (r, n, m)
    with r the numerical rank of the span, read at SPAN_RANK_CUT.  The rank
    cut must show a clean spectral gap (RANK_GAP_FACTOR), or
    :class:`IllConditioned` is raised rather than guessing a rank.

    The basis is the SVD's right-singular vectors, so inside a degenerate
    singular subspace it is an arbitrary unitary rotation (which one may
    depend on the BLAS build and thread count).  Pass it through
    :func:`canonical_basis` where the basis itself must be reproducible;
    a span of rank r = n*m needs no eigensolve there.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3:
        raise ShapeMismatch("orthonormalize expects an array of shape (k, n, m)")
    k, n, m = mats.shape
    if k == 0:
        return np.zeros((0, n, m), dtype=complex)
    rows = mats.reshape(k, n * m)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.zeros((0, n, m), dtype=complex)
    kept = s > SPAN_RANK_CUT * smax
    rank = int(np.count_nonzero(kept))
    if rank < s.size:
        largest_below = s[rank]
        if largest_below > 0 and s[rank - 1] < RANK_GAP_FACTOR * largest_below:
            raise IllConditioned(
                "span rank is ambiguous: "
                f"sigma_kept={s[rank - 1]:.3e}, sigma_dropped={largest_below:.3e}"
            )
    return vh[:rank, :].reshape(rank, n, m)


# Canonical gauge of a span.  The probe is a diagonal operator on vec space
# (one real weight in [-1, 1] per matrix entry), so its compression onto an
# r-dimensional span costs one r x r eigh and never an (nm) x (nm) matrix, and
# a span that fills its space (r = nm) needs no eigh at all.
GAUGE_SEED = 0
# Smallest eigenvalue gap accepted in a compressed probe.  Eigenvector errors
# scale as eps / gap, so for a probe of unit norm they stay near 1e-10.
GAUGE_MIN_GAP = 1e-6
# Smallest overlap with the unit anchor accepted, as a multiple of the
# typical overlap 1/sqrt(nm); a phase is only as accurate as eps / overlap.
GAUGE_MIN_OVERLAP = 1e-3
# Probes tried before a span is declared ill-conditioned.
GAUGE_ATTEMPTS = 8


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only: a seeded draw depends on (shape, attempt) alone, so it is cached and shared."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=128)
def _gauge_probe(shape: tuple[int, int], attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (weights, unit anchor), both of ``shape``, for one attempt."""
    rng = np.random.default_rng([GAUGE_SEED, attempt])
    weights = rng.uniform(-1.0, 1.0, shape)
    anchor = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return _frozen(weights), _frozen(anchor / np.linalg.norm(anchor))


@lru_cache(maxsize=128)
def _seeded_gaussian(shape: tuple[int, ...], attempt: int) -> np.ndarray:
    """Seeded complex Gaussian array of ``shape`` for one attempt (real and imaginary parts standard)."""
    g = np.random.default_rng([GAUGE_SEED, attempt]).standard_normal((2, *shape))
    return _frozen(g[0] + 1j * g[1])


def canonical_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the orthonormal ``basis``, fixed by the span.

    ``basis`` has shape (r, n, m).  The seeded probe (a real weight per
    matrix entry) is compressed onto the span and diagonalized; its
    eigenvectors, ordered by eigenvalue, are the new basis, each phase
    fixed by making its overlap with a seeded anchor matrix real and
    positive.  Both steps depend only on the span, so any unitary mixing
    of the input gives the same output.  A probe whose compression has a
    gap below ``GAUGE_MIN_GAP``, or whose anchor overlaps fall below
    ``GAUGE_MIN_OVERLAP / sqrt(nm)``, is replaced by the next seeded one;
    :class:`IllConditioned` is raised when all ``GAUGE_ATTEMPTS`` fail.

    A span of rank r = n*m is the whole space, so the compression is the
    probe itself: its eigenvectors are the unit matrices E_ij ordered by
    weight, and the anchor fixes E_ij's phase to that of anchor_ij.  That
    closed form is the same basis, with the same gap and overlap tests and
    the same retries, and needs no r x r eigh.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 3:
        raise ShapeMismatch("canonical_basis expects an array of shape (r, n, m)")
    r = basis.shape[0]
    if r == 0:
        return basis
    rows = basis.reshape(r, -1)
    full = r == rows.shape[1]
    min_overlap = GAUGE_MIN_OVERLAP / np.sqrt(rows.shape[1])
    for attempt in range(GAUGE_ATTEMPTS):
        weights, anchor = _gauge_probe(basis.shape[1:], attempt)
        weights = weights.reshape(-1)
        if full:
            order = np.argsort(weights)
            w, out = weights[order], np.eye(r, dtype=complex)[order]
        else:
            compression = (rows.conj() * weights) @ rows.T
            w, v = np.linalg.eigh(0.5 * (compression + dagger(compression)))
            out = v.T @ rows
        if r > 1 and np.diff(w).min() < GAUGE_MIN_GAP:
            continue
        overlaps = out @ anchor.reshape(-1).conj()
        size = np.abs(overlaps)
        if size.min() < min_overlap:
            continue
        return (out * (overlaps.conj() / size)[:, None]).reshape(basis.shape)
    raise IllConditioned(
        f"no probe of {GAUGE_ATTEMPTS} fixes a canonical basis of the "
        f"{r}-dimensional span"
    )


def _haar_from_rng(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in ``seed``.

    Ginibre sample, QR, then the R-diagonal phase fix that makes the
    distribution exactly Haar.
    """
    if n < 1:
        raise ShapeMismatch("dimension must be at least 1")
    return _haar_from_rng(n, np.random.default_rng(seed))


@lru_cache(maxsize=64)
def _rvec_indices(n: int):
    return np.triu_indices(n, k=1)


def hermitian_to_rvec(h: np.ndarray) -> np.ndarray:
    """Isometry from Hermitian n x n matrices onto R^(n^2).

    Layout: diagonal (real), then sqrt(2) * real and sqrt(2) * imaginary
    parts of the strict upper triangle.  Preserves the HS inner product.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[-1]
    iu = _rvec_indices(n)
    diag = np.real(h[..., np.arange(n), np.arange(n)])
    upper = h[..., iu[0], iu[1]]
    return np.concatenate(
        [diag, np.sqrt(2.0) * np.real(upper), np.sqrt(2.0) * np.imag(upper)],
        axis=-1,
    )


def rvec_to_hermitian(r: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_rvec`."""
    r = np.asarray(r, dtype=float)
    iu = _rvec_indices(n)
    k = iu[0].size
    batch = r.shape[:-1]
    h = np.zeros(batch + (n, n), dtype=complex)
    h[..., np.arange(n), np.arange(n)] = r[..., :n]
    upper = (r[..., n : n + k] + 1j * r[..., n + k :]) / np.sqrt(2.0)
    h[..., iu[0], iu[1]] = upper
    h[..., iu[1], iu[0]] = np.conj(upper)
    return h
