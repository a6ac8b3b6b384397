"""Linear maps between matrix algebras in the Heisenberg picture.

A map is stored as its superoperator matrix on vec coordinates,
``vec(T(x)) = action @ vec(x)``, together with flags and a Kraus family
that only ``build_channel`` computes, from the action; every constructor
here ends in it.  When the domain is a proper subalgebra the stored matrix
is the composition with the trace-compatible expectation onto the domain
span, so applying it to an arbitrary ambient element first projects onto
the span.

Complete positivity is decided through the block matrix
``C = sum_ij E_ij (x) T(E_ij)``; for ``T(x) = sum_k W_k* x W_k`` this equals
``sum_k vec(W_k*) vec(W_k*)^H``, which fixes all index conventions used here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import MatrixStarAlgebra, full_matrix_algebra
from .errors import (
    DomainNotFull,
    InvalidMeasurement,
    NotCP,
    ShapeMismatch,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    hs_norm,
    is_hermitian,
    unvec,
    vec,
)

__all__ = [
    "KrausSet",
    "StinespringDilation",
    "ProjectiveMeasurement",
    "ChannelMap",
    "superop_from_function",
    "superop_from_kraus",
    "build_channel",
    "channel_from_kraus",
    "channel_on_algebra",
    "choi_matrix",
    "choi",
    "map_from_choi",
    "kraus_from_choi",
    "is_completely_positive",
    "is_faithful_map",
    "stinespring_dilation",
    "dual_on_states",
    "tensor_channel",
]


@dataclass(eq=False)
class KrausSet:
    """Kraus family for ``T(x) = sum_k W_k* x W_k``.

    ``operators`` has shape (r, in_dim, out_dim); r is the Kraus rank.
    """

    operators: np.ndarray


@dataclass(eq=False)
class StinespringDilation:
    """Isometric dilation ``T(x) = V* (x (x) 1_r) V``.

    ``isometry`` has shape (in_dim * rank, out_dim) and satisfies
    V* V = T(1); for a unital map V is an isometry.
    """

    isometry: np.ndarray
    in_dim: int
    out_dim: int
    rank: int


@dataclass(eq=False)
class ProjectiveMeasurement:
    """Complete family of mutually orthogonal projections summing to 1."""

    projections: np.ndarray

    def __post_init__(self) -> None:
        self.projections = np.asarray(self.projections, dtype=complex)
        if self.projections.ndim != 2 and self.projections.ndim != 3:
            raise ShapeMismatch("projections must be a (k, n, n) array")
        if self.projections.ndim == 2:
            self.projections = self.projections[None]

    @property
    def ambient_dim(self) -> int:
        return self.projections.shape[1]

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        n = self.ambient_dim
        for p in self.projections:
            if not is_hermitian(p, tol):
                raise InvalidMeasurement("projection is not self-adjoint")
            if hs_norm(p @ p - p) > tol.eps_algebra * n:
                raise InvalidMeasurement("projection is not idempotent")
        k = self.projections.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                if hs_norm(self.projections[i] @ self.projections[j]) > tol.eps_algebra * n:
                    raise InvalidMeasurement("projections are not mutually orthogonal")
        if hs_norm(self.projections.sum(axis=0) - np.eye(n)) > tol.eps_algebra * n:
            raise InvalidMeasurement("projections do not sum to the identity")


@dataclass(eq=False)
class ChannelMap:
    """A linear map on a matrix algebra with certified properties.

    ``action`` maps vec coordinates of the domain's ambient algebra to vec
    coordinates of M_{out_dim}.  ``operation`` means completely positive and
    unital (a nonselective operation read against observables).  Every such
    map is normal in finite dimension, so normality is not recorded.
    """

    domain: MatrixStarAlgebra
    out_dim: int
    action: np.ndarray
    cp_certified: bool = field(default=False, init=False)
    unital: bool = field(default=False, init=False)
    faithful: bool = field(default=False, init=False)
    kraus: KrausSet | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        n = self.domain.ambient_dim
        self.action = np.asarray(self.action, dtype=complex)
        if self.action.shape != (self.out_dim**2, n**2):
            raise ShapeMismatch(
                f"action shape {self.action.shape} does not match "
                f"({self.out_dim**2}, {n**2})"
            )

    @property
    def in_dim(self) -> int:
        return self.domain.ambient_dim

    @property
    def operation(self) -> bool:
        return self.cp_certified and self.unital

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.in_dim, self.in_dim):
            raise ShapeMismatch(f"argument shape {x.shape}, expected square of size {self.in_dim}")
        return unvec(self.action @ vec(x), self.out_dim)


def superop_from_function(fn, domain: MatrixStarAlgebra, out_dim: int) -> np.ndarray:
    """Superoperator of fn on the domain span, composed with the expectation.

    Columns are assembled from the images of the orthonormal basis, so the
    matrix annihilates the orthogonal complement of the span.
    """
    cols = np.stack([vec(np.asarray(fn(b), dtype=complex)) for b in domain.basis], axis=1)
    return cols @ domain.basis_vecs.conj()


def superop_from_kraus(kraus: np.ndarray) -> np.ndarray:
    """``sum_k kron(W_k.T, W_k*)`` so that vec(sum W* x W) = S vec(x)."""
    ws = np.asarray(kraus, dtype=complex)
    return sum(np.kron(w.T, dagger(w)) for w in ws)


def choi_matrix(action: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Block matrix sum_ij E_ij (x) T(E_ij) of a raw superoperator.

    Entry (i m + k, j m + l) is T(E_ij)[k, l] = action[l m + k, j n + i], so
    it swaps the outermost and innermost index; ``map_from_choi`` swaps back.
    """
    n, m = in_dim, out_dim
    return np.reshape(action, (m, m, n, n)).transpose(3, 1, 2, 0).reshape(n * m, n * m)


def choi(channel: ChannelMap) -> np.ndarray:
    """Choi block matrix of a map defined on a full matrix algebra."""
    n = channel.in_dim
    if channel.domain.dim != n * n:
        raise DomainNotFull(
            "the block-matrix representation needs the full ambient algebra as "
            "domain; choi_matrix reads the action of a map on a subalgebra"
        )
    return choi_matrix(channel.action, n, channel.out_dim)


def map_from_choi(c: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Superoperator whose Choi block matrix is ``c`` (inverse of choi_matrix)."""
    n, m = in_dim, out_dim
    c = np.asarray(c, dtype=complex)
    if c.shape != (n * m, n * m):
        raise ShapeMismatch(f"Choi matrix shape {c.shape}, expected {(n * m, n * m)}")
    return c.reshape(n, m, n, m).transpose(3, 1, 2, 0).reshape(m * m, n * n)


def kraus_from_choi(
    c: np.ndarray, in_dim: int, out_dim: int, tol: Tolerances = DEFAULT_TOL
) -> KrausSet:
    """Kraus family from the positive part of a Choi block matrix.

    The one complete-positivity test: raises NotCP when the matrix is not
    Hermitian or has an eigenvalue below -10 eps_psd times its spectral
    scale.  Eigenvalues up to eps_psd times the scale are dropped.
    """
    n, m = in_dim, out_dim
    c = np.asarray(c, dtype=complex)
    if not is_hermitian(c, tol):
        raise NotCP("Choi block matrix is not Hermitian")
    w, v = np.linalg.eigh(c)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] < -tol.eps_psd * scale * 10:
        raise NotCP(f"Choi block matrix has negative eigenvalue {w[0]:.3e}")
    keep = w > tol.eps_psd * scale
    if not keep.any():
        return KrausSet(np.zeros((1, n, m), dtype=complex))
    # a kept column is vec of W* (m x n, column-stacked), so its row-major (n, m) reshape is conj(W)
    return KrausSet((v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, n, m).conj())


def is_completely_positive(channel: ChannelMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Complete positivity of the map (as extended by the expectation).

    For a subalgebra domain the stored action is already the composition
    with the completely positive expectation onto the span, and the map is
    completely positive on the span exactly when that composition is.
    """
    n, m = channel.in_dim, channel.out_dim
    try:
        kraus_from_choi(choi_matrix(channel.action, n, m), n, m, tol)
    except NotCP:
        return False
    return True


def is_faithful_map(channel: ChannelMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """T(x*x) = 0 only for x = 0; for Kraus maps: sum_k W_k W_k* invertible."""
    if channel.kraus is None:
        raise NotCP("faithfulness test needs a Kraus family; certify the map first")
    ws = channel.kraus.operators
    gram = np.einsum("kij,klj->il", ws, ws.conj())
    return bool(np.linalg.eigvalsh(0.5 * (gram + dagger(gram)))[0] > tol.eps_psd)


def build_channel(
    domain: MatrixStarAlgebra,
    out_dim: int,
    action: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> ChannelMap:
    """Certified channel from a raw superoperator matrix: every flag is computed from scratch."""
    action = np.asarray(action, dtype=complex)
    n = domain.ambient_dim
    channel = ChannelMap(domain, out_dim, action)
    one_out = unvec(action @ vec(np.eye(n)), out_dim)
    channel.unital = hs_norm(one_out - np.eye(out_dim)) <= tol.eps_verify * out_dim
    try:
        channel.kraus = kraus_from_choi(choi_matrix(action, n, out_dim), n, out_dim, tol)
    except NotCP:
        return channel
    channel.cp_certified = True
    channel.faithful = is_faithful_map(channel, tol)
    return channel


def channel_from_kraus(
    kraus,
    in_dim: int,
    out_dim: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> ChannelMap:
    """Certified channel ``x -> sum_k W_k* x W_k`` on the full algebra."""
    ws = np.asarray(kraus, dtype=complex)
    if ws.ndim == 2:
        ws = ws[None]
    if out_dim is None:
        out_dim = ws.shape[2]
    if ws.shape[1] != in_dim or ws.shape[2] != out_dim:
        raise ShapeMismatch(
            f"Kraus stack of shape {ws.shape} does not map dimension "
            f"{in_dim} to {out_dim}"
        )
    return build_channel(full_matrix_algebra(in_dim), out_dim, superop_from_kraus(ws), tol)


def channel_on_algebra(
    a: MatrixStarAlgebra, kraus: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> ChannelMap:
    """Certified channel acting by the Kraus family on the algebra, zero off its span."""
    action = superop_from_kraus(kraus) @ a.expectation
    return build_channel(a, a.ambient_dim, action, tol)


def stinespring_dilation(
    channel: ChannelMap, tol: Tolerances = DEFAULT_TOL
) -> StinespringDilation:
    """Isometric dilation of a completely positive map.

    The Kraus family is stacked into V so that T(x) = V* (x (x) 1_r) V;
    the factorization is verified on the domain basis before returning.
    """
    if channel.kraus is None:
        raise NotCP("dilation needs a certified completely positive map")
    ws = channel.kraus.operators
    r, n, m = ws.shape
    v = np.transpose(ws, (1, 0, 2)).reshape(n * r, m)
    eye_r = np.eye(r)
    for b in channel.domain.basis:
        lhs = dagger(v) @ np.kron(b, eye_r) @ v
        rhs = channel.apply(b)
        if hs_norm(lhs - rhs) > tol.eps_verify * max(1.0, hs_norm(b)) * n:
            raise NotCP("dilation failed verification against the map")
    return StinespringDilation(v, n, m, r)


def dual_on_states(channel: ChannelMap, tol: Tolerances = DEFAULT_TOL) -> ChannelMap:
    """Adjoint map carrying density matrices backwards through the channel.

    tr(dual(rho) x) = tr(rho T(x)); the superoperator is the conjugate
    transpose of the stored action.  The dual of a unital completely
    positive map is completely positive and trace preserving.
    """
    return build_channel(
        full_matrix_algebra(channel.out_dim),
        channel.in_dim,
        dagger(channel.action),
        tol,
    )


def _tensor_superop(s1, n1, m1, s2, n2, m2) -> np.ndarray:
    """Superoperator of T1 (x) T2 from the factor superoperators.

    vec indexing interleaves the factors, so the Kronecker product of the
    factor matrices has to be re-threaded through an 8-index reshape.
    """
    t1 = s1.reshape(m1, m1, n1, n1)
    t2 = s2.reshape(m2, m2, n2, n2)
    big = np.einsum("aceg,bdfh->abcdefgh", t1, t2)
    mm, nn = m1 * m2, n1 * n2
    return big.reshape(mm * mm, nn * nn)


def tensor_channel(
    c1: ChannelMap, c2: ChannelMap, tol: Tolerances = DEFAULT_TOL
) -> ChannelMap:
    """Tensor product map on the Kronecker product of the domains, certified from scratch."""
    n1, n2 = c1.in_dim, c2.in_dim
    basis = np.einsum("aij,bkl->abikjl", c1.domain.basis, c2.domain.basis)
    domain = MatrixStarAlgebra(n1 * n2, basis.reshape(-1, n1 * n2, n1 * n2))
    action = _tensor_superop(c1.action, n1, c1.out_dim, c2.action, n2, c2.out_dim)
    return build_channel(domain, c1.out_dim * c2.out_dim, action, tol)
