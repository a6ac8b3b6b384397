"""Unital *-subalgebras of a full matrix algebra.

An algebra is stored as an orthonormal basis (Hilbert-Schmidt inner product)
of its linear span.  Generation closes a generating set under products and
adjoints, adjoining the unit; structure analysis produces the block
decomposition  W* A W = sum_k M_{n_k} (x) 1_{m_k}  through explicitly
constructed matrix units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AmbientMismatch,
    IllConditioned,
    ShapeMismatch,
    ValidationError,
)
from .numerics import (
    DEFAULT_TOL,
    GAUGE_ATTEMPTS,
    Tolerances,
    _frozen,
    _seeded_gaussian,
    canonical_basis,
    dagger,
    hermitian_to_rvec,
    hs_norm,
    orthonormalize,
    rvec_to_hermitian,
)

__all__ = [
    "MatrixStarAlgebra",
    "AlgebraStructure",
    "full_matrix_algebra",
    "scalar_algebra",
    "generate_algebra",
    "commutant",
    "products",
    "commute_witness",
    "mutually_commute",
    "structure_decomposition",
    "conditional_expectation",
]

#: Relative singular-value cut for the rank of the Hermitian part: the 2d
#: candidates span exactly d real dimensions, so the extra values are
#: rounding of unit-scale entries, far below 1e-10.
HERMITIAN_RANK_CUT = 1e-10

#: Relative gap that splits a sorted spectrum into clusters.  Eigenvalues of
#: a random combination of orthonormal elements are spread on unit scale, so
#: one cluster's spread is rounding while distinct clusters differ by far
#: more than 1e-6 of the range (the draw is retried when they do not).
CLUSTER_GAP = 1e-6

#: Smallest HS norm of a corner P_a x P_b accepted as nonzero.  For minimal
#: projections of one block the corner P_a A P_b is spanned by e_ab / sqrt(m),
#: so for x = E_A(G) it is that unit vector times a standard complex Gaussian
#: coefficient of G: of order 1, while a vanishing one is rounding; 1e-8
#: leaves margin either way.
CORNER_NORM_CUT = 1e-8

#: Largest distance from an integer accepted for a count read off a trace of
#: projections (a joint cell rank): it holds to eps_algebra times n, so honest
#: counts are within 1e-8.
COUNT_CUT = 1e-6

#: Eigenvalue cut on a corner e_00 f_00 of a joint cell: a projection, so its
#: eigenvalues are 0 or 1 up to rounding, and the midpoint has most margin.
CORNER_EIGENVALUE_CUT = 0.5


@dataclass(eq=False)
class MatrixStarAlgebra:
    """Unital *-subalgebra of M_n, held as an HS-orthonormal basis.

    ``basis`` has shape (dim, n, n).  Invariants: the identity lies in the
    span, the span is closed under adjoints and products, and the basis is
    orthonormal.  Construction-site helpers guarantee these; ``validate``
    re-checks them on demand (the CLI runs it on parsed input).
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim != 3 or self.basis.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise ShapeMismatch(
                f"basis shape {self.basis.shape} does not match ambient dimension {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def basis_vecs(self) -> np.ndarray:
        """(dim, n^2) array whose rows are vec(b_i), for the superoperators' column-stacking convention."""
        return self.basis.transpose(0, 2, 1).reshape(self.dim, -1)

    @cached_property
    def span_adjoint(self) -> np.ndarray:
        """(n^2, dim) adjoint of the C-order basis rows ``basis.reshape(dim, n^2)``: with them, the span operator."""
        return _frozen(self.basis.reshape(self.dim, -1).conj().T)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """HS coefficients <b_a, x> of a matrix (n, n), or (k, dim) of a stack (k, n, n)."""
        return np.reshape(x, (*np.shape(x)[:-2], -1)) @ self.span_adjoint

    def combine(self, coefficients: np.ndarray) -> np.ndarray:
        """sum_a c_a b_a for a coefficient vector (dim,), or for each row of a stack (k, dim)."""
        c = np.asarray(coefficients)
        return (c @ self.basis.reshape(self.dim, -1)).reshape(*c.shape[:-1], *self.basis.shape[1:])

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of a matrix, or of each of a stack, onto the span."""
        return self.combine(self.coefficients(x))

    def distance_to_span(self, x: np.ndarray) -> float:
        return float(self.distances_to_span(np.asarray(x, dtype=complex)[None])[0])

    def distances_to_span(self, mats: np.ndarray) -> np.ndarray:
        """HS distance of each matrix of a stack (k, n, n) to the span, in two GEMMs."""
        return np.linalg.norm((mats - self.project(mats)).reshape(len(mats), -1), axis=1)

    def contains(self, x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
        scale = max(1.0, hs_norm(x))
        return self.distance_to_span(x) <= tol.eps_algebra * scale

    @cached_property
    def expectation(self) -> np.ndarray:
        """(n^2, n^2) superoperator of the HS-orthogonal projection onto the span.

        This is the trace-compatible conditional expectation onto the algebra.
        """
        return self.basis_vecs.T @ self.basis_vecs.conj()

    @cached_property
    def hermitian_basis(self) -> np.ndarray:
        """Real-orthonormal basis of the Hermitian part of the span.

        The span is adjoint closed, so its Hermitian part has real dimension
        equal to ``dim``; the result has shape (dim, n, n).
        """
        h = 0.5 * (self.basis + dagger(self.basis))
        k = (self.basis - dagger(self.basis)) / 2j
        cand = hermitian_to_rvec(np.concatenate([h, k], axis=0))
        _, s, vt = np.linalg.svd(cand, full_matrices=False)
        rank = int(np.count_nonzero(s > HERMITIAN_RANK_CUT * s[0]))
        if rank != self.dim:
            raise IllConditioned(
                f"Hermitian part has ambiguous rank {rank}, expected {self.dim}"
            )
        return rvec_to_hermitian(vt[:rank], self.ambient_dim)

    def structure(self, tol: Tolerances = DEFAULT_TOL) -> "AlgebraStructure":
        """Center, central projections, block sizes and matrix units, built once per ``tol``.

        Every reader of the structure goes through this cache, so (as for
        ``basis_vecs``) the basis must not change afterwards.
        """
        cache = self.__dict__.setdefault("_structures", {})
        if tol not in cache:
            cache[tol] = AlgebraStructure(self, tol)
        return cache[tol]

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        """Re-check orthonormality, the unit, adjoint and product closure.

        Closure is checked in batches: the distances of all adjoints at
        once, then of the products b_a b_c one row a at a time, so only d
        products are held at once.
        """
        if np.abs(self.coefficients(self.basis) - np.eye(self.dim)).max() > tol.eps_algebra:
            raise ValidationError("basis is not HS-orthonormal")
        if not self.contains(np.eye(self.ambient_dim), tol):
            raise ValidationError("identity is not in the span")
        if self.distances_to_span(dagger(self.basis)).max() > tol.eps_algebra:
            raise ValidationError("span is not closed under adjoints")
        for a in range(self.dim):
            prods = products(self.basis[a : a + 1], self.basis)[0]
            scale = np.maximum(1.0, np.linalg.norm(prods, axis=(1, 2)))
            if np.any(self.distances_to_span(prods) > tol.eps_algebra * scale):
                raise ValidationError("span is not closed under products")


def full_matrix_algebra(n: int) -> MatrixStarAlgebra:
    """The full algebra M_n with the matrix-unit basis: E_ij is element i n + j."""
    return MatrixStarAlgebra(n, np.eye(n * n).reshape(n * n, n, n))


def scalar_algebra(n: int) -> MatrixStarAlgebra:
    """The scalars C.1 inside M_n."""
    return MatrixStarAlgebra(n, (np.eye(n) / np.sqrt(n))[None, :, :])


def generate_algebra(
    generators,
    ambient_dim: int,
    tol: Tolerances = DEFAULT_TOL,
) -> MatrixStarAlgebra:
    """Smallest unital *-subalgebra of M_n containing the generators.

    The unit and all adjoints are adjoined, then the span is closed under
    pairwise products, round by round.  The first round that adds no
    dimension ends it: every product of two basis elements then lies in the
    span, which contains 1 and is adjoint closed (the products of an
    adjoint-closed span are), so the span is the algebra.  The basis is then
    put in the canonical gauge of its span, so it does not depend on the
    generators' order or the BLAS schedule.
    """
    n = ambient_dim
    mats = [np.eye(n, dtype=complex)]
    for g in generators:
        g = np.asarray(g, dtype=complex)
        if g.shape != (n, n):
            raise ShapeMismatch(f"generator of shape {g.shape} in ambient dimension {n}")
        mats.append(g)
        mats.append(dagger(g))
    basis = orthonormalize(np.stack(mats))
    while True:
        prods = products(basis, basis).reshape(-1, n, n)
        grown = orthonormalize(np.concatenate([basis, prods], axis=0))
        if grown.shape[0] == basis.shape[0]:
            break
        basis = grown
        if basis.shape[0] > n * n:
            raise IllConditioned("closure exceeded the ambient dimension bound")
    return MatrixStarAlgebra(n, canonical_basis(basis))


def _check_same_ambient(a1: MatrixStarAlgebra, a2: MatrixStarAlgebra) -> None:
    if a1.ambient_dim != a2.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {a1.ambient_dim} vs {a2.ambient_dim}"
        )


def commutant(a: MatrixStarAlgebra, tol: Tolerances = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Relative commutant of the algebra inside the ambient matrix algebra, from its block structure.

    With the intertwiner W of ``structure_decomposition``, W* A W = sum_k
    M_{n_k} (x) 1_{m_k}, the first algebra of the diagonal cell table with
    sizes n_k and m_k (``_cell_form``), so A' = W B W* for its second
    algebra B = sum_k 1_{n_k} (x) M_{m_k}; the basis is put in the canonical
    gauge of its span.
    """
    st = structure_decomposition(a, tol)
    _, b = _cell_form(np.eye(len(st.sizes), dtype=int), st.sizes, st.multiplicities)
    return MatrixStarAlgebra(a.ambient_dim, canonical_basis(st.intertwiner @ b.basis @ dagger(st.intertwiner)))


def products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_a y_b for every pair of matrices in two stacks, shape (dx, dy, n, n).

    One GEMM: the rows (a, i) of x against the columns (b, k) of y.
    """
    dx, n, _ = x.shape
    dy = y.shape[0]
    flat = x.reshape(dx * n, n) @ y.transpose(1, 0, 2).reshape(n, dy * n)
    return flat.reshape(dx, n, dy, n).transpose(0, 2, 1, 3)


def commute_witness(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(x, y, entry): the largest entry of [e, f] over A1's column units e and A2's column units f and their adjoints.

    The sum_k n_k <= n column units e_a0 of each structure, not the whole
    bases, decide commutation exactly: the e_a0 and their adjoints generate
    A1 (e_ab = e_a0 e_b0*, and sum_a e_aa is the central projection), the f
    and f* generate A2 likewise, and [e, .] is a derivation with [e*, f] =
    -[e, f*]*.  So the pair commutes iff every entry vanishes, and otherwise
    x is a column unit of A1 and y a column unit of A2 or its adjoint, a pair
    of non-commuting elements.
    """
    _check_same_ambient(a1, a2)
    e = np.concatenate(a1.structure(tol).column_units)
    f = np.concatenate(a2.structure(tol).column_units)
    f = np.concatenate([f, dagger(f)])
    comm = products(e, f)
    comm -= products(f, e).transpose(1, 0, 2, 3)
    skew = np.abs(comm).max(axis=(2, 3))
    i, j = np.unravel_index(skew.argmax(), skew.shape)
    return e[i], f[j], float(skew[i, j])


def mutually_commute(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """True when the two algebras commute within eps_algebra (``commute_witness``)."""
    return commute_witness(a1, a2, tol)[2] <= tol.eps_algebra


# ---------------------------------------------------------------------------
# structure analysis
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AlgebraStructure:
    """Central structure and matrix units of one algebra at one tolerance (``MatrixStarAlgebra.structure``).

    All of it comes from one eigh of the seeded Hermitian element h of
    attempt t, read against the seeded x (``_seeded_elements``); a failed
    check moves on to attempt t + 1, up to GAUGE_ATTEMPTS.  For A = sum_k
    M_{n_k} (x) 1_{m_k}, h = sum_k h_k (x) 1, so each spectral cluster P_a of h
    is a sum of minimal projections of A, one when the eigenvalues of h are
    distinct; the clusters must lie in A.  Clusters a and b are related when
    their corner P_a x P_b is nonzero; as x lies in A, related clusters share
    a block, and for a generic x every two clusters of one block are related
    (p A q is the line of a matrix unit for minimal p, q of one block).  The
    relation must be an equivalence; its classes are taken as the blocks, and
    every cluster of a class must have the rank of the class's first
    (lowest) cluster P_0.  Then z_k = sum_a P_a over the class, n_k is its
    number of clusters, m_k their rank, and e_a0 = P_a x P_0 sqrt(m_k) /
    |P_a x P_0| (``column_units``), as P_a A P_0 is spanned by e_a0; e_00 is
    P_0 up to a phase.

    The count sum_k n_k^2 = dim A certifies the grouping.  Say class K has
    p_K clusters holding N_Kk minimal projections of block k.  Every two of
    its clusters share a block, so p_K (p_K - 1) <= sum_k N_Kk (N_Kk - 1),
    and p_K <= sum_k N_Kk; so p_K^2 <= sum_k N_Kk^2, and summing over K,
    sum_K p_K^2 <= sum_k n_k^2 = dim A.  Equality holds only when each
    cluster is one minimal projection and each class one whole block.  For
    instance, a merged cluster inside a block of several clusters also breaks
    the equal-rank check, merging two one-cluster blocks lowers the count by
    1, and splitting a block into p1 + p2 clusters lowers it by 2 p1 p2.

    ``projections``: the z_k, exactly 1 for a factor, by rank n_k m_k and then
    by the lowest eigenvalue of h in each, which no gauge moves: h depends on
    the span alone and its clusters lie CLUSTER_GAP apart.  ``sizes``,
    ``multiplicities``: n_k and m_k.  ``leaders``: the eigenvectors of h
    that span P_0 of each block, an (n, m_k) array each.  The rest is built
    on first read: ``blocks`` the pairs (n_k, m_k), ``first_units`` the matrix
    units e_a0 e_00* (so the first is the projection P_0), ``intertwiner`` the
    unitary W of the block form from the first units and the leaders
    (checked by ``structure_decomposition``), and ``units`` the verified
    matrix units e_ab = e_a0 e_b0*, whose only reader is the cell basis of a
    joint table (``independence.JointCells.cell_basis``).
    """

    algebra: MatrixStarAlgebra
    tol: Tolerances

    def __post_init__(self) -> None:
        a = self.algebra
        for attempt in range(GAUGE_ATTEMPTS):
            found = _cluster_blocks(a, *_seeded_elements(a, attempt), self.tol)
            if found is not None:
                break
        else:
            raise IllConditioned(f"no seeded element of {GAUGE_ATTEMPTS} resolves the blocks")
        self.is_factor = len(found) == 1
        if self.is_factor:
            found = [(np.eye(a.ambient_dim, dtype=complex), *found[0][1:])]
        else:
            found.sort(key=lambda block: len(block[1]) * block[2])  # rank n_k m_k; equal ranks keep h's order
        self.projections = [z for z, _, _, _ in found]
        self.column_units = [e for _, e, _, _ in found]
        self.sizes = [len(e) for e in self.column_units]
        self.multiplicities = [m for _, _, m, _ in found]
        self.leaders = [v for _, _, _, v in found]

    @cached_property
    def blocks(self) -> list[tuple[int, int]]:
        """(n_k, m_k) of every block, in the order of ``projections``."""
        return list(zip(self.sizes, self.multiplicities))

    @cached_property
    def first_units(self) -> list[np.ndarray]:
        """The matrix units e_a0 e_00* of every block's first column, a stack (n_k, n, n) each."""
        return [e @ dagger(e[0]) for e in self.column_units]

    @cached_property
    def units(self) -> list[np.ndarray]:
        """Matrix units of every block, a stack (n_k, n_k, n, n) each, in the order of ``projections``."""
        units = []
        for z, e in zip(self.projections, self.column_units):
            if len(e) == 1:
                u = z[None, None].copy()
            else:
                u = e[:, None] @ dagger(e)[None, :]
                _verify_units(u, z, self.tol)
            units.append(u)
        return units

    @cached_property
    def intertwiner(self) -> np.ndarray:
        """W with W* a W = sum_k a_k (x) 1_{m_k}; read-only.

        Column (alpha, s) of block k is (e_alpha0 e_00*) xi_s, with xi the
        canonical basis of the range of P_0, which the leader eigenvectors
        span; so W depends on the span of A alone.  W is the identity for M_n.
        """
        n = self.algebra.ambient_dim
        if self.algebra.dim == n * n:
            return _frozen(np.eye(n, dtype=complex))
        cols = [e @ _column_basis(v) for e, v in zip(self.first_units, self.leaders)]
        return _frozen(np.concatenate([c.transpose(1, 0, 2).reshape(n, -1) for c in cols], axis=1))


def _seeded_elements(a: MatrixStarAlgebra, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """(E_A(G + G*), E_A(G')) for the seeded Gaussians G, G' of one attempt, in one projection.

    E_A is the trace-preserving conditional expectation (``project``), which
    does not depend on the orthonormal basis stored; it commutes with the
    adjoint, as the span is adjoint closed, so E_A(G + G*) = E_A(G) + E_A(G)*.
    """
    g, x = a.project(_seeded_gaussian((2, *a.basis.shape[1:]), attempt))
    return g + dagger(g), x


def _cluster_blocks(a, h, x, tol):
    """[(z_k, e_k0 stack, m_k, P_0's eigenvectors)] of each block, by lowest cluster, from one eigh of h, or None.

    See ``AlgebraStructure``.  The cluster projections P_a are one masked
    product of the eigenvectors V, and the corner norms |P_a x P_b| =
    |V_a* x V_b| are the norms of the cluster blocks of V* x V.  One stable
    argsort of the class labels puts the clusters class by class, so each
    z_k is one ``add.reduceat`` segment.
    """
    w, v = np.linalg.eigh(h)
    label = np.zeros(len(w), dtype=np.intp)
    np.cumsum(w[1:] - w[:-1] > CLUSTER_GAP * max(float(w[-1] - w[0]), 1.0), out=label[1:])
    ranks = np.bincount(label)
    diag = (v * (label == np.arange(len(ranks))[:, None])[:, None, :]) @ dagger(v)
    if a.distances_to_span(diag).max() > a.ambient_dim * tol.eps_algebra:
        return None
    starts = np.cumsum(ranks) - ranks
    y = dagger(v) @ x @ v
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(y.real**2 + y.imag**2, starts, axis=0), starts, axis=1))
    related = norms > CORNER_NORM_CUT
    first = related.argmax(axis=1)  # the first related cluster: P_0 of the class, if the relation is an equivalence
    if (related != (first[:, None] == first)).any() or (ranks != ranks[first]).any():
        return None
    counts = np.bincount(first)
    if counts @ counts != a.dim:
        return None
    units = diag @ x @ diag[first] * (np.sqrt(ranks) / norms[np.arange(len(first)), first])[:, None, None]
    leaders = np.flatnonzero(counts)
    ends = np.cumsum(counts[leaders])
    begins = ends - counts[leaders]
    order = np.argsort(first, kind="stable")  # class by class, each in cluster order
    z, units = np.add.reduceat(diag[order], begins, axis=0), units[order]
    return [(z[k], units[b:e], int(ranks[lead]), v[:, starts[lead]:starts[lead] + ranks[lead]])
            for k, (lead, b, e) in enumerate(zip(leaders, begins, ends))]


def _verify_units(units, z, tol):
    size = units.shape[0]
    n = z.shape[0]
    diag = units[np.arange(size), np.arange(size)]
    if hs_norm(diag.sum(axis=0) - z) > tol.eps_verify * n:
        raise IllConditioned("diagonal matrix units do not resolve the block unit")
    lhs = units @ units.transpose(1, 0, 2, 3)
    if np.linalg.norm(lhs - diag[:, None], axis=(2, 3)).max() > tol.eps_verify * n:
        raise IllConditioned("matrix-unit relations fail numerically")


def _column_basis(v: np.ndarray) -> np.ndarray:
    """The canonical orthonormal basis (``canonical_basis``) of the span of the columns of ``v``, as columns."""
    return canonical_basis(v.T[:, :, None])[:, :, 0].T


def _cell_columns(e: np.ndarray, f: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal columns e_a0 f_b0 xi_s spanning one joint cell, shape (n, k, l, rank).

    ``e`` (k, n, n) and ``f`` (l, n, n) are the first units of commuting
    blocks (``AlgebraStructure.first_units``), so e[0] f[0] = P_0 Q_0 is a
    projection; xi is a basis of its range (the symmetrized corner's
    eigenvectors above CORNER_EIGENVALUE_CUT) in the canonical gauge, so the
    columns depend on the units alone.
    """
    corner = e[0] @ f[0]
    w, v = np.linalg.eigh(0.5 * (corner + dagger(corner)))
    xi = _column_basis(v[:, w > CORNER_EIGENVALUE_CUT])
    if xi.shape[1] != rank:
        raise IllConditioned(f"corner projection has rank {xi.shape[1]}, expected {rank}")
    return (e[:, None] @ f[None, :] @ xi).transpose(2, 0, 1, 3)


def structure_decomposition(
    a: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> AlgebraStructure:
    """The algebra's cached structure (``MatrixStarAlgebra.structure``), with its intertwiner checked.

    Its blocks [(n_k, m_k), ...] have sum n_k m_k = ambient_dim and sum
    n_k^2 = dim, and its intertwiner W is unitary and sends every algebra
    element to a direct sum of x_k (x) 1_{m_k}; both are checked here.
    """
    n = a.ambient_dim
    s = a.structure(tol)
    w = s.intertwiner
    if hs_norm(dagger(w) @ w - np.eye(n)) > tol.eps_verify * n:
        raise IllConditioned("assembled intertwiner is not unitary")
    _verify_structure(a, w, s.blocks, tol)
    return s


def _verify_structure(a, w, blocks, tol):
    """Check that every W* b W lies in sum_k M_{n_k} (x) 1_{m_k}, the diagonal cell table's first algebra."""
    n, d = a.ambient_dim, a.dim
    if sum(nk * mk for nk, mk in blocks) != n:
        raise IllConditioned("block dimensions do not add up to the ambient dimension")
    if sum(nk * nk for nk, mk in blocks) != d:
        raise IllConditioned("block dimensions do not add up to the algebra dimension")
    form, _ = _cell_form(np.eye(len(blocks), dtype=int), *zip(*blocks))  # sizes n_k, m_k
    resid = form.distances_to_span(dagger(w) @ a.basis @ w)
    bound = tol.eps_verify * np.maximum(1.0, np.linalg.norm(a.basis.reshape(d, n * n), axis=1))
    bad = resid > bound
    if np.any(bad):
        raise IllConditioned(
            f"conjugated basis element is not in block form (residual {resid[bad][0]:.2e})"
        )


def _cell_form(mu, sizes1, sizes2) -> tuple[MatrixStarAlgebra, MatrixStarAlgebra]:
    """The cell theorem's standard pair: A1, A2 on legs 1, 2 of sum_ij C^{n_i} (x) C^{m_j} (x) C^{mu_ij}.

    Cell (i, j), mu_ij > 0, holds the next n_i m_j mu_ij indices (row-major
    cells), leg values (a, b, s) at (a m_j + b) mu_ij + s.  Block k of a side
    lays its cells' indices out as rows[p, r] (leg value p, rest r < R), and
    its E_pq, element p size + q, is 1 / sqrt(R) at every (rows[p, r], rows[q, r]).
    """
    mu = np.asarray(mu)
    cells = np.argwhere(mu)
    legs = [(sizes1[i], sizes2[j], mu[i, j]) for i, j in cells]
    ends = np.cumsum([math.prod(leg) for leg in legs])
    n = int(ends[-1])
    index = [np.arange(end - math.prod(leg), end).reshape(leg) for leg, end in zip(legs, ends)]
    pair = []
    for side, sizes in enumerate((sizes1, sizes2)):
        basis = np.zeros((sum(size * size for size in sizes), n, n), dtype=complex)
        start = 0
        for k, size in enumerate(sizes):
            rows = np.concatenate([x.swapaxes(0, side).reshape(size, -1)
                                   for x, cell in zip(index, cells) if cell[side] == k], axis=1)
            p = np.arange(size)
            basis[(start + p[:, None] * size + p)[:, :, None], rows[:, None], rows[None]] = 1 / np.sqrt(rows.shape[1])
            start += size * size
        pair.append(MatrixStarAlgebra(n, basis))
    return pair[0], pair[1]


def conditional_expectation(a: MatrixStarAlgebra, tol: Tolerances = DEFAULT_TOL):
    """Trace-compatible conditional expectation onto the algebra.

    The HS-orthogonal projection onto the span of a unital *-subalgebra is
    completely positive, unital, idempotent, faithful and bimodular; the
    returned channel carries certified flags.
    """
    from .channels import build_channel

    return build_channel(full_matrix_algebra(a.ambient_dim), a.ambient_dim, a.expectation, tol)
