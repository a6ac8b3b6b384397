"""States on matrix *-algebras and the joint-extension solver.

A state is represented by an ambient density matrix: ``phi(x) = tr(density
@ x)`` for x in the algebra.  Construction from functional data uses the
canonical in-span representer, whose ambient positivity is equivalent to
positivity of the functional on the algebra.  ``product_residual`` is the
one test that a density acts as the product of two states.

``extend_state`` decides whether prescribed marginals on two subalgebras
admit a joint density matrix on the ambient algebra.  It runs Dykstra's
alternating projections between the affine set of the marginal constraints
and the spectahedron {rho >= 0, tr rho = 1}, and resolves each problem into

* ``Feasible`` -- a joint density is produced and its marginal residual
  re-checked independently of the solver;
* ``InfeasibleCertified`` -- a separating pair is produced: Hermitian h1
  in A1 and h2 in A2 whose forced expectation phi1(h1) + phi2(h2) exceeds
  the largest eigenvalue of h1 + h2 by more than the certification margin
  (``verify_separating_pair``, the Farkas dual of the extension problem);
* ``Undecided`` -- the iteration stalled or hit max_iter without either.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .algebra import MatrixStarAlgebra
from .errors import (
    AmbientMismatch,
    IllConditioned,
    InvalidState,
    ShapeMismatch,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    hermitian_to_rvec,
    is_hermitian,
    rvec_to_hermitian,
)

__all__ = [
    "AlgebraState",
    "ExtensionOutcome",
    "canonical_trace_state",
    "state_from_values",
    "state_from_density",
    "is_faithful",
    "extend_state",
    "extend_state_batch",
    "separating_pair",
    "verify_separating_pair",
    "marginal_residual",
    "product_residual",
]

ExtensionStatus = Literal["Feasible", "InfeasibleCertified", "Undecided"]

#: Largest |tr(density) - 1| accepted for a state.  A normalized density
#: misses unit trace by about n * 1e-16 (one sum of n diagonal entries), so
#: the cut passes any desk-scale n and still rejects unnormalized input.
UNIT_TRACE_CUT = 1e-10

#: A separating pair certifies a refusal when its gap exceeds this many
#: eps_verify per unit of max(||h1||, ||h2||): far above the rounding of one
#: eigvalsh and two expectations, and of a span distance within eps_algebra.
SEPARATION_MARGIN = 10

#: Relative singular-value cut for the rank of the stacked constraint
#: observables.  Both Hermitian bases are orthonormal, so a direction the two
#: algebras share (the unit, at least) leaves a singular value at rounding
#: level, which must not be inverted in the affine projection.
CONSTRAINT_RANK_CUT = 1e-12

#: Largest HS movement of an iterate between two feasibility checks that counts as
#: standing still (rounding, for a unit-trace density); four in a row end as Undecided.
STALL_MOVE_CUT = 1e-12

#: Smallest norm of a gap direction's component in the constraints' row
#: space that is worth expanding: a smaller one is rounding of a zero gap.
DIRECTION_NORM_CUT = 1e-12


@dataclass(eq=False)
class AlgebraState:
    """Positive unital functional on an algebra, via an ambient density."""

    algebra: MatrixStarAlgebra
    density: np.ndarray

    def __post_init__(self) -> None:
        self.density = np.asarray(self.density, dtype=complex)
        n = self.algebra.ambient_dim
        if self.density.shape != (n, n):
            raise ShapeMismatch(f"density shape {self.density.shape}, ambient {n}")

    def expect(self, x: np.ndarray) -> complex:
        return complex(np.trace(self.density @ np.asarray(x, dtype=complex)))

    def expect_basis(self) -> np.ndarray:
        """Values on the algebra basis, phi(b_a) = tr(rho b_a), the conjugate of <b_a, rho*>."""
        return self.algebra.coefficients(dagger(self.density)).conj()

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Check the density is Hermitian, positive and of unit trace; return its ascending spectrum."""
        if not is_hermitian(self.density, tol):
            raise InvalidState("density is not Hermitian")
        evals = np.linalg.eigvalsh(0.5 * (self.density + dagger(self.density)))
        if evals[0] < -tol.eps_psd * max(1.0, evals[-1]):
            raise InvalidState(f"density is not positive (eigenvalue {evals[0]:.3e})")
        if abs(float(np.real(np.trace(self.density))) - 1.0) > UNIT_TRACE_CUT:
            raise InvalidState("density does not have unit trace")
        return evals

    def is_faithful(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return is_faithful(self, tol)


def is_faithful(state: AlgebraState, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Nondegeneracy of the inner product phi(x* y) on the state's algebra B.

    Decided from the n x n spectrum of sigma = E_B(rho), the HS projection
    of the density onto B, not from the dim x dim Gram matrix
    G[a, b] = tr(b_a* b_b rho).  B is unital, so E_B is the trace-preserving
    conditional expectation: it fixes B and is a B-bimodule map, hence
    tr(rho x* y) = tr(sigma x* y) for x, y in B, and G is the matrix of
    right multiplication x -> x sigma on B.  In block form
    B = sum_k M_{n_k} (x) 1_{m_k} with sigma = sum_k sigma_k (x) 1_{m_k},
    G has the eigenvalues of the sigma_k (each n_k times) and sigma has the
    same ones (each m_k times).  So the smallest and largest Gram
    eigenvalues equal those of sigma, and the test
    lambda_min > eps_psd * max(1, lambda_max) gives the same answer.
    """
    sigma = state.algebra.project(state.density)
    evals = np.linalg.eigvalsh(0.5 * (sigma + dagger(sigma)))
    return bool(evals[0] > tol.eps_psd * max(1.0, evals[-1]))


def canonical_trace_state(algebra: MatrixStarAlgebra) -> AlgebraState:
    """The normalized trace, which is faithful on every algebra."""
    n = algebra.ambient_dim
    return AlgebraState(algebra, np.eye(n, dtype=complex) / n)


def _representer(algebra: MatrixStarAlgebra, values: np.ndarray) -> np.ndarray:
    """The in-span representer sum_a phi(b_a) b_a* of basis values: tr(rep x) = phi(x) on the span."""
    return dagger(algebra.combine(np.conj(values)))


def state_from_values(
    algebra: MatrixStarAlgebra, values: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> AlgebraState:
    """State with prescribed basis values phi(b_a).

    The density is the canonical in-span representer sum_a phi(b_a) b_a*;
    for a positive unital functional this is a genuine density matrix,
    which validation confirms.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != (algebra.dim,):
        raise ShapeMismatch(f"expected {algebra.dim} basis values, got {values.shape}")
    return state_from_density(algebra, _representer(algebra, values), tol)


def state_from_density(
    algebra: MatrixStarAlgebra, rho: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> AlgebraState:
    """State read off an ambient density matrix; the density is kept as is."""
    state = AlgebraState(algebra, np.asarray(rho, dtype=complex))
    state.validate(tol)
    return state


# ---------------------------------------------------------------------------
# joint extension
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExtensionOutcome:
    """Result of a joint-extension problem.

    ``density`` is the joint density matrix when feasible.  ``certificate``
    is the refusal: a ``separating_pair`` {h1, h2, gap}, already checked by
    ``verify_separating_pair`` against the two marginals.  ``residual`` is
    the final marginal residual (max norm).
    """

    status: ExtensionStatus
    density: np.ndarray | None = None
    certificate: dict | None = None
    iterations: int = 0
    residual: float = float("nan")


def _check_hermitian_pair(h1: np.ndarray, h2: np.ndarray, n: int, tol: Tolerances) -> None:
    """Raise unless h1 and h2 are Hermitian n x n matrices: eigvalsh reads only one triangle."""
    for label, h in (("h1", h1), ("h2", h2)):
        if np.shape(h) != (n, n):
            raise ShapeMismatch(f"{label} has shape {np.shape(h)}, ambient {n}")
        if not is_hermitian(h, tol):
            raise IllConditioned(f"{label} is not Hermitian")


def verify_separating_pair(
    h1: np.ndarray,
    h2: np.ndarray,
    state1: AlgebraState,
    state2: AlgebraState,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Check a refusal certificate for the marginals (phi1, phi2); return its gap.

    h1 and h2 must be Hermitian elements of the two states' algebras with
    gap = phi1(h1) + phi2(h2) - lambda_max(h1 + h2) above the certification
    margin times max(||h1||, ||h2||) (operator norms).  A joint state omega
    would give omega(h1 + h2) = phi1(h1) + phi2(h2) <= lambda_max(h1 + h2), so
    none exists (Boyd and Vandenberghe, Convex Optimization, sec. 5.9).  One
    eigvalsh of the stack (h1, h2, h1 + h2) gives both the gap and the scale,
    as ||h|| = max |lambda| for a Hermitian h.
    """
    _check_hermitian_pair(h1, h2, state1.algebra.ambient_dim, tol)
    return _separation_gap(h1, h2, state1, state2, tol)


def _separation_gap(
    h1: np.ndarray, h2: np.ndarray, state1: AlgebraState, state2: AlgebraState, tol: Tolerances
) -> float:
    """``verify_separating_pair`` for a pair already checked Hermitian and n x n."""
    for label, h, state in (("h1", h1, state1), ("h2", h2, state2)):
        if not state.algebra.contains(h, tol):
            raise IllConditioned(
                f"{label} is {state.algebra.distance_to_span(h):.3e} away from its algebra"
            )
    forced = state1.expect(h1).real + state2.expect(h2).real
    w = np.linalg.eigvalsh(np.stack((h1, h2, h1 + h2)))
    gap = float(forced - w[2, -1])
    scale = float(np.abs(w[:2]).max())
    if not gap > SEPARATION_MARGIN * tol.eps_verify * scale:
        raise IllConditioned(f"separation gap {gap:.3e} does not clear the margin at scale {scale:.3e}")
    return gap


def separating_pair(
    h1: np.ndarray,
    h2: np.ndarray,
    state1: AlgebraState,
    state2: AlgebraState,
    tol: Tolerances = DEFAULT_TOL,
) -> dict:
    """The refusal certificate of (h1, h2), scaled to max(||h1||, ||h2||) = 1 and checked.

    The scale is read from one eigvalsh of (h1, h2), after both are checked
    Hermitian; scaling keeps them so, and the scaled pair's gap is checked
    without checking them again.  Raises IllConditioned when the scaled pair
    fails ``verify_separating_pair``.
    """
    _check_hermitian_pair(h1, h2, state1.algebra.ambient_dim, tol)
    scale = float(np.abs(np.linalg.eigvalsh(np.stack((h1, h2)))).max())
    if not scale > 0:
        raise IllConditioned("a separating pair needs a nonzero element")
    h1, h2 = h1 / scale, h2 / scale
    gap = _separation_gap(h1, h2, state1, state2, tol)
    return {"kind": "separating_pair", "h1": h1, "h2": h2, "gap": gap}


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    b, n = v.shape
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, n + 1)
    positive = u - (css - 1.0) / ks > 0
    rho = positive.sum(axis=1)
    rho = np.maximum(rho, 1)
    theta = (css[np.arange(b), rho - 1] - 1.0) / rho
    return np.maximum(v - theta[:, None], 0.0)


def _project_spectahedron(x: np.ndarray, n: int) -> np.ndarray:
    """Rows are rvec coordinates; project onto {rho >= 0, tr rho = 1}.

    This is the exact metric projection: the spectrum is projected onto the
    probability simplex in the eigenbasis, which clips negative directions
    and restores unit trace simultaneously.
    """
    mats = rvec_to_hermitian(x, n)
    w, v = np.linalg.eigh(mats)
    w = _project_simplex(w)
    mats = np.einsum("bik,bk,bjk->bij", v, w, v.conj())
    return hermitian_to_rvec(mats)


def marginal_residual(rho: np.ndarray, states: Sequence[AlgebraState]) -> float:
    """Largest deviation of the density's marginals from the given states."""
    return max((float(np.abs(AlgebraState(s.algebra, rho).expect_basis() - s.expect_basis()).max())
                for s in states), default=0.0)


def extend_state(
    state1: AlgebraState,
    state2: AlgebraState,
    tol: Tolerances = DEFAULT_TOL,
    max_iter: int = 20000,
) -> ExtensionOutcome:
    """Joint density matrix with the two given marginals, or a refusal.

    The solver is symmetric in its arguments and its feasible densities are
    re-checked against both marginals independently before being returned.
    """
    return extend_state_batch([(state1, state2)], tol, max_iter)[0]


def extend_state_batch(
    pairs: Sequence[tuple[AlgebraState, AlgebraState]],
    tol: Tolerances = DEFAULT_TOL,
    max_iter: int = 20000,
) -> list[ExtensionOutcome]:
    """Solve many joint-extension problems over one algebra pair at once.

    Every pair must involve the same two algebras so the constraint matrix
    is shared; the problems then run in lockstep with batched
    eigendecompositions, which is how the randomized sweeps stay cheap.
    """
    if not pairs:
        return []
    a1, a2 = pairs[0][0].algebra, pairs[0][1].algebra
    n = a1.ambient_dim
    if a2.ambient_dim != n:
        raise AmbientMismatch("marginals live in different ambient algebras")
    for s1, s2 in pairs:
        for s, a in ((s1, a1), (s2, a2)):
            if s.algebra is not a and not np.array_equal(s.algebra.basis, a.basis):
                raise AmbientMismatch("all pairs must share the same algebra pair")
        s1.validate(tol)
        s2.validate(tol)

    h_mats = np.concatenate([a1.hermitian_basis, a2.hermitian_basis], axis=0)
    c_mat = hermitian_to_rvec(h_mats)
    targets = np.stack(
        [
            np.concatenate(
                [
                    np.real(np.einsum("ij,aji->a", s1.density, a1.hermitian_basis)),
                    np.real(np.einsum("ij,aji->a", s2.density, a2.hermitian_basis)),
                ]
            )
            for s1, s2 in pairs
        ]
    )
    u_svd, s_svd, vt_svd = np.linalg.svd(c_mat, full_matrices=False)
    rank = int(np.count_nonzero(s_svd > CONSTRAINT_RANK_CUT * s_svd[0]))
    u_r, s_r, vt_r = u_svd[:, :rank], s_svd[:rank], vt_svd[:rank]

    b = len(pairs)
    outcomes: list[ExtensionOutcome | None] = [None] * b
    active = np.ones(b, dtype=bool)
    k1 = len(a1.hermitian_basis)
    margin = SEPARATION_MARGIN * tol.eps_verify

    def refuse(i: int, u: np.ndarray, it: int) -> None:
        """Certify problem i by the split of sum_k u_k h_k at dim A1, if it separates."""
        h1 = np.tensordot(u[:k1], h_mats[:k1], axes=(0, 0))
        h2 = np.tensordot(u[k1:], h_mats[k1:], axes=(0, 0))
        try:
            cert = separating_pair(h1, h2, *pairs[i], tol)
        except IllConditioned:
            return
        outcomes[i] = ExtensionOutcome("InfeasibleCertified", certificate=cert, iterations=it)
        active[i] = False

    # affine consistency first: a relation sum_k u_k h_k = 0 with
    # sum_k u_k t_k != 0 rules out any solution; oriented so that the forced
    # value is positive, its split separates with lambda_max(h1 + h2) = 0
    x_ls = (targets @ u_r / s_r) @ vt_r
    resid_vec = x_ls @ c_mat.T - targets
    for i in np.nonzero(np.linalg.norm(resid_vec, axis=1) > margin)[0]:
        refuse(i, np.sign(resid_vec[i] @ targets[i]) * resid_vec[i], 0)

    x = np.tile(hermitian_to_rvec(np.eye(n) / n), (b, 1))
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    prev = x.copy()
    quiet = np.zeros(b, dtype=int)
    pinv_t = (u_r / s_r) @ vt_r  # (K, D): residual @ pinv_t corrects the affine part

    it = 0
    while it < max_iter and active.any():
        it += 1
        idx = np.nonzero(active)[0]
        y = x[idx] + p_corr[idx]
        a_pt = y - ((y @ c_mat.T) - targets[idx]) @ pinv_t
        p_corr[idx] = y - a_pt
        z = a_pt + q_corr[idx]
        b_pt = _project_spectahedron(z, n)
        q_corr[idx] = z - b_pt
        x[idx] = b_pt

        if it % 25 == 0:
            # feasibility: the PSD iterate already satisfies the marginals
            m_resid = np.abs(b_pt @ c_mat.T - targets[idx]).max(axis=1)
            done = m_resid <= tol.eps_verify
            for j, i in enumerate(idx[done]):
                outcomes[i] = ExtensionOutcome(
                    status="Feasible",
                    density=rvec_to_hermitian(b_pt[done][j], n),
                    iterations=it,
                    residual=float(m_resid[done][j]),
                )
                active[i] = False
            live = ~done
            if live.any():
                rows, coefs = _separating_directions(
                    a_pt[live] - b_pt[live], targets[idx[live]], h_mats, (u_r, s_r, vt_r), margin
                )
                for j, u in zip(rows, coefs):
                    refuse(idx[live][j], u, it)
            # stall: essentially no movement across four consecutive checks
            idx2 = np.nonzero(active)[0]
            change = np.linalg.norm(x[idx2] - prev[idx2], axis=1)
            quiet[idx2] = np.where(change < STALL_MOVE_CUT, quiet[idx2] + 1, 0)
            for i in idx2[quiet[idx2] >= 4]:
                resid = float(np.abs(x[i] @ c_mat.T - targets[i]).max())
                outcomes[i] = ExtensionOutcome(
                    status="Undecided", iterations=it, residual=resid
                )
                active[i] = False
            prev = x.copy()

    for i in np.nonzero(active)[0]:
        resid = float(np.abs(x[i] @ c_mat.T - targets[i]).max())
        outcomes[i] = ExtensionOutcome(status="Undecided", iterations=it, residual=resid)
    return outcomes  # type: ignore[return-value]


def _separating_directions(deltas, targets, h_mats, svd, margin):
    """Rows of the affine/PSD gap directions that separate, and their coefficients.

    Each direction is replaced by an exact combination h = sum_k u_k h_k of
    constraint observables; any density matching the marginals must give h
    the expectation sum_k u_k t_k, which none can if that value exceeds the
    largest eigenvalue of h by more than the margin per unit HS norm.  This
    batched screen only proposes: ``refuse`` certifies the split of u.
    """
    u_r, s_r, vt_r = svd
    w = deltas @ vt_r.T
    ok = np.nonzero(np.linalg.norm(w, axis=1) > DIRECTION_NORM_CUT)[0]
    u_coef = (w[ok] / s_r) @ u_r.T
    h_dirs = np.tensordot(u_coef, h_mats, axes=(1, 0))
    h_norms = np.linalg.norm(hermitian_to_rvec(h_dirs), axis=1)
    forced = np.einsum("bk,bk->b", u_coef, targets[ok])
    lam_max = np.linalg.eigvalsh(h_dirs)[:, -1]
    hit = forced - lam_max >= margin * h_norms
    return ok[hit], u_coef[hit]


# ---------------------------------------------------------------------------
# product states
# ---------------------------------------------------------------------------


def product_residual(
    rho: np.ndarray, state1: AlgebraState, state2: AlgebraState
) -> float:
    """Largest |tr(rho b_a c_b) - phi1(b_a) phi2(c_b)| over the basis pairs.

    Zero exactly when rho acts as the product of the two given states on
    every product x y of the two algebras.
    """
    a1, a2 = state1.algebra, state2.algebra
    # tr(rho b_a c_b) is A2's value on c_b of the density rho b_a (``expect_basis``), one GEMM for the stack
    prods = a2.coefficients(dagger(np.asarray(rho, dtype=complex) @ a1.basis)).conj()
    return float(np.abs(prods - np.outer(state1.expect_basis(), state2.expect_basis())).max())
