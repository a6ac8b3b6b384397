"""Independence notions for pairs of subalgebras, with certificates.

Nine related properties of a pair (A1, A2) inside one matrix algebra are
decided here: plain joint-extendability of states (in both the C* and W*
readings, which coincide in finite dimension), product-sense independence,
their operational counterparts, and the existence of an interpolating
factor (the split property).  Every verdict is one of ``Holds`` with a
checkable certificate, ``Fails`` with an explicit witness, or ``Undecided``
with the reason spelled out.

For mutually commuting pairs all nine verdicts are decided exactly, and
never ``Undecided``, from one integer table.  With z_i, w_j the minimal
central projections of the two algebras (blocks M_{n_i} and M_{m_j}), the
cell theorem says that the join is the direct sum of M_{n_i} (x) M_{m_j}
over the nonzero cells z_i w_j (Davidson, C*-Algebras by Example, ch. III),
each with multiplicity mu_ij = rank(z_i w_j) / (n_i m_j).  So the
multiplication map b_a (x) c_b -> b_a c_b onto the join is an isomorphism
(product position) iff no cell is zero; a zero cell, whose concentrated
states no joint state extends, witnesses every product-sense failure; and
the split property holds iff mu is an outer product of positive integer
vectors.  The join is written down once, from the matrix units of the cells
(``PairPosition.cell_basis``), and ``joint_operation`` extends operations on
it.  ``product_isomorphism`` builds the same identification as a validated
``ProductIsomorphism``; no program path calls it, and it serves as an
independent reference.  For non-commuting pairs the product-sense family is
not applicable and the plain notions are refused by a seeded search over
minimal projections p, q with p ^ q = 0 (``check_cstar_independence``); no
extension solver runs.  Every plain refusal, on a zero cell or from the
search, is one kind of witness: a separating pair checked by
``states.verify_separating_pair``.

One ``PairPosition`` per decision holds the commutation witness and the
cell table, and one private decider per notion reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from .algebra import (
    COUNT_CUT,
    MatrixStarAlgebra,
    _cell_columns,
    _cell_form,
    commute_witness,
    full_matrix_algebra,
    products,
)
from .channels import ChannelMap, build_channel
from .errors import (
    AmbientMismatch,
    IllConditioned,
    NoProductIsomorphism,
    NotCommuting,
    NotCP,
    NotNonselective,
    ShapeMismatch,
    ValidationError,
)
from .numerics import DEFAULT_TOL, Tolerances, dagger, vec
from .states import (
    SEPARATION_MARGIN,
    AlgebraState,
    _representer,
    canonical_trace_state,
    marginal_residual,
    product_residual,
    separating_pair,
    state_from_density,
)

__all__ = [
    "Verdict",
    "ProductIsomorphism",
    "PairPosition",
    "IndependenceReport",
    "InterpolatingFactor",
    "FactorSearchOutcome",
    "VERDICT_KEYS",
    "IMPLICATIONS",
    "implication_violations",
    "product_isomorphism",
    "check_product_sense",
    "check_cstar_independence",
    "check_wstar_independence",
    "check_wstar_product_sense",
    "annihilating_projections",
    "verify_faithful_product_state",
    "verify_noncommuting_elements",
    "joint_operation",
    "state_preparation",
    "verify_interpolating_factor",
    "joint_extension_residuals",
    "verify_product_transition",
    "find_interpolating_factor",
    "check_spatial_product_sense",
    "run_hierarchy_checks",
]

VerdictStatus = Literal["Holds", "Fails", "Undecided"]

VERDICT_KEYS = (
    "cstar_independent",
    "cstar_product_sense",
    "wstar_independent",
    "wstar_product_sense",
    "op_cstar",
    "op_wstar",
    "op_cstar_product",
    "op_wstar_product",
    "split",
)

#: (premise, conclusion) pairs: whenever the premise Holds the conclusion may
#: not Fail.  These are exactly the one-way arrows of the hierarchy; the
#: converse directions all fail somewhere (though only in infinite dimension
#: for several of them, which is out of scope here).
IMPLICATIONS = (
    ("cstar_product_sense", "cstar_independent"),
    ("wstar_product_sense", "wstar_independent"),
    ("wstar_product_sense", "cstar_product_sense"),
    ("op_cstar_product", "op_cstar"),
    ("op_wstar_product", "op_wstar"),
    ("op_cstar", "cstar_independent"),
    ("op_wstar", "wstar_independent"),
    ("split", "wstar_product_sense"),
)

NOT_APPLICABLE = "not applicable: the spans do not mutually commute"

#: Largest entry of z1 z2 (or of z^2 - z, or of a recorded minus a
#: recomputed projection) that still counts as zero for minimal central
#: projections, which hold to eps_algebra times the ambient dimension.  A
#: pair that passes it is not trusted alone: a product-sense witness must
#: also be a zero of the integer cell table (``PairPosition.check_zero_cell``).
ANNIHILATION_CUT = 1e-7

#: Trace below which a projection counts as zero: its trace is its rank, an
#: integer, so the midpoint between 0 and 1 has most margin.
NONZERO_TRACE_CUT = 0.5

#: c in the bound c n eps on what ``verify_interpolating_factor`` implies
SPLIT_IMPLIED_BOUND = 20

#: Largest n eps for which ``verify_interpolating_factor``'s proof of the split holds
SPLIT_PROOF_RANGE = 0.5

#: Seeded unit vectors, hence minimal projections, drawn per block of size > 1
#: by the search of ``check_cstar_independence``; a block of size 1 has one.
SEARCH_DRAWS = 4


@dataclass(eq=False)
class Verdict:
    """Outcome of one independence check."""

    status: VerdictStatus
    certificate: dict | None = None
    witness: dict | None = None
    reason: str | None = None

    @classmethod
    def holds(cls, certificate: dict) -> "Verdict":
        return cls("Holds", certificate=certificate)

    @classmethod
    def fails(cls, witness: dict) -> "Verdict":
        return cls("Fails", witness=witness)

    @classmethod
    def undecided(cls, reason: str) -> "Verdict":
        return cls("Undecided", reason=reason)


def _multiplication_map(
    a1: MatrixStarAlgebra, a2: MatrixStarAlgebra, jn: MatrixStarAlgebra
) -> tuple[np.ndarray, float]:
    """Join coefficients of every product b_a c_b, and their distance to the join.

    Column a*dim2 + b (the Kronecker order) holds the join-basis
    coefficients of b_a c_b; the float is the largest entry of any
    product's component orthogonal to the join.  Only the reference
    ``ProductIsomorphism`` rebuilds it.
    """
    d1, d2 = a1.dim, a2.dim
    prod_vecs = products(a1.basis, a2.basis).transpose(0, 1, 3, 2).reshape(d1 * d2, -1)
    mult_map = jn.basis_vecs.conj() @ prod_vecs.T
    outside = float(np.abs(prod_vecs.T - jn.basis_vecs.T @ mult_map).max())
    return mult_map, outside


@dataclass(eq=False)
class ProductIsomorphism:
    """Identification of the join of a commuting pair with their tensor product.

    ``to_tensor`` maps join-basis coefficients to coefficients on the grid
    of basis products b_a (x) c_b (index a*dim2 + b, the Kronecker order);
    ``from_tensor`` is its inverse, realized by the multiplication map
    b_a (x) c_b -> b_a c_b.  For a commuting pair that map is a unital
    *-homomorphism by construction; ``validate`` rebuilds it from the three
    bases and shows it is invertible, which makes it a *-isomorphism.  No
    program path builds one: it is the reference against which the cell
    basis and ``joint_operation`` are checked.
    """

    factor1: MatrixStarAlgebra
    factor2: MatrixStarAlgebra
    join: MatrixStarAlgebra
    to_tensor: np.ndarray
    from_tensor: np.ndarray

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> dict[str, float]:
        """Residuals for: mutual inverse, multiplicativity.

        Multiplicativity is exact: ``from_tensor`` must equal the rebuilt
        multiplication map, every product must lie in the join, and the
        factors must commute.
        """
        skew = commute_witness(self.factor1, self.factor2, tol)[2]
        return self._residuals(*_multiplication_map(self.factor1, self.factor2, self.join), skew, tol)

    def _residuals(
        self, mult_map: np.ndarray, outside: float, skew: float, tol: Tolerances
    ) -> dict[str, float]:
        """``validate`` against a multiplication map and a largest commutator entry already at hand."""
        eye = np.eye(self.factor1.dim * self.factor2.dim)
        inverse_residual = max(
            float(np.abs(self.to_tensor @ self.from_tensor - eye).max()),
            float(np.abs(self.from_tensor @ self.to_tensor - eye).max()),
        )
        mult_residual = max(float(np.abs(self.from_tensor - mult_map).max()), outside, skew)
        residuals = {
            "inverse_residual": inverse_residual,
            "multiplicativity_residual": mult_residual,
        }
        worst = max(residuals.values())
        if not worst <= tol.eps_verify:
            raise IllConditioned(
                f"product isomorphism residual {worst:.3e} exceeds "
                f"{tol.eps_verify:.1e}"
            )
        return residuals


def product_isomorphism(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> ProductIsomorphism:
    """The validated product isomorphism of a commuting pair in product position.

    No program path calls it: it is the independent reference for the cell
    basis and ``joint_operation``.  A pair out of product position raises as
    every verdict decides (``PairPosition.in_product_position``).  Otherwise
    the join is the cell basis g, on which b_a c_b = sum_kl C1[k, a] C2[l, b]
    w_kl g_kl (``PairPosition.cell_basis``): the map is diag(w) (C1 (x) C2),
    and its inverse (C1 (x) C2)* diag(1/w) as C1 and C2 are unitary.  The exact check of ``validate`` rebuilds the map from the
    three bases, independently of this; the position's ``commute_witness``
    serves it and the commutation test.
    """
    pos = PairPosition(a1, a2, tol)
    pos.in_product_position("a product isomorphism requires a commuting pair")
    g, w, c1, c2 = pos.cell_basis
    jn = MatrixStarAlgebra(a1.ambient_dim, g.reshape(-1, a1.ambient_dim, a1.ambient_dim))
    w, coeffs = w.reshape(-1), np.kron(c1, c2)
    iso = ProductIsomorphism(a1, a2, jn, dagger(coeffs) / w, w[:, None] * coeffs)
    iso._residuals(*_multiplication_map(a1, a2, jn), pos.witness[2], tol)
    return iso


@dataclass(eq=False)
class PairPosition:
    """How two algebras sit together: whether they commute, and the joint cell table of a commuting pair.

    Each part is built on first read and kept for the life of the position,
    which serves one decision and is never cached on an algebra.
    ``witness`` is ``commute_witness``'s (x, y, entry) and ``commutes``
    whether that entry is within eps_algebra.  The table of a commuting pair
    (module docstring): z_i = ``projections1[i]`` has block M_{sizes1[i]} in
    A1 and w_j = ``projections2[j]`` block M_{sizes2[j]} in A2, in the
    gauge-free order of the structure cache, and ``mu`` is the integer
    table rank(z_i w_j) / (n_i m_j), as z_i w_j is a projection.  Zero cells
    are listed row by row.  Reading any part of the table of a pair that does
    not commute raises NotCommuting.
    """

    a1: MatrixStarAlgebra
    a2: MatrixStarAlgebra
    tol: Tolerances = DEFAULT_TOL

    @cached_property
    def witness(self) -> tuple[np.ndarray, np.ndarray, float]:
        return commute_witness(self.a1, self.a2, self.tol)

    @property
    def commutes(self) -> bool:
        return self.witness[2] <= self.tol.eps_algebra

    @cached_property
    def _table(self) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """(projections1, projections2, sizes1, sizes2, mu) of a commuting pair."""
        if not self.commutes:
            raise NotCommuting("the joint cell table requires a commuting pair")
        s1, s2 = self.a1.structure(self.tol), self.a2.structure(self.tol)
        sizes1, sizes2 = np.array(s1.sizes), np.array(s2.sizes)
        ranks = np.einsum("ikl,jlk->ij", np.stack(s1.projections), np.stack(s2.projections)).real
        counts = ranks / np.outer(sizes1, sizes2)
        mu = np.rint(counts).astype(int)
        bad = np.argwhere(np.abs(counts - mu) > COUNT_CUT)
        if bad.size:
            i, j = bad[0]
            raise IllConditioned(f"joint cell ({i},{j}) has rank {ranks[i, j]:.6f}, not a multiple "
                                 f"of {sizes1[i] * sizes2[j]}")
        return s1.projections, s2.projections, sizes1, sizes2, mu

    projections1 = property(lambda self: self._table[0])
    projections2 = property(lambda self: self._table[1])
    sizes1 = property(lambda self: self._table[2])
    sizes2 = property(lambda self: self._table[3])
    mu = property(lambda self: self._table[4])

    def in_product_position(self, refusal: str) -> None:
        """Raise NotCommuting(``refusal``) for a pair that does not commute, NoProductIsomorphism for a zero cell."""
        if not self.commutes:
            raise NotCommuting(refusal)
        if self.zero_cells:
            i, j = self.zero_cells[0]
            raise NoProductIsomorphism(f"the pair is not in product position: joint cell ({i},{j}) is zero")

    @cached_property
    def cell_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(g, w, C1, C2): the products u_k v_l = w_kl g_kl of unit bases, and the bases' coefficients.

        u = e / sqrt(p_i) runs over the matrix units e = e_ab of the blocks i of
        A1, with p_i = rank(z_i) / n_i the block's multiplicity, and v = f /
        sqrt(q_j) over those of A2; as tr(e_aa) = p_i, these are orthonormal
        bases of A1 and A2, so C1[k, a] = <u_k, b_a> and C2[l, b] = <v_l, c_b>
        are unitary.  Since A1 and A2 commute, tr((e_ab f_cd)* e_a'b' f_c'd') =
        tr(e_ba e_a'b' f_c'd' f_dc) vanishes unless the e share block i and the
        f block j, and is then delta_aa' delta_dd' tr(e_bb' f_c'c).  On the cell
        z_i w_j = C^{n_i} (x) C^{m_j} (x) C^{mu_ij} (module docstring), e_bb' =
        E_bb' (x) 1 (x) 1 and f_c'c = 1 (x) E_c'c (x) 1, so that trace is
        delta_bb' delta_cc' mu_ij.  So the u v are orthogonal with |u v|^2 =
        mu_ij / (p_i q_j): those of a zero cell vanish (g = 0 there), and the
        rest, which span the join as the u and the v span A1 and A2, normalize
        to an orthonormal basis g of the join.
        """
        structures = [a.structure(self.tol) for a in (self.a1, self.a2)]
        u, v = (np.concatenate([e.reshape(-1, *e.shape[2:]) / np.sqrt(m) for e, m in zip(s.units, s.multiplicities)])
                for s in structures)
        c1, c2 = (a.coefficients(x).conj() for x, a in ((u, self.a1), (v, self.a2)))
        p, q = (np.array(s.multiplicities) for s in structures)
        w = np.repeat(np.repeat(np.sqrt(self.mu / np.outer(p, q)), self.sizes1**2, axis=0), self.sizes2**2, axis=1)
        return products(u, v) * np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)[:, :, None, None], w, c1, c2

    @cached_property
    def zero_cells(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.mu == 0)]

    @property
    def dims(self) -> dict[str, int]:
        """dim_join (n_i^2 m_j^2 summed over the nonzero cells) and the factor dimensions."""
        join_dim = int(np.outer(self.sizes1**2, self.sizes2**2)[self.mu > 0].sum())
        return {"dim_join": join_dim, "dim_factor1": self.a1.dim, "dim_factor2": self.a2.dim}

    @property
    def deficit(self) -> int:
        """dim A1 dim A2 - dim_join: what the multiplication map loses, 0 iff no cell is zero."""
        return self.a1.dim * self.a2.dim - self.dims["dim_join"]

    def zero_cell_witness(self) -> dict:
        i, j = self.zero_cells[0]
        return {"cell": [i, j], "mu": self.mu,
                "projection1": self.projections1[i], "projection2": self.projections2[j]}

    def product_density(self) -> np.ndarray:
        """The product of the two tracial states, for a table with no zero cell.

        rho = sum_ij c_ij z_i w_j, c_ij = r_i s_j / (n^2 n_i m_j mu_ij) with
        r_i = rank z_i, s_j = rank w_j.  On cell (i, j) = C^{n_i} (x) C^{m_j}
        (x) C^{mu_ij}, x in block i of A1 and y in block j of A2 give
        tr(z_i w_j x y) = mu_ij tr(x_i) tr(y_j), while tr x = (r_i / n_i) tr(x_i)
        and tr y = (s_j / m_j) tr(y_j); so tr(rho x y) = (tr x / n)(tr y / n).
        Every c_ij > 0 and the z_i w_j sum to 1, so rho has full rank.
        """
        n = self.a1.ambient_dim
        c = np.outer(self.mu @ self.sizes2, self.sizes1 @ self.mu) / (n * n * self.mu)
        z, w = np.stack(self.projections1), np.stack(self.projections2)
        return np.einsum("ij,ikl,jlm->km", c, z, w)

    def check_table(self, mu) -> None:
        """A recorded table must be this one, integer entry for entry."""
        mu = np.asarray(mu)
        if mu.dtype.kind not in "iu" or mu.shape != self.mu.shape or np.any(mu != self.mu):
            raise ValidationError(f"recorded cell table {mu.tolist()}, re-derived {self.mu.tolist()}")

    def check_zero_cell(self, cell, mu, z1: np.ndarray, z2: np.ndarray) -> None:
        """Check a ``zero_cell_witness``: this table, a zero cell (i, j) of it, z_i and w_j.

        Then z1 z2 = 0 for nonzero projections of the algebras (``annihilating_projections``).
        """
        self.check_table(mu)
        if tuple(cell) not in self.zero_cells:
            raise ValidationError(f"cell {cell!r} is not a zero cell of {self.mu.tolist()}")
        i, j = cell
        far = max(np.abs(z1 - self.projections1[i]).max(), np.abs(z2 - self.projections2[j]).max())
        if far >= ANNIHILATION_CUT:
            raise ValidationError(f"recorded projections are {far:.3e} away from those of cell {cell}")
        if not annihilating_projections(z1, z2, self.a1, self.a2):
            raise ValidationError("not nonzero projections of the two algebras with z1 z2 = 0")


def check_product_sense(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> Verdict:
    """Is the join canonically isomorphic to the tensor product of the pair?

    The multiplication map b_a (x) c_b -> b_a c_b of a commuting pair is onto
    the join, so an isomorphism iff no joint cell is zero (module docstring).
    Holds records the cell table and the dimensions, Fails the deficit and
    the first zero cell.  No join is built.  A non-commuting pair is Undecided.
    """
    return _product_sense(PairPosition(a1, a2, tol))


def _product_sense(pos: PairPosition) -> Verdict:
    if not pos.commutes:
        return Verdict.undecided(NOT_APPLICABLE)
    dims = {**pos.dims, "mu": pos.mu}
    if not pos.zero_cells:
        return Verdict.holds({"kind": "product_isomorphism", **dims})
    return Verdict.fails({"kind": "dimension_deficit", **dims, "deficit": pos.deficit, **pos.zero_cell_witness()})


#: Holds certificate of every notion that product position implies.  It
#: rests on the pair's cell table, which verify-report re-derives, and on the
#: theorem it states; nothing is sampled.
IMPLIED_BY_PRODUCT_ISOMORPHISM = {
    "kind": "implied_by_product_isomorphism",
    "reasoning": (
        "the pair commutes and its joint cell table has no zero cell, so the "
        "multiplication map iso: A1 (x) A2 -> join is a *-isomorphism (the cell "
        "theorem), every marginal pair (phi1, phi2) extends to the product "
        "state (phi1 (x) phi2) . iso^-1, and every pair of nonselective "
        "operations (T1, T2) extends to iso . (T1 (x) T2) . iso^-1 composed "
        "with the conditional expectation onto the join, which is unital, "
        "completely positive and multiplicative across the pair (Roos, "
        "Commun. Math. Phys. 16 (1970) 238)"
    ),
}


def annihilating_projections(
    z1: np.ndarray, z2: np.ndarray, a1: MatrixStarAlgebra, a2: MatrixStarAlgebra
) -> bool:
    """Whether z1 in A1 and z2 in A2 are nonzero projections with z1 z2 = 0.

    Each residual (the entries of z1 z2, z^2 - z and z - z*, and the
    distance of z to its algebra) must stay below ANNIHILATION_CUT; a
    nonzero projection has trace at least one.
    """
    if np.abs(z1 @ z2).max() >= ANNIHILATION_CUT:
        return False
    for z, a in ((z1, a1), (z2, a2)):
        worst = max(
            float(np.abs(z @ z - z).max()),
            float(np.abs(z - dagger(z)).max()),
            a.distance_to_span(z),
        )
        if worst >= ANNIHILATION_CUT or np.trace(z).real < NONZERO_TRACE_CUT:
            return False
    return True


def check_cstar_independence(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    rng: np.random.Generator | int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Verdict:
    """Does every marginal pair admit a joint state?

    Exactly when p ^ q != 0 for all minimal projections p of A1 and q of A2.
    The extending pairs form the image of the states of M_n under rho ->
    (rho|A1, rho|A2), a convex compact set, and the extreme points of
    S(A1) x S(A2) are pairs of pure states.  A pure state of A1 has a
    minimal support p, with p A1 p = C p, so every density under p restricts
    to it.  So a pure pair with p ^ q != 0 extends to a density under p ^ q,
    and then (Krein-Milman) every pair extends; a joint extension of a pure
    pair lies under p and q, hence under p ^ q.  A refusal is the separating
    pair (p, q) for the states p / tr p and q / tr q, whose forced value 2
    exceeds lambda_max(p + q) = 1 + ||pq|| exactly when p ^ q = 0.

    Three routes.  (i) A commuting pair in product position (no zero joint
    cell) Holds by ``IMPLIED_BY_PRODUCT_ISOMORPHISM``.  (ii) A commuting
    pair out of product position refuses on a zero cell z_i w_j = 0, with
    gap 1.  (iii) A non-commuting pair is searched: minimal projections p =
    sum_ab x_a conj(x_b) e_ab (formed as u u*, ``_minimal_projections``) are
    drawn from ``rng`` in every block of each algebra (SEARCH_DRAWS seeded
    unit vectors x per block), and the pair with the smallest ||pq|| refuses
    if its gap clears the margin; else the verdict is Undecided and records
    that ||pq||.
    Every Fails witness is a ``separating_pair`` with its ``witness_states``.
    """
    rng = np.random.default_rng(0 if rng is None else rng)  # a Generator passes through
    return _plain_verdict(PairPosition(a1, a2, tol), rng)


def _plain_verdict(pos: PairPosition, rng: np.random.Generator) -> Verdict:
    """The three routes of ``check_cstar_independence``: (i) and (ii) from the cell table, (iii) from ``rng``."""
    if not pos.commutes:
        return _projection_search(pos.a1, pos.a2, rng, pos.tol)
    if not pos.zero_cells:
        return Verdict.holds(dict(IMPLIED_BY_PRODUCT_ISOMORPHISM))
    i, j = pos.zero_cells[0]
    return _refusal(pos.a1, pos.a2, pos.projections1[i], pos.projections2[j], pos.tol)


def _refusal(a1: MatrixStarAlgebra, a2: MatrixStarAlgebra, p: np.ndarray, q: np.ndarray, tol: Tolerances) -> Verdict:
    """Fails on the separating pair (p, q) of projections, for the states p / tr p and q / tr q."""
    s1, s2 = (state_from_density(a, x / np.trace(x).real, tol) for a, x in ((a1, p), (a2, q)))
    return Verdict.fails({**separating_pair(p, q, s1, s2, tol), "witness_states": (s1, s2)})


def _minimal_projections(a: MatrixStarAlgebra, rng: np.random.Generator, tol: Tolerances) -> np.ndarray:
    """u u* with u = sum_a x_a e_a0, for seeded unit vectors x in every block, from the cached column units.

    The column units of a block are partial isometries from its first
    cluster P_0 (a minimal projection of A) with e_a0* e_b0 = delta_ab P_0,
    and its matrix units are e_ab = e_a0 e_b0* (``AlgebraStructure``).  So
    u* u = sum_a |x_a|^2 P_0 = P_0: u is a partial isometry, u u* is a
    projection of the rank of P_0, hence minimal, and u u* = sum_ab x_a
    conj(x_b) e_a0 e_b0* = sum_ab x_a conj(x_b) e_ab.  The matrix units
    themselves are never formed.
    """
    drawn = []
    for e in a.structure(tol).column_units:
        size = len(e)
        shape = (SEARCH_DRAWS if size > 1 else 1, size)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        drawn.append((x @ e.reshape(size, -1)).reshape(-1, *e.shape[1:]))
    u = np.concatenate(drawn)
    return u @ dagger(u)


def _projection_search(a1: MatrixStarAlgebra, a2: MatrixStarAlgebra, rng: np.random.Generator,
                       tol: Tolerances) -> Verdict:
    """Route (iii) of ``check_cstar_independence``: the drawn pair with the smallest ||pq||."""
    p, q = _minimal_projections(a1, rng, tol), _minimal_projections(a2, rng, tol)
    norms = _product_norms(p, q)
    i, j = np.unravel_index(norms.argmin(), norms.shape)
    if 1.0 - norms[i, j] > SEPARATION_MARGIN * tol.eps_verify:
        return _refusal(a1, a2, p[i], q[j], tol)
    return Verdict.undecided(f"no drawn minimal projections p, q have p ^ q = 0: the smallest ||pq|| over "
                             f"{len(p)} x {len(q)} seeded draws is {norms[i, j]:.6f}, within the margin of 1")


def _product_norms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """||p_i q_j|| for every pair of two stacks: ||pq||^2 = lambda_max((pq)(pq)*), one batched eigvalsh."""
    pq = products(p, q)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(pq @ dagger(pq))[..., -1], 0.0))


def check_wstar_independence(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    rng: np.random.Generator | int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Verdict:
    """Joint-extension property with normal states — same decision here.

    Every state of a finite-dimensional algebra is given by a density
    matrix, hence normal, so this coincides with the plain extension
    property; the verdict is computed by the same routes and annotated.
    """
    return _annotate_normal(check_cstar_independence(a1, a2, rng, tol))


def _annotate_normal(verdict: Verdict) -> Verdict:
    """Copy of a plain-extension verdict with the normality note attached."""
    note = {"normality_note": "all states are normal in finite dimension; decided by the same routes"}
    return Verdict(
        verdict.status,
        certificate=None if verdict.certificate is None else {**verdict.certificate, **note},
        witness=None if verdict.witness is None else {**verdict.witness, **note},
        reason=verdict.reason,
    )


def verify_faithful_product_state(
    density: np.ndarray,
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances,
) -> float:
    """Check a faithful-product-state certificate; return its product residual.

    The density must be a state of M_n of full rank, hence faithful on
    every subalgebra and on the join in particular, whose restrictions to
    both algebras are their normalized traces and which acts as the
    product of those traces on every product x y.
    """
    state = AlgebraState(a1, density)
    evals = state.validate(tol)
    traces = (canonical_trace_state(a1), canonical_trace_state(a2))
    marginal = marginal_residual(state.density, traces)
    residual = product_residual(state.density, *traces)
    if not (marginal <= tol.eps_verify and residual <= tol.eps_verify):
        raise IllConditioned(
            f"not a product of the tracial states: marginal residual "
            f"{marginal:.3e}, product residual {residual:.3e}"
        )
    if not evals[0] > tol.eps_psd * max(1.0, evals[-1]):
        raise IllConditioned(f"product state is not of full rank (eigenvalue {evals[0]:.3e})")
    return residual


def check_wstar_product_sense(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> Verdict:
    """Existence of normal product extensions for all normal marginal pairs.

    Holds exactly in product position, certified by the closed-form product
    of the two tracial states (``PairPosition.product_density``), a full-rank
    state of M_n; no join is built.  Otherwise the first zero cell is the
    witness: z_i (x) w_j is a multiplication relation (z_i w_j = 0) to which
    the states concentrated on z_i and w_j give the product value 1.
    A non-commuting pair is Undecided.
    """
    return _wstar_product_sense(PairPosition(a1, a2, tol))


def _wstar_product_sense(pos: PairPosition) -> Verdict:
    if not pos.commutes:
        return Verdict.undecided(NOT_APPLICABLE)
    if pos.zero_cells:
        return Verdict.fails(
            {
                "kind": "multiplication_relation",
                **pos.zero_cell_witness(),
                "reasoning": (
                    "z_i (x) w_j maps to z_i w_j = 0, yet the states "
                    "concentrated on z_i and w_j give it the product value 1, "
                    "so no product state extends them"
                ),
            }
        )
    density = pos.product_density()
    return Verdict.holds(
        {
            "kind": "faithful_product_state",
            "density": density,
            "faithful": True,
            "product_residual": verify_faithful_product_state(density, pos.a1, pos.a2, pos.tol),
            "dim_join": pos.dims["dim_join"],
        }
    )


# ---------------------------------------------------------------------------
# joint operations
# ---------------------------------------------------------------------------


def _coefficient_matrix(t: ChannelMap) -> np.ndarray:
    """R[a', a] = <b_a', T(b_a)> on the channel's domain basis."""
    v = t.domain.basis_vecs
    return v.conj() @ (t.action @ v.T)


def state_preparation(state: AlgebraState, tol: Tolerances = DEFAULT_TOL) -> ChannelMap:
    """Discard-and-prepare on the state's own algebra: x -> phi(x) 1."""
    a, n = state.algebra, state.algebra.ambient_dim
    action = np.outer(vec(np.eye(n)), vec(_representer(a, state.expect_basis())).conj())
    return build_channel(a, n, action, tol)


def joint_operation(
    t1: ChannelMap,
    t2: ChannelMap,
    tol: Tolerances = DEFAULT_TOL,
) -> ChannelMap:
    """Common nonselective extension of two operations, multiplicative across.

    The pair of domains must be in product position.  On the cell basis g of
    the join, b_a c_b = sum_kl C1[k, a] C2[l, b] w_kl g_kl
    (``PairPosition.cell_basis``), so x y -> T1(x) T2(y) has the join
    coefficients diag(w) (C1 (x) C2) (R1 (x) R2) (C1 (x) C2)* diag(1/w), R
    the operations' coefficient matrices; the expectation onto the join
    completes it to the ambient algebra (Roos 1970).  The result must pass
    the joint-extension gate (``_joint_extension_gate``: completely
    positive, unital, restricting to T1 and T2 and multiplicative across).
    It is again nonselective, and faithful whenever both inputs are.
    """
    return _joint_operation(t1, t2, tol)[0]


def _joint_operation(t1: ChannelMap, t2: ChannelMap, tol: Tolerances) -> tuple[ChannelMap, dict[str, float]]:
    """``joint_operation``, with the residuals its gate computed."""
    a1, a2 = t1.domain, t2.domain
    if not (t1.operation and t2.operation):
        raise NotNonselective("both inputs must be unital completely positive maps")
    n = a1.ambient_dim
    if a2.ambient_dim != n:
        raise AmbientMismatch("operation domains live in different ambient spaces")
    pos = PairPosition(a1, a2, tol)
    pos.in_product_position("a joint operation requires a commuting pair of domains")
    g, w, c1, c2 = pos.cell_basis
    w, c = w.reshape(-1), np.kron(c1, c2)
    coeff = (w[:, None] * c) @ np.kron(_coefficient_matrix(t1), _coefficient_matrix(t2)) @ (dagger(c) / w)
    jb = MatrixStarAlgebra(n, g.reshape(-1, n, n)).basis_vecs
    channel = build_channel(full_matrix_algebra(n), n, jb.T @ coeff @ jb.conj(), tol)
    return channel, _joint_extension_gate(channel, t1, t2, tol)


def _joint_extension_gate(joint: ChannelMap, t1: ChannelMap, t2: ChannelMap, tol: Tolerances) -> dict[str, float]:
    """The residuals of ``joint`` as a joint extension of T1 and T2, once it passes the gate.

    It must be completely positive (else NotCP), unital (else NotNonselective)
    and have every ``joint_extension_residuals`` entry within eps_verify (else
    IllConditioned); ``verify-report`` gates a map rebuilt from its Choi matrix here.
    """
    if not joint.cp_certified:
        raise NotCP("joint extension failed the complete-positivity check")
    if not joint.unital:
        raise NotNonselective("joint extension failed the unitality check")
    residuals = joint_extension_residuals(joint, t1, t2)
    worst = max(residuals.values())
    if not worst <= tol.eps_verify:
        raise IllConditioned(f"joint extension residual {worst:.3e} exceeds {tol.eps_verify:.1e}")
    return residuals


def _images(t: ChannelMap, mats: np.ndarray) -> np.ndarray:
    """T(x) for every x of a stack, one GEMM with the action."""
    k, m = len(mats), t.out_dim
    return (mats.transpose(0, 2, 1).reshape(k, -1) @ t.action.T).reshape(k, m, m).transpose(0, 2, 1)


def joint_extension_residuals(joint: ChannelMap, t1: ChannelMap, t2: ChannelMap) -> dict[str, float]:
    """Restriction and cross-multiplicativity residuals of a joint extension, each over one stack."""
    a1, a2, n = t1.domain, t2.domain, joint.in_dim
    images1, images2 = _images(joint, a1.basis), _images(joint, a2.basis)
    crossed = _images(joint, products(a1.basis, a2.basis).reshape(-1, n, n))
    return {
        "restriction_residual_1": float(np.abs(images1 - _images(t1, a1.basis)).max()),
        "restriction_residual_2": float(np.abs(images2 - _images(t2, a2.basis)).max()),
        "multiplicativity_residual": float(np.abs(crossed.reshape(a1.dim, a2.dim, n, n)
                                                  - products(images1, images2)).max()),
    }


def verify_product_transition(
    joint: ChannelMap,
    state1: AlgebraState,
    state2: AlgebraState,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Does the transition map send every input to the prescribed product?

    The output tr(rho T(.)) of every input state rho acts as phi1 (x) phi2
    on products exactly when T(b_a c_b) = phi1(b_a) phi2(c_b) 1 for every
    basis pair (by linearity; tr(rho X) = c for every rho forces X = c 1):
    one stack, checked entry by entry within eps_verify
    (``_product_transition_residual``).
    """
    return bool(_product_transition_residual(joint, state1, state2) <= tol.eps_verify)


def _product_transition_residual(joint: ChannelMap, state1: AlgebraState, state2: AlgebraState) -> float:
    """Largest entry of T(b_a c_b) - phi1(b_a) phi2(c_b) 1 over every basis pair, one stack."""
    a1, a2, n = state1.algebra, state2.algebra, joint.in_dim
    crossed = _images(joint, products(a1.basis, a2.basis).reshape(-1, n, n))
    prescribed = np.outer(state1.expect_basis(), state2.expect_basis()).reshape(-1, 1, 1) * np.eye(n)
    return float(np.abs(crossed - prescribed).max())


# ---------------------------------------------------------------------------
# interpolating factors / split pairs
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InterpolatingFactor:
    """A factor between the first algebra and the second's commutant.

    ``unitary`` U maps the ambient space onto C^{d1} (x) C^{d2} with A1 on
    the first leg and A2 on the second, by the three ``residuals`` that
    ``verify_interpolating_factor`` certified; M = U* (M_d1 (x) 1) U itself
    is built on demand (``algebra``).
    """

    unitary: np.ndarray
    d1: int
    d2: int
    residuals: dict[str, float] = field(default_factory=dict)

    @cached_property
    def algebra(self) -> MatrixStarAlgebra:
        """M = U* (M_d1 (x) 1) U, with the orthonormal basis U* (E_ab (x) 1 / sqrt(d2)) U (``_cell_form`` of [[1]])."""
        lifted, _ = _cell_form(np.ones((1, 1), dtype=int), [self.d1], [self.d2])
        return MatrixStarAlgebra(self.d1 * self.d2, dagger(self.unitary) @ lifted.basis @ self.unitary)


@dataclass(eq=False)
class FactorSearchOutcome:
    status: Literal["Found", "NotFound"]
    factor: InterpolatingFactor | None = None
    reason: str | None = None


def verify_interpolating_factor(
    u: np.ndarray,
    d1: int,
    d2: int,
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances,
) -> InterpolatingFactor:
    """Check that U splits C^n = C^d1 (x) C^d2 with A1 on the first leg, A2 on the second.

    Three residuals are certified (their largest, eps, at most eps_verify and
    n eps at most SPLIT_PROOF_RANGE, the range of the proof below), each the
    largest entry of one stack: ``unitarity_residual`` of U U* - 1,
    ``embedding_residual_1`` of D1 = U x U* - L(x) (x) 1 over the basis x of
    A1, and ``embedding_residual_2`` of D2 = U y U* - 1 (x) R(y) over the
    basis y of A2, with L and R the normalized partial traces.  Legs that
    are not positive integers with d1 d2 = n raise ShapeMismatch.

    They imply the split for M = U* (M_d1 (x) 1) U.  Let n eps <= 1/2, and
    ||.||_2 the HS norm, so ||A|| <= ||A||_2 <= n max|A_ij|.  Then ||Dk||_2 <= n eps, and d = ||U U* - 1||_2 <= n eps
    equals ||U*U - 1||_2 (the same spectrum), so ||U||^2 <= 1 + d; basis
    elements have ||x|| <= ||x||_2 = 1, so ||L(x)||, ||R(y)|| <= 1 + d.
    - A1 in M: x - U* (L (x) 1) U = (x - U*U x U*U) + U* D1 U has
      ||.||_2 <= d (2 + d) + (1 + d) n eps <= 4 n eps.
    - M in A2': y - U* (1 (x) R) U is bounded likewise, and m = U* (E_ab (x) 1) U
      commutes with U* (1 (x) R) U up to U* [(E_ab (x) 1)(U U* - 1)(1 (x) R)
      - (1 (x) R)(U U* - 1)(E_ab (x) 1)] U, so ||[m, y]||_2 <= 2 d (1 + d)^2
      + 8 (1 + d) n eps <= 17 n eps.
    - U x y U* - L (x) R = D1 (1 (x) R) + (L (x) 1) D2 + D1 D2
      + U x (1 - U*U) y U* has ||.||_2 <= 2 (1 + d) n eps + (n eps)^2
      + (1 + d) d <= 5 n eps.
    So each implied residual is at most SPLIT_IMPLIED_BOUND n eps.
    """
    n = a1.ambient_dim
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0
               for d in (d1, d2)) or d1 * d2 != n:
        raise ShapeMismatch(f"tensor legs {d1!r} x {d2!r} do not split ambient dimension {n}")

    def off_leg(mats: np.ndarray, first: bool) -> float:
        """Largest entry of U x U* off the first (or the second) tensor leg, for a stack of x."""
        img = (u @ mats @ dagger(u)).reshape(-1, d1, d2, d1, d2)
        if first:
            model = np.einsum("kasbs->kab", img)[:, :, None, :, None] * np.eye(d2)[:, None, :] / d2
        else:
            model = np.eye(d1)[:, None, :, None] * np.einsum("ksasb->kab", img)[:, None, :, None, :] / d1
        return float(np.abs(img - model).max())

    residuals = {
        "unitarity_residual": float(np.abs(u @ dagger(u) - np.eye(n)).max()),
        "embedding_residual_1": off_leg(a1.basis, True),
        "embedding_residual_2": off_leg(a2.basis, False),
    }
    worst = max(residuals.values())
    if not worst <= tol.eps_verify:
        raise IllConditioned(f"interpolating-factor verification residual {worst:.3e}")
    if not n * worst <= SPLIT_PROOF_RANGE:
        raise IllConditioned(f"interpolating-factor residual {worst:.3e} is outside the range n eps <= "
                             f"{SPLIT_PROOF_RANGE} that proves the split (n eps = {n * worst:.3e} at n = {n})")
    return InterpolatingFactor(u, d1, d2, residuals)


def _integer_rank_one_factorization(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Positive integer vectors a, b with mu = outer(a, b), or None.

    For a positive integer matrix, exactness of the cross-ratio identities
    mu[i,j] mu[0,0] = mu[i,0] mu[0,j] is equivalent to rank one.  The
    normalized factorization is then integral: a = mu[:,0] / gcd has
    coprime entries and a_0 divides every a_i mu[0,j] = a_0 mu[i,j], so a_0
    divides mu[0,j].
    """
    if np.any(mu <= 0) or np.any(mu * mu[0, 0] != np.outer(mu[:, 0], mu[0, :])):
        return None
    a = mu[:, 0] // math.gcd(*mu[:, 0])
    return a, mu[0, :] // a[0]


def find_interpolating_factor(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> FactorSearchOutcome:
    """Search for a factor M with A1 inside M inside the commutant of A2.

    The joint cell table decides (module docstring): a factor exists iff no
    cell is zero and mu[i,j] = a_i b_j for positive integer vectors a, b.
    U* is then assembled cell by cell from the columns e_alpha0 f_beta0 xi_s
    of the first units (``algebra._cell_columns``) and verified by
    ``verify_interpolating_factor``.
    A factor A1 is itself M, split by its structure intertwiner: U* = W
    with W* A1 W = M_{n1} (x) 1 (``AlgebraStructure.intertwiner``, the
    identity for A1 = M_n).  A non-commuting pair has none: M would make
    A1 commute with A2 elementwise.
    """
    return _factor_search(PairPosition(a1, a2, tol))


def _factor_search(pos: PairPosition) -> FactorSearchOutcome:
    if not pos.commutes:
        return FactorSearchOutcome("NotFound", reason=_NONCOMMUTING_REASON)
    a1, a2, tol, n = pos.a1, pos.a2, pos.tol, pos.a1.ambient_dim
    s1 = a1.structure(tol)
    if s1.is_factor:
        factor = verify_interpolating_factor(dagger(s1.intertwiner), s1.sizes[0], s1.multiplicities[0], a1, a2, tol)
        return FactorSearchOutcome("Found", factor, reason="the first algebra is itself a factor")
    if pos.zero_cells:
        i, j = pos.zero_cells[0]
        return FactorSearchOutcome(
            "NotFound",
            reason=(
                f"central projections {i} of the first algebra and {j} of "
                "the second multiply to zero, so the pair is not in product "
                "position and no interpolating factor exists"
            ),
        )
    mu, sizes1, sizes2 = pos.mu, pos.sizes1, pos.sizes2
    factorization = _integer_rank_one_factorization(mu)
    if factorization is None:
        return FactorSearchOutcome(
            "NotFound",
            reason=(
                "the joint multiplicity matrix admits no positive integer "
                f"rank-one factorization: {mu.tolist()}"
            ),
        )
    avec, bvec = factorization
    d1, d2 = int(avec @ sizes1), int(bvec @ sizes2)

    off1 = np.concatenate([[0], np.cumsum(sizes1 * avec)])
    off2 = np.concatenate([[0], np.cumsum(sizes2 * bvec)])
    udag = np.zeros((n, d1, d2), dtype=complex)  # column (p, q) of U*, p*d2 + q
    units2 = a2.structure(tol).first_units
    for i, e in enumerate(s1.first_units):
        for j, f in enumerate(units2):
            # p = (alpha, s), q = (beta, t) inside the cell: e_{alpha 0} f_{beta 0} xi_{s b_j + t}
            cols = _cell_columns(e, f, mu[i, j])
            cols = cols.reshape(n, sizes1[i], sizes2[j], avec[i], bvec[j]).transpose(0, 1, 3, 2, 4)
            udag[:, off1[i]:off1[i + 1], off2[j]:off2[j + 1]] = cols.reshape(
                n, sizes1[i] * avec[i], sizes2[j] * bvec[j]
            )
    return FactorSearchOutcome(
        "Found", verify_interpolating_factor(dagger(udag.reshape(n, n)), d1, d2, a1, a2, tol),
        reason="assembled from the joint cell structure",
    )


def check_spatial_product_sense(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> Verdict:
    """Can one unitary split the ambient space with A1, A2 on opposite legs?

    Equivalent to the existence of an interpolating factor.  Holds carries
    the factor found by ``find_interpolating_factor``, whose three verified
    residuals (unitarity and the two tensor legs) imply A1 in M, M in A2'
    and the factorization U x y U* = (x-leg) (x) (y-leg) of every product
    (``verify_interpolating_factor``); no product is formed here.  Fails
    records the cell table, or for a non-commuting pair the largest
    commutator of the position's ``commute_witness``.
    """
    return _split_verdict(PairPosition(a1, a2, tol))


def _split_verdict(pos: PairPosition) -> Verdict:
    if not pos.commutes:  # refused by the position's witness: x in A1 and y in A2 that do not commute
        x, y, _ = pos.witness
        return Verdict.fails({"kind": "noncommuting_elements", "element1": x, "element2": y,
                              "commutator_norm": verify_noncommuting_elements(x, y, pos.a1, pos.a2, pos.tol),
                              "reasoning": _NONCOMMUTING_REASON})
    outcome = _factor_search(pos)
    if outcome.status == "NotFound":
        return Verdict.fails(
            {"kind": "no_interpolating_factor", "reason": outcome.reason, "mu": pos.mu}
        )
    return Verdict.holds(
        {"kind": "factorizing_unitary", "factor": outcome.factor, "search_note": outcome.reason}
    )


# ---------------------------------------------------------------------------
# the full hierarchy
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class IndependenceReport:
    """All nine verdicts for one pair, with the seed and notes."""

    verdicts: dict[str, Verdict]
    seed: int | None = None
    notes: list[str] = field(default_factory=list)


def implication_violations(verdicts: dict[str, Verdict]) -> list[tuple[str, str]]:
    """Implication pairs where the premise Holds but the conclusion Fails."""
    bad = []
    for premise, conclusion in IMPLICATIONS:
        p, q = verdicts.get(premise), verdicts.get(conclusion)
        if p is not None and q is not None:
            if p.status == "Holds" and q.status == "Fails":
                bad.append((premise, conclusion))
    return bad


#: the verdict whose refusal the W* and operational readings refer to
PLAIN = "cstar_independent"


def _readings_of_plain(plain: Verdict) -> dict[str, Verdict]:
    """wstar_independent, op_cstar and op_wstar from the plain verdict of the entry.

    A refusal is referenced by key, not copied.  Every state of a
    finite-dimensional algebra is normal, so the refused pair is a refused
    normal pair.  It also lifts to the operations: if T jointly extended the
    two state preparations, then omega . T would extend both refused
    marginals for any state omega.  In product position all three Hold by
    ``IMPLIED_BY_PRODUCT_ISOMORPHISM``; otherwise the pair does not commute
    and the operational question stays open.
    """
    if plain.status == "Fails":
        op = Verdict.fails({"kind": "state_preparation_pair", "plain": PLAIN})
        normal = Verdict.fails({"kind": "normal_marginal_pair", "plain": PLAIN})
        return {"wstar_independent": normal, "op_cstar": op, "op_wstar": op}
    if plain.status == "Holds":
        op = Verdict.holds(dict(IMPLIED_BY_PRODUCT_ISOMORPHISM))
    else:
        op = Verdict.undecided(
            "no refusal found; the joint-extension question for operations "
            "on a non-commuting pair is left open"
        )
    return {"wstar_independent": _annotate_normal(plain), "op_cstar": op, "op_wstar": op}


def verify_noncommuting_elements(
    x: np.ndarray,
    y: np.ndarray,
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Check a ``noncommuting_elements`` witness; return the largest entry of [x, y].

    x must lie in A1 and y in A2, and [x, y] must exceed eps_algebra, the
    cut below which the pair counts as commuting; then no factor between A1
    and the commutant of A2 exists.
    """
    n = a1.ambient_dim
    for label, z, a in (("element1", x, a1), ("element2", y, a2)):
        if np.shape(z) != (n, n):
            raise ShapeMismatch(f"{label} has shape {np.shape(z)}, ambient {n}")
        if not a.contains(z, tol):
            raise IllConditioned(f"{label} is {a.distance_to_span(z):.3e} away from its algebra")
    norm = float(np.abs(x @ y - y @ x).max())
    if not norm > tol.eps_algebra:
        raise IllConditioned(f"commutator entry {norm:.3e} does not exceed eps_algebra")
    return norm


_NONCOMMUTING_REASON = "an interpolating factor would force the first algebra to commute with the second elementwise"


def _op_product(pos: PairPosition) -> Verdict:
    """op_cstar_product and op_wstar_product: Hold exactly in product position, else Fail on the zero cell."""
    if not pos.commutes:
        return Verdict.undecided(NOT_APPLICABLE)
    if not pos.zero_cells:
        return Verdict.holds(dict(IMPLIED_BY_PRODUCT_ISOMORPHISM))
    return Verdict.fails(
        {
            "kind": "product_position_failure",
            **pos.zero_cell_witness(),
            "reasoning": (
                "for a commuting pair, multiplicative joint "
                "extensions of faithful nonselective operations "
                "exist exactly in product position, which the "
                "zero cell z_i w_j = 0 rules out"
            ),
        }
    )


def run_hierarchy_checks(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    seed: int = 0,
    samples: int = 50,
    op_samples: int = 3,
    tol: Tolerances = DEFAULT_TOL,
) -> IndependenceReport:
    """Decide all nine independence notions for one pair and cross-check.

    One straight pass over one ``PairPosition``: commutation is tested once
    and the cell table built once, and each verdict is set once, by the
    decider of the check that decides it.  A commuting pair is decided by its
    joint cell table (module docstring): without a zero cell every notion
    but the split property Holds; with one, the product-sense family fails
    on that cell and the plain notion on the separating pair of its two
    projections; the split property is the integer factorization of the
    table.  Nothing is drawn for a commuting pair, so ``seed`` does not
    matter there.  For non-commuting pairs the product-sense family is
    marked not applicable, the split property fails on the largest
    commutator ``commute_witness`` finds (a column unit of the first algebra,
    and a column unit of the second algebra or its adjoint), and the plain
    notion is refused by the minimal-projection search
    (``check_cstar_independence``), whose draws come from ``seed``.  No
    extension solver runs.  A plain refusal is serialized once:
    ``wstar_independent``, ``op_cstar`` and ``op_wstar`` refer to it by key
    (``_readings_of_plain``).  The verdicts are audited against the
    implication table; a violation raises.

    ``samples`` and ``op_samples`` are accepted and have no effect.
    """
    rng = np.random.default_rng(seed)
    notes = [
        "every state of a finite-dimensional algebra is normal, so the C* "
        "and W* readings of each notion are decided by the same procedure",
        "infinite-dimensional separations between the notions are out of "
        "scope; verdicts here exercise only the implications, never the "
        "strictness of the hierarchy",
    ]

    pos = PairPosition(a1, a2, tol)
    verdicts = {
        "cstar_product_sense": _product_sense(pos),
        "wstar_product_sense": _wstar_product_sense(pos),
        "cstar_independent": _plain_verdict(pos, rng),
        "split": _split_verdict(pos),
        "op_cstar_product": _op_product(pos),
        "op_wstar_product": _op_product(pos),
    }
    if not pos.commutes:
        notes.append(
            "the product-sense family requires a commuting pair and is "
            "marked not applicable here"
        )
    verdicts.update(_readings_of_plain(verdicts[PLAIN]))

    violations = implication_violations(verdicts)
    if violations:  # pragma: no cover - guarded by construction
        raise IllConditioned(f"implication violations in report: {violations}")
    return IndependenceReport(verdicts=verdicts, seed=seed, notes=notes)
