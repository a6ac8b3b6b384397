"""The independence hierarchy on commuting algebra pairs: product
position, state and operation extensions, the implication chain, and
interpolating-factor search.

Oracles: product identities are evaluated directly on basis pairs;
factorizing unitaries are checked by explicit conjugation; refusals are
re-validated through their separating witnesses.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    array_from_json,
    diag_algebra,
    join,
    left_factor,
    matrix_unit,
    right_factor,
    twist_isomorphism,
)
from reference import random_luders_channel
from staralg import (
    FUZZ_FAMILIES,
    IllConditioned,
    MatrixStarAlgebra,
    NoProductIsomorphism,
    NotCommuting,
    ProductIsomorphism,
    ShapeMismatch,
    VERDICT_KEYS,
    Verdict,
    build_channel,
    canonical_block_algebra,
    canonical_trace_state,
    cell_pair,
    check_cstar_independence,
    check_product_sense,
    check_spatial_product_sense,
    check_wstar_independence,
    check_wstar_product_sense,
    commutant,
    conditional_expectation,
    conjugate_algebra,
    dual_on_states,
    extend_state,
    extend_state_batch,
    find_interpolating_factor,
    full_matrix_algebra,
    fuzz_instances,
    generate_algebra,
    implication_violations,
    is_faithful,
    joint_cells,
    joint_extension_residuals,
    joint_operation,
    mutually_commute,
    noncommuting_pair,
    product_isomorphism,
    product_residual,
    random_density,
    random_faithful_nonselective_channel,
    run_hierarchy_checks,
    sample_state_pairs,
    scalar_algebra,
    state_from_density,
    state_preparation,
    structure_decomposition,
    tensor_pair,
    verify_faithful_product_state,
    verify_interpolating_factor,
    verify_product_transition,
    verify_separating_pair,
)
from staralg import ValidationError, algebra, independence, sampling, states
from staralg.algebra import products
from staralg.channels import superop_from_function
from staralg.independence import (
    NOT_APPLICABLE,
    SPLIT_IMPLIED_BOUND,
    _integer_rank_one_factorization,
    _projection_search,
    annihilating_projections,
)
from staralg.numerics import DEFAULT_TOL, canonical_basis, dagger, haar_unitary, hs_norm, kron, orthonormalize


def identity_on(algebra):
    n = algebra.ambient_dim
    return build_channel(algebra, n, superop_from_function(lambda x: x, algebra, n))


class TestCheckProductSense:
    def test_tensor_factors_hold_with_dimension_count(self):
        v = check_product_sense(left_factor(2, 2), right_factor(2, 2))
        assert v.status == "Holds"
        assert v.certificate["dim_join"] == 16
        assert v.certificate["dim_factor1"] == 4
        assert v.certificate["dim_factor2"] == 4
        assert v.certificate["mu"].tolist() == [[1]]
        product_isomorphism(left_factor(2, 2), right_factor(2, 2)).validate()

    def test_same_algebra_fails_on_dimension_deficit(self):
        d = diag_algebra(2)
        v = check_product_sense(d, d)
        assert v.status == "Fails"
        assert v.witness["kind"] == "dimension_deficit"
        assert v.witness["dim_join"] == 2
        assert v.witness["deficit"] == 2

    def test_haar_conjugated_tensor_pair_holds(self):
        u = haar_unitary(6, seed=9)
        inst = tensor_pair(2, 3, np.random.default_rng(9))
        a1, a2 = conjugate_algebra(inst.a1, u), conjugate_algebra(inst.a2, u)
        v = check_product_sense(a1, a2)
        assert v.status == "Holds"
        assert v.certificate["dim_join"] == 36
        for value in product_isomorphism(a1, a2).validate().values():
            assert value <= 1e-9

    def test_non_commuting_pair_is_not_applicable(self):
        # the verdict the hierarchy gives the pair
        nc = noncommuting_pair(2, np.random.default_rng(307))
        v = check_product_sense(nc.a1, nc.a2)
        assert (v.status, v.reason) == ("Undecided", NOT_APPLICABLE)

    def test_validate_refuses_a_nan_from_tensor(self):
        # NaN compares false with every bound, so a gate must ask for worst <= bound
        iso = product_isomorphism(left_factor(2, 2), right_factor(2, 2))
        nan = np.full_like(iso.from_tensor, np.nan)
        with pytest.raises(IllConditioned):
            ProductIsomorphism(iso.factor1, iso.factor2, iso.join, iso.to_tensor, nan).validate()

    def test_validate_rejects_an_isomorphism_that_is_not_the_multiplication_map(self):
        # the golden's echoed pair, whose isomorphism verify-report rebuilds
        golden = Path(__file__).resolve().parent.parent / "instances" / "golden"
        doc = json.loads((golden / "tensor_pair_m6.report.json").read_text())
        hierarchy = next(c for c in doc["checks"] if c["check"] == "hierarchy")
        a1, a2 = (
            MatrixStarAlgebra(6, array_from_json(doc["instance"]["algebras"][name]["basis"]))
            for name in hierarchy["algebras"]
        )
        iso = product_isomorphism(a1, a2)
        iso.validate()
        twisted = ProductIsomorphism(
            a1, a2, iso.join, *twist_isomorphism(a1.basis, a2.dim, iso.to_tensor, iso.from_tensor)
        )
        with pytest.raises(IllConditioned):
            twisted.validate()


class TestProductSenseWork:
    # the product isomorphism is built on demand, written down from the
    # matrix units of the joint cells; no condition number is needed, as
    # the map and its inverse are diag(w) (C1 (x) C2) and its adjoint over w

    def test_one_map_no_cond_no_join_sized_eigensolve(self, monkeypatch):
        from staralg import independence

        pair = tensor_pair(3, 4, np.random.default_rng(19))
        n = pair.a1.ambient_dim
        calls = {"map": 0, "cond": 0}
        eig_sizes = []
        build_map = independence._multiplication_map

        def counted_map(*args):
            calls["map"] += 1
            return build_map(*args)

        def counted_cond(*args, **kwargs):
            calls["cond"] += 1
            return cond(*args, **kwargs)

        def sized(solver):
            def run(a, *args, **kwargs):
                eig_sizes.append(np.shape(a)[-1])
                return solver(a, *args, **kwargs)
            return run

        cond = np.linalg.cond
        monkeypatch.setattr(independence, "_multiplication_map", counted_map)
        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        monkeypatch.setattr(np.linalg, "eigh", sized(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", sized(np.linalg.eigvalsh))
        iso = product_isomorphism(pair.a1, pair.a2)
        assert iso.join.dim == n * n
        assert calls == {"map": 1, "cond": 0}
        assert all(size < n * n for size in eig_sizes), eig_sizes

    def test_the_isomorphism_forms_one_commutator_stack(self, monkeypatch):
        pair = tensor_pair(2, 3, np.random.default_rng(23))
        stacks = []
        form = independence.commute_witness
        monkeypatch.setattr(independence, "commute_witness", lambda *args: stacks.append(1) or form(*args))
        product_isomorphism(pair.a1, pair.a2)
        assert len(stacks) == 1

    def test_warm_structures_need_no_svd_or_inverse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called with both structures warm")

        pairs = [tensor_pair(3, 4, np.random.default_rng(29)), fuzz_instances("shared_block", 1, 1)[0]]
        for inst in pairs:
            for a in (inst.a1, inst.a2):
                a.structure(DEFAULT_TOL).units
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        product_isomorphism(pairs[0].a1, pairs[0].a2)
        for inst in pairs:
            join(inst.a1, inst.a2)

    def test_refusal_names_the_zero_cell(self):
        inst = cell_pair(np.array([[1, 0], [1, 1]]), [1, 1], [1, 1])
        cells = joint_cells(inst.a1, inst.a2)
        assert len(cells.zero_cells) == 1
        i, j = cells.zero_cells[0]
        with pytest.raises(NoProductIsomorphism, match=rf"joint cell \({i},{j}\) is zero"):
            product_isomorphism(inst.a1, inst.a2)


class TestCStarIndependence:
    def test_tensor_pair_holds_constructively(self):
        v = check_cstar_independence(left_factor(2, 2), right_factor(2, 2))
        assert v.status == "Holds"
        assert v.certificate["kind"] == "implied_by_product_isomorphism"
        product_isomorphism(left_factor(2, 2), right_factor(2, 2)).validate()

    def test_same_algebra_fails_with_pure_witnesses(self):
        d = diag_algebra(2)
        v = check_cstar_independence(d, d)
        assert v.status == "Fails"
        s1, s2 = v.witness["witness_states"]
        # the canonical refusal, on the first zero cell in the gauge-free
        # order of the central projections: e2-supported against e1-supported
        np.testing.assert_allclose(s1.density, np.diag([0.0, 1.0]), atol=1e-9)
        np.testing.assert_allclose(s2.density, np.diag([1.0, 0.0]), atol=1e-9)
        cells = joint_cells(d, d)
        i, j = cells.zero_cells[0]
        np.testing.assert_allclose(s1.density, cells.projections1[i], atol=1e-9)
        np.testing.assert_allclose(s2.density, cells.projections2[j], atol=1e-9)

    def test_noncommuting_pinned_seed_certifies_refusal(self):
        nc = noncommuting_pair(2, np.random.default_rng(0))
        v = check_cstar_independence(nc.a1, nc.a2, rng=np.random.default_rng(100))
        assert v.status == "Fails"
        assert v.witness["kind"] == "separating_pair"
        s1, s2 = v.witness["witness_states"]
        h1, h2 = v.witness["h1"], v.witness["h2"]
        assert verify_separating_pair(h1, h2, s1, s2) == v.witness["gap"]
        assert max(np.linalg.norm(h1, 2), np.linalg.norm(h2, 2)) == pytest.approx(1)
        # oracle: re-run the feasibility solver on the refused pair
        again = extend_state(s1, s2)
        assert again.status == "InfeasibleCertified"


class TestWStarMirrors:
    def test_wstar_equals_cstar_verdict(self):
        rng = np.random.default_rng(311)
        cases = [
            tensor_pair(2, 2, rng),
            noncommuting_pair(2, rng),
        ]
        d = diag_algebra(2)
        for a1, a2 in [(c.a1, c.a2) for c in cases] + [(d, d)]:
            vc = check_cstar_independence(a1, a2, rng=np.random.default_rng(1))
            vw = check_wstar_independence(a1, a2, rng=np.random.default_rng(1))
            assert vw.status == vc.status

    def test_wstar_product_sense_tensor_has_faithful_product_state(self):
        v = check_wstar_product_sense(left_factor(2, 2), right_factor(2, 2))
        assert v.status == "Holds"
        cert = v.certificate
        assert cert["kind"] == "faithful_product_state"
        assert cert["faithful"] is True
        rho = cert["density"]
        assert np.linalg.eigvalsh(rho).min() > 1e-9

    def test_the_product_state_check_takes_one_spectrum(self, monkeypatch):
        # M_2 (x) 1 and 1 (x) D_2: the join is M_2 (x) D_2, so a product of
        # the traces may be rank-deficient off the join
        a1 = left_factor(2, 2)
        a2 = generate_algebra([kron(np.eye(2), np.diag([1.0, 0.0]))], 4)
        plus = np.full((2, 2), 0.5, dtype=complex)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(1) or eigvalsh(*args, **kwargs))
        verify_faithful_product_state(np.eye(4, dtype=complex) / 4, a1, a2, DEFAULT_TOL)
        assert len(calls) == 1
        # the one spectrum still serves both checks: positivity, then full rank
        with pytest.raises(states.InvalidState, match="density is not positive"):
            verify_faithful_product_state(-np.eye(4, dtype=complex) / 4, a1, a2, DEFAULT_TOL)
        with pytest.raises(IllConditioned, match="product state is not of full rank"):
            verify_faithful_product_state(kron(np.eye(2) / 2, plus), a1, a2, DEFAULT_TOL)

    def test_collapsed_join_fails_with_relation_witness(self):
        g = np.zeros((4, 4), dtype=complex)
        g[0, 0] = 1.0
        g[2, 2] = 1.0
        a1 = generate_algebra([g], 4)
        a2 = generate_algebra([g.copy()], 4)
        assert mutually_commute(a1, a2)
        assert join(a1, a2).dim == 2
        v = check_wstar_product_sense(a1, a2)
        assert v.status == "Fails"
        witness = v.witness
        assert witness["kind"] == "multiplication_relation"
        # oracle: the relation z1 (x) z2 maps to z1 z2 = 0, while the states
        # concentrated on the two projections give it the product value 1
        z1, z2 = witness["projection1"], witness["projection2"]
        assert np.abs(z1 @ z2).max() <= 1e-9
        for z, a in ((z1, a1), (z2, a2)):
            assert np.abs(z @ z - z).max() <= 1e-9 and a.distance_to_span(z) <= 1e-9
        s1, s2 = state_from_density(a1, z1 / np.trace(z1)), state_from_density(a2, z2 / np.trace(z2))
        assert abs(s1.expect(z1) * s2.expect(z2) - 1) <= 1e-9
        i, j = witness["cell"]
        assert witness["mu"][i, j] == 0


class TestCertificateChecks:
    """Checks that the constructors and verify-report share."""

    def test_zero_projection_does_not_certify_annihilation(self):
        d = diag_algebra(2)
        z0, z1 = matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)
        assert annihilating_projections(z0, z1, d, d)
        # 0 z1 = 0, but no state gives the zero projection expectation 1
        assert not annihilating_projections(np.zeros((2, 2), dtype=complex), z1, d, d)

    def test_relation_value_within_the_element_norm_is_refused(self):
        # z_0 (x) z_0 maps to z_0 z_0 = z_0, of norm 1, and the states
        # concentrated on z_0 give it the value 1, which does not exceed
        # that norm: a nonzero cell is no relation witness
        d = diag_algebra(2)
        cells = joint_cells(d, d)
        z = cells.projections1[0]
        assert cells.mu[0, 0] == 1
        with pytest.raises(ValidationError, match="not a zero cell"):
            cells.check_zero_cell([0, 0], cells.mu.tolist(), z, z)

    def test_zero_cell_witness_is_tied_to_its_cell(self):
        d = diag_algebra(2)
        cells = joint_cells(d, d)
        (i, j), _ = cells.zero_cells
        z1, z2 = cells.projections1[i], cells.projections2[j]
        cells.check_zero_cell([i, j], cells.mu.tolist(), z1, z2)
        # the other zero cell, and the same projections swapped, still
        # annihilate, but they are not the projections of the recorded cell
        with pytest.raises(ValidationError, match="away from"):
            cells.check_zero_cell([j, i], cells.mu.tolist(), z1, z2)
        with pytest.raises(ValidationError, match="away from"):
            cells.check_zero_cell([i, j], cells.mu.tolist(), z2, z1)
        for bad in ([[1, 0], [0, 2]], [[1.0, 0.0], [0.0, 1.0]], [[1, 0]]):
            with pytest.raises(ValidationError, match="cell table"):
                cells.check_zero_cell([i, j], bad, z1, z2)
        for cell in ([-1, j], [True, j], [i, 2]):
            with pytest.raises(ValidationError, match="not a zero cell"):
                cells.check_zero_cell(cell, cells.mu.tolist(), z1, z2)


class TestJointOperation:
    def test_identity_pair_gives_conditional_expectation_onto_join(self):
        a1, a2 = left_factor(2, 3), right_factor(2, 3)
        joint = joint_operation(identity_on(a1), identity_on(a2))
        e = conditional_expectation(join(a1, a2))
        rng = np.random.default_rng(313)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert hs_norm(joint.apply(x) - e.apply(x)) <= 1e-9
        res = joint_extension_residuals(joint, identity_on(a1), identity_on(a2))
        assert max(res.values()) <= 1e-12

    def test_luders_and_unitary_pair_on_m6(self):
        rng = np.random.default_rng(317)
        a1, a2 = left_factor(2, 3), right_factor(2, 3)
        t1 = random_luders_channel(a1, rng)
        u3 = haar_unitary(3, seed=317)
        w = kron(np.eye(2), u3)
        act = superop_from_function(lambda x: dagger(w) @ x @ w, a2, 6)
        t2 = build_channel(a2, 6, act)
        joint = joint_operation(t1, t2)
        # five postconditions: CP, unitality, both restrictions, and
        # multiplicativity on the product basis
        assert joint.cp_certified
        assert joint.unital
        res = joint_extension_residuals(joint, t1, t2)
        assert res["restriction_residual_1"] <= 1e-8
        assert res["restriction_residual_2"] <= 1e-8
        assert res["multiplicativity_residual"] <= 1e-8

    def test_residuals_equal_the_per_pair_loop(self):
        def loop(joint, t1, t2):
            # reference: one application per basis element and per product
            a1, a2 = t1.domain, t2.domain
            images1, images2 = [joint.apply(b) for b in a1.basis], [joint.apply(c) for c in a2.basis]
            return {
                "restriction_residual_1": max(np.abs(x - t1.apply(b)).max() for b, x in zip(a1.basis, images1)),
                "restriction_residual_2": max(np.abs(y - t2.apply(c)).max() for c, y in zip(a2.basis, images2)),
                "multiplicativity_residual": max(
                    np.abs(joint.apply(b @ c) - x @ y).max()
                    for b, x in zip(a1.basis, images1) for c, y in zip(a2.basis, images2)
                ),
            }

        rng = np.random.default_rng(337)
        a1, a2 = left_factor(2, 3), right_factor(2, 3)
        t1, t2 = random_luders_channel(a1, rng), random_faithful_nonselective_channel(a2, rng)
        # a joint extension, and a unitary conjugation of M_6 that extends neither map
        m6, u = full_matrix_algebra(6), haar_unitary(6, seed=337)
        other = build_channel(m6, 6, superop_from_function(lambda x: dagger(u) @ x @ u, m6, 6))
        for joint in (joint_operation(t1, t2), other):
            got, want = joint_extension_residuals(joint, t1, t2), loop(joint, t1, t2)
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key

    def test_non_product_pair_is_refused(self):
        d = diag_algebra(2)
        with pytest.raises(NoProductIsomorphism):
            joint_operation(identity_on(d), identity_on(d))

    @staticmethod
    def isomorphism_route(t1, t2):
        """Reference action: T1 (x) T2 carried through the validated product isomorphism onto its join."""
        iso = product_isomorphism(t1.domain, t2.domain)

        def coefficients(t):
            basis = t.domain.basis
            return np.einsum("pij,aij->pa", basis.conj(), np.stack([t.apply(b) for b in basis]))

        coeff = iso.from_tensor @ np.kron(coefficients(t1), coefficients(t2)) @ iso.to_tensor
        jb = iso.join.basis_vecs
        return jb.T @ coeff @ jb.conj()

    def test_equals_the_product_isomorphism_route(self):
        pairs = [inst for family in ("tensor_split", "factor_split") for inst in fuzz_instances(family, 10, 1)]
        pairs += [cell_pair(np.array(mu), s1, s2, np.random.default_rng(71)) for mu, s1, s2 in PRODUCT_NOT_SPLIT.values()]
        rng = np.random.default_rng(359)
        for inst in pairs:
            n, algebras = inst.a1.ambient_dim, (inst.a1, inst.a2)
            faithful = [random_faithful_nonselective_channel(a, rng) for a in algebras]
            preparations = [state_preparation(state_from_density(a, random_density(n, rng))) for a in algebras]
            for t1, t2 in (faithful, preparations):
                got = joint_operation(t1, t2).action
                assert np.abs(got - self.isomorphism_route(t1, t2)).max() <= 1e-12, inst.meta

    def test_builds_no_product_isomorphism(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("joint_operation built a product isomorphism")

        monkeypatch.setattr(independence, "product_isomorphism", refuse)
        monkeypatch.setattr(independence, "_multiplication_map", refuse)
        rng = np.random.default_rng(373)
        inst = tensor_pair(2, 3, rng)
        t1, t2 = (random_faithful_nonselective_channel(a, rng) for a in (inst.a1, inst.a2))
        assert max(joint_extension_residuals(joint_operation(t1, t2), t1, t2).values()) <= 1e-12

    def test_a_twisted_cell_basis_fails_the_residual_gate(self, monkeypatch):
        # C1 precomposed with an inner automorphism of A1: the map on the join
        # is still a unital CP map, but it no longer restricts to T1
        cell_basis = independence.JointCells.cell_basis.func

        def twisted(cells):
            g, w, c1, c2 = cell_basis(cells)
            return g, w, twist_isomorphism(cells.a1.basis, 1, np.eye(len(c1)), c1)[1], c2

        monkeypatch.setattr(independence.JointCells, "cell_basis", property(twisted))
        rng = np.random.default_rng(367)
        inst = tensor_pair(2, 3, rng)
        t1, t2 = (random_faithful_nonselective_channel(a, rng) for a in (inst.a1, inst.a2))
        with pytest.raises(IllConditioned, match="joint extension residual"):
            joint_operation(t1, t2)

    def test_non_commuting_pair_is_refused(self):
        nc = noncommuting_pair(2, np.random.default_rng(331))
        with pytest.raises((NotCommuting, NoProductIsomorphism)):
            joint_operation(identity_on(nc.a1), identity_on(nc.a2))


class TestProductTransition:
    def test_prep_pair_produces_product_marginals(self):
        rng = np.random.default_rng(337)
        a1, a2 = left_factor(2, 3), right_factor(2, 3)
        phi1 = state_from_density(a1, kron(random_density(2, rng), np.eye(3) / 3))
        phi2 = state_from_density(a2, kron(np.eye(2) / 2, random_density(3, rng)))
        joint = joint_operation(state_preparation(phi1), state_preparation(phi2))
        assert verify_product_transition(joint, phi1, phi2)
        # the exact check agrees with random inputs pushed through the dual
        dual = dual_on_states(joint)
        for _ in range(5):
            assert product_residual(dual.apply(random_density(6, rng)), phi1, phi2) <= 1e-10

    def test_entangled_input_still_yields_product_output(self):
        rng = np.random.default_rng(347)
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        phi1 = state_from_density(a1, kron(random_density(2, rng), np.eye(2) / 2))
        phi2 = state_from_density(a2, kron(np.eye(2) / 2, random_density(2, rng)))
        joint = joint_operation(state_preparation(phi1), state_preparation(phi2))
        v = (np.eye(4)[0] + np.eye(4)[3]) / np.sqrt(2)
        entangled = np.outer(v, v.conj()).astype(complex)
        assert verify_product_transition(joint, phi1, phi2)
        assert product_residual(dual_on_states(joint).apply(entangled), phi1, phi2) <= 1e-10

    def test_tracial_input_passes_marginal_checks(self):
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        phi1 = canonical_trace_state(a1)
        phi2 = canonical_trace_state(a2)
        joint = joint_operation(state_preparation(phi1), state_preparation(phi2))
        assert verify_product_transition(joint, phi1, phi2)
        assert product_residual(dual_on_states(joint).apply(np.eye(4) / 4), phi1, phi2) <= 1e-10

    def test_a_map_that_keeps_one_input_is_caught(self):
        # T(x y) = phi1(x) y depends on the input state through y, which a
        # random input pushed through the dual confirms
        rng = np.random.default_rng(353)
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        phi1 = state_from_density(a1, kron(random_density(2, rng), np.eye(2) / 2))
        phi2 = state_from_density(a2, kron(np.eye(2) / 2, random_density(2, rng)))
        joint = joint_operation(state_preparation(phi1), identity_on(a2))
        assert not verify_product_transition(joint, phi1, phi2)
        assert product_residual(dual_on_states(joint).apply(random_density(4, rng)), phi1, phi2) > 1e-3


class TestHierarchy:
    def test_tensor_pair_all_hold(self):
        rng = np.random.default_rng(353)
        inst = tensor_pair(2, 2, rng)
        report = run_hierarchy_checks(inst.a1, inst.a2, seed=1, samples=8, op_samples=2)
        assert all(v.status == "Holds" for v in report.verdicts.values())
        assert implication_violations(report.verdicts) == []

    def test_same_algebra_all_fail(self):
        d = diag_algebra(2)
        report = run_hierarchy_checks(d, d, seed=1, samples=8, op_samples=2)
        assert all(v.status == "Fails" for v in report.verdicts.values())
        assert implication_violations(report.verdicts) == []

    def test_sweep_has_no_implication_violations(self):
        from staralg import fuzz_instances

        for family in ("tensor_split", "shared_block", "haar_overlap"):
            for inst in fuzz_instances(family, 3, seed=23):
                report = run_hierarchy_checks(
                    inst.a1, inst.a2, seed=5, samples=4, op_samples=2
                )
                assert implication_violations(report.verdicts) == []

    @staticmethod
    def plain(x):
        """Certificates and witnesses as plain data, arrays as nested lists."""
        if isinstance(x, dict):
            return {k: TestHierarchy.plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [TestHierarchy.plain(v) for v in x]
        if isinstance(x, np.ndarray):
            return x.tolist()
        if dataclasses.is_dataclass(x):
            return {f.name: TestHierarchy.plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
        return x

    def verdict_data(self, report):
        return {
            key: (v.status, self.plain(v.certificate), self.plain(v.witness), v.reason)
            for key, v in report.verdicts.items()
        }

    def test_product_pair_does_not_depend_on_seed_or_samples(self):
        inst = tensor_pair(2, 3, np.random.default_rng(359))
        runs = [
            self.verdict_data(run_hierarchy_checks(inst.a1, inst.a2, seed=seed, samples=samples))
            for seed in (0, 1)
            for samples in (2, 50)
        ]
        assert all(v[0] == "Holds" for v in runs[0].values())
        assert all(run == runs[0] for run in runs[1:])

    def test_op_samples_has_no_effect(self):
        d = diag_algebra(2)
        inst = tensor_pair(2, 2, np.random.default_rng(361))
        for a1, a2 in ((inst.a1, inst.a2), (d, d)):
            runs = [
                self.verdict_data(run_hierarchy_checks(a1, a2, seed=3, samples=4, op_samples=k))
                for k in (0, 5)
            ]
            assert runs[0] == runs[1]

    def test_violation_detection_on_artificial_verdicts(self):
        verdicts = {
            "cstar_product_sense": Verdict("Holds", certificate={}),
            "cstar_independent": Verdict("Fails", witness={}),
        }
        assert ("cstar_product_sense", "cstar_independent") in implication_violations(
            verdicts
        )


class TestInterpolatingFactor:
    def test_plain_tensor_embedding_found(self):
        full2 = full_matrix_algebra(2)
        l = generate_algebra([kron(b, np.eye(3)) for b in full2.basis], 6)
        r = commutant(l)
        out = find_interpolating_factor(l, r)
        assert out.status == "Found"
        factor = out.factor
        assert (factor.d1, factor.d2) == (2, 3)
        # the factor must contain the first algebra and commute with the second
        assert max(factor.residuals.values()) <= 1e-8
        for b in l.basis:
            assert factor.algebra.distance_to_span(b) <= 1e-8

    def test_haar_conjugated_split_found_and_unitary_splits(self):
        u = haar_unitary(6, seed=41)
        inst = tensor_pair(2, 3, np.random.default_rng(41))
        a1 = conjugate_algebra(inst.a1, u)
        a2 = conjugate_algebra(inst.a2, u)
        out = find_interpolating_factor(a1, a2)
        assert out.status == "Found"
        w = out.factor.unitary
        # oracle: conjugation brings the first algebra to X (x) 1 and the
        # second to 1 (x) Y, checked entrywise through slice structure
        d1, d2 = out.factor.d1, out.factor.d2
        assert (d1, d2) == (2, 3)
        for b in a1.basis:
            t = w @ b @ dagger(w)
            x = t[::d2, ::d2]
            assert hs_norm(t - kron(x, np.eye(d2))) <= 1e-8
        for b in a2.basis:
            t = w @ b @ dagger(w)
            y = t[:d2, :d2]
            assert hs_norm(t - kron(np.eye(d1), y)) <= 1e-8

    def test_same_abelian_pair_not_found(self):
        d = diag_algebra(2)
        out = find_interpolating_factor(d, d)
        assert out.status == "NotFound"

    def test_prime_ambient_not_found(self):
        a = canonical_block_algebra([(2, 1), (1, 3)], 5)
        c = commutant(a)
        assert mutually_commute(a, c)
        out = find_interpolating_factor(a, c)
        assert out.status == "NotFound"

    def test_spatial_check_agrees_with_search(self):
        cases = []
        u = haar_unitary(6, seed=43)
        inst = tensor_pair(2, 3, np.random.default_rng(43))
        cases.append((conjugate_algebra(inst.a1, u), conjugate_algebra(inst.a2, u)))
        d = diag_algebra(2)
        cases.append((d, d))
        a = canonical_block_algebra([(2, 1), (1, 3)], 5)
        cases.append((a, commutant(a)))
        for a1, a2 in cases:
            found = find_interpolating_factor(a1, a2).status == "Found"
            holds = check_spatial_product_sense(a1, a2).status == "Holds"
            assert found == holds


def reference_split_residuals(a1, a2, factor):
    """The split-certificate residuals, one basis element or pair at a time."""
    m, u, d1, d2 = factor.algebra, factor.unitary, factor.d1, factor.d2
    eye1, eye2 = np.eye(d1), np.eye(d2)

    def first_leg(x):
        return np.einsum("asbs->ab", x.reshape(d1, d2, d1, d2)) / d2

    def second_leg(x):
        return np.einsum("sasb->ab", x.reshape(d1, d2, d1, d2)) / d1

    def off_leg(mats, first):
        worst = 0.0
        for x in mats:
            img = u @ x @ dagger(u)
            leg = kron(first_leg(img), eye2) if first else kron(eye1, second_leg(img))
            worst = max(worst, float(np.abs(img - leg).max()))
        return worst

    product = 0.0
    for b in a1.basis:
        left = first_leg(u @ b @ dagger(u))
        for c in a2.basis:
            right = second_leg(u @ c @ dagger(u))
            img = u @ (b @ c) @ dagger(u)
            product = max(product, float(np.abs(img - kron(left, right)).max()))
    return {
        "unitarity_residual": float(np.abs(u @ dagger(u) - np.eye(d1 * d2)).max()),
        "containment_residual": max(m.distance_to_span(b) for b in a1.basis),
        "commutant_residual": max(
            float(np.abs(x @ c - c @ x).max()) for x in m.basis for c in a2.basis
        ),
        "embedding_residual_1": off_leg(a1.basis, True),
        "embedding_residual_2": off_leg(a2.basis, False),
        "product_factorization_residual": product,
    }


def split_cases():
    cell = fuzz_instances("tensor_split", 2, 1)[1]
    return {
        "haar_2x3": tensor_pair(2, 3, np.random.default_rng(61)),
        "haar_3x4": tensor_pair(3, 4, np.random.default_rng(62)),
        "cell_assembly_3x3": cell,
    }


class TestStackedSplitResiduals:
    @pytest.mark.parametrize("case", sorted(split_cases()))
    def test_stacked_residuals_match_the_per_element_loops(self, case):
        pair = split_cases()[case]
        v = check_spatial_product_sense(pair.a1, pair.a2)
        assert v.status == "Holds"
        factor = v.certificate["factor"]
        if case.startswith("cell"):
            assert v.certificate["search_note"] == "assembled from the joint cell structure"
        want = reference_split_residuals(pair.a1, pair.a2, factor)
        certified = {"unitarity_residual", "embedding_residual_1", "embedding_residual_2"}
        assert set(factor.residuals) == certified
        for key in certified:
            assert abs(factor.residuals[key] - want[key]) <= 1e-12, key
        # the other three follow from the certified ones (verify_interpolating_factor)
        bound = SPLIT_IMPLIED_BOUND * pair.a1.ambient_dim * max(factor.residuals.values())
        for key in set(want) - certified:
            assert want[key] <= bound, (key, want[key], bound)

    def test_swapped_legs_are_refused(self):
        pair = tensor_pair(3, 3, np.random.default_rng(63))
        factor = find_interpolating_factor(pair.a1, pair.a2).factor
        swap = np.eye(9)[[3 * j + i for i in range(3) for j in range(3)]]
        with pytest.raises(IllConditioned):
            verify_interpolating_factor(
                swap @ factor.unitary, 3, 3, pair.a1, pair.a2, DEFAULT_TOL
            )

    def test_a_nan_unitary_is_refused(self):
        pair = tensor_pair(2, 3, np.random.default_rng(64))
        with pytest.raises(IllConditioned):
            verify_interpolating_factor(np.full((6, 6), np.nan), 2, 3, pair.a1, pair.a2, DEFAULT_TOL)

    @pytest.mark.parametrize("d1,d2", [(1, 1), (2, 2), (0, 6), (2.0, 3), (True, 6)])
    def test_legs_that_do_not_split_the_ambient_space_are_refused(self, d1, d2):
        pair = tensor_pair(2, 3, np.random.default_rng(64))
        factor = find_interpolating_factor(pair.a1, pair.a2).factor
        with pytest.raises(ShapeMismatch):
            verify_interpolating_factor(
                factor.unitary, d1, d2, pair.a1, pair.a2, DEFAULT_TOL
            )


def mixed_in_clusters(rng, eigh, svd):
    """``eigh`` and ``svd`` whose vectors are mixed by seeded unitaries inside each cluster of equal values.

    Any orthonormal basis of a degenerate eigenspace (or singular subspace)
    is an equally valid answer, so a result that must not depend on the
    basis gauge has to survive this.  Real vectors get orthogonal mixers.
    """
    def mixers(values, vectors):
        cut = 1e-9 * max(1.0, float(np.abs(values).max(initial=0.0)))
        for group in np.split(np.arange(values.size), np.flatnonzero(np.abs(np.diff(values)) > cut) + 1):
            z = rng.standard_normal((group.size, group.size))
            if np.iscomplexobj(vectors):
                z = z + 1j * rng.standard_normal(z.shape)
            yield group, np.linalg.qr(z)[0]

    def mixed_eigh(a, *args, **kwargs):
        w, v = eigh(a, *args, **kwargs)
        if np.ndim(a) == 2:
            for group, q in list(mixers(w, v)):
                v[:, group] = v[:, group] @ q
        return w, v

    def mixed_svd(a, full_matrices=True, compute_uv=True, hermitian=False):
        out = svd(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)
        if compute_uv and np.ndim(a) == 2:
            u, s, vh = out
            # A = (U Q) S (V Q)* whenever S is constant on the cluster
            for group, q in list(mixers(s, vh)):
                u[:, group] = u[:, group] @ q
                vh[group] = dagger(q) @ vh[group]
        return out

    return mixed_eigh, mixed_svd


def split_pair_m6():
    doc = json.loads((Path(__file__).resolve().parent.parent / "instances" / "split_pair_m6.json").read_text())
    n = doc["ambient_dim"]
    return [generate_algebra(array_from_json(doc["algebras"][name]["generators"]), n)
            for name in ("hidden_left", "hidden_right")]


class TestFactorizingUnitary:
    @pytest.mark.parametrize("case", ["split_pair_m6", "cell_pair_mu2"])
    def test_unitary_does_not_follow_the_basis_gauge(self, case, monkeypatch):
        if case == "split_pair_m6":
            pair = split_pair_m6()
        else:
            inst = cell_pair(np.array([[2, 2], [2, 2]]), [2, 1], [1, 1], np.random.default_rng(73))
            pair = [inst.a1, inst.a2]
        want = find_interpolating_factor(*pair).factor.unitary
        # another orthonormal basis of each span, and other bases of every degenerate subspace
        mixed = [MatrixStarAlgebra(a.ambient_dim, np.tensordot(haar_unitary(a.dim, 7), a.basis, axes=(1, 0)))
                 for a in pair]
        eigh, svd = mixed_in_clusters(np.random.default_rng(5), np.linalg.eigh, np.linalg.svd)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "svd", svd)
        got = find_interpolating_factor(*mixed).factor.unitary
        assert np.abs(got - want).max() <= 1e-10

    def test_a_factor_is_split_by_its_structure_intertwiner(self):
        inst = tensor_pair(2, 3, np.random.default_rng(67))
        outcome = find_interpolating_factor(inst.a1, inst.a2)
        assert outcome.reason == "the first algebra is itself a factor"
        want = dagger(structure_decomposition(inst.a1).intertwiner)
        assert np.array_equal(outcome.factor.unitary, want)

    def test_the_full_algebra_is_split_by_the_identity(self):
        factor = find_interpolating_factor(full_matrix_algebra(3), scalar_algebra(3)).factor
        assert (factor.d1, factor.d2) == (3, 1)
        assert np.array_equal(factor.unitary, np.eye(3))

    def test_a_factor_pair_is_split_without_the_structure_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("structure_decomposition ran in the split check")

        monkeypatch.setattr(algebra, "structure_decomposition", refuse)
        monkeypatch.setattr(independence, "structure_decomposition", refuse, raising=False)
        inst = tensor_pair(2, 3, np.random.default_rng(67))
        verdict = run_hierarchy_checks(inst.a1, inst.a2).verdicts["split"]
        assert verdict.status == "Holds"
        assert verdict.certificate["search_note"] == "the first algebra is itself a factor"


# product position without the split property: mu is not an integer outer product
PRODUCT_NOT_SPLIT = {
    "mu_1112": ([[1, 1], [1, 2]], [1, 1], [1, 1]),
    "mu_1221": ([[1, 2], [2, 1]], [1, 2], [2, 1]),
}


class TestProductButNotSplit:
    @pytest.mark.parametrize("case", sorted(PRODUCT_NOT_SPLIT))
    def test_every_notion_but_split_holds(self, case):
        mu, sizes1, sizes2 = PRODUCT_NOT_SPLIT[case]
        inst = cell_pair(np.array(mu), sizes1, sizes2)
        verdicts = run_hierarchy_checks(inst.a1, inst.a2).verdicts
        statuses = {key: v.status for key, v in verdicts.items()}
        assert statuses == {**dict.fromkeys(VERDICT_KEYS, "Holds"), "split": "Fails"}
        witness = verdicts["split"].witness
        assert witness["kind"] == "no_interpolating_factor"
        assert "no positive integer rank-one factorization" in witness["reason"]

    @pytest.mark.parametrize(
        "mu,want",
        [
            ([[4, 6], [6, 9]], ([2, 3], [2, 3])),
            ([[6, 10], [9, 15]], ([2, 3], [3, 5])),
            ([[3]], ([1], [3])),
            ([[1, 1], [1, 2]], None),
            ([[1, 0], [0, 1]], None),
            ([[2, 2], [0, 2]], None),
        ],
    )
    def test_integer_rank_one_factorization(self, mu, want):
        got = _integer_rank_one_factorization(np.array(mu))
        if want is None:
            assert got is None
        else:
            assert [v.tolist() for v in got] == list(want)


class TestCommutingPairsDecidedOnce:
    """Every notion of a commuting pair is decided by one exact route."""

    def test_factor_search_builds_no_commutant(self, monkeypatch):
        calls = []

        def counting(a, tol=DEFAULT_TOL):
            calls.append(a.dim)
            return commutant(a, tol)

        monkeypatch.setattr(algebra, "commutant", counting)
        monkeypatch.setattr(independence, "commutant", counting, raising=False)
        shared = fuzz_instances("shared_block", 1, 1)[0]
        cell = split_cases()["cell_assembly_3x3"]
        assert find_interpolating_factor(shared.a1, shared.a2).status == "NotFound"
        assert find_interpolating_factor(cell.a1, cell.a2).status == "Found"
        assert calls == []

    def test_a_commuting_pair_left_open_raises_without_sampling(self, monkeypatch):
        # a margin above the zero cell's gap of 1 leaves the pair unrefuted
        sampled = []
        monkeypatch.setattr(states, "SEPARATION_MARGIN", 1e9)
        monkeypatch.setattr(
            sampling, "sample_state_pairs", lambda *args, **kw: sampled.append(args) or []
        )
        d = diag_algebra(2)
        with pytest.raises(IllConditioned):
            check_cstar_independence(d, d)
        assert sampled == []

    def test_shared_block_pairs_never_call_the_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the extension solver ran on a commuting pair")

        monkeypatch.setattr(independence, "extend_state_batch", refuse, raising=False)
        monkeypatch.setattr(states, "extend_state_batch", refuse)
        for inst in fuzz_instances("shared_block", 10, 1):
            report = run_hierarchy_checks(inst.a1, inst.a2)
            witness = report.verdicts["cstar_independent"].witness
            assert witness["kind"] == "separating_pair"
            assert witness["gap"] == pytest.approx(1)
            for key in ("wstar_independent", "op_cstar", "op_wstar"):
                assert report.verdicts[key].witness["plain"] == "cstar_independent"

    def test_center_and_factor_works_once_per_algebra(self, monkeypatch):
        # the structure cache: the center and its projections are computed
        # once per algebra, however many checks of the hierarchy read them
        work = []
        compute = algebra.AlgebraStructure.__post_init__
        monkeypatch.setattr(
            algebra.AlgebraStructure, "__post_init__", lambda s: work.append(id(s.algebra)) or compute(s)
        )
        cases = [fuzz_instances(family, 1, 1)[0] for family in ("tensor_split", "shared_block", "factor_split")]
        cases += [split_cases()["cell_assembly_3x3"], cell_pair(np.array([[1, 1], [1, 2]]), [1, 1], [1, 1])]
        for inst in cases:
            work.clear()
            run_hierarchy_checks(inst.a1, inst.a2)
            assert sorted(work) == sorted([id(inst.a1), id(inst.a2)]), inst.meta

    def test_decided_without_join_inverse_or_map(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called on the decision path")

        monkeypatch.setattr(independence, "_multiplication_map", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        pairs = [inst for family in ("tensor_split", "shared_block", "factor_split")
                 for inst in fuzz_instances(family, 10, 1)]
        pairs += [cell_pair(np.array(mu), s1, s2) for mu, s1, s2 in PRODUCT_NOT_SPLIT.values()]
        for inst in pairs:
            statuses = {v.status for v in run_hierarchy_checks(inst.a1, inst.a2).verdicts.values()}
            assert "Undecided" not in statuses, (inst.family, inst.meta)

    def test_no_commuting_pair_is_undecided(self):
        pairs = [inst for family in FUZZ_FAMILIES for inst in fuzz_instances(family, 10, 1)]
        pairs += [cell_pair(np.array(mu), s1, s2) for mu, s1, s2 in PRODUCT_NOT_SPLIT.values()]
        commuting = [p for p in pairs if mutually_commute(p.a1, p.a2)]
        assert len(commuting) == 32
        for inst in commuting:
            verdicts = run_hierarchy_checks(inst.a1, inst.a2).verdicts
            undecided = [k for k, v in verdicts.items() if v.status == "Undecided"]
            assert undecided == [], (inst.family, inst.meta)


def product_stack_rank(a1, a2):
    """Reference dim(join): the rank of the stack of all products b_a c_b."""
    n = a1.ambient_dim
    stack = products(a1.basis, a2.basis).reshape(a1.dim * a2.dim, n * n)
    sigma = np.linalg.svd(stack, compute_uv=False)
    return int(np.count_nonzero(sigma > 1e-8 * sigma[0]))


class TestCellTable:
    def test_commuting_join_equals_the_product_stack_span(self):
        # reference: the span of all products b_a c_b by an SVD of their
        # stack, in the canonical gauge
        pairs = [inst for family in ("tensor_split", "shared_block", "factor_split")
                 for inst in fuzz_instances(family, 10, 1)]
        pairs += [cell_pair(np.array(mu), s1, s2) for mu, s1, s2 in PRODUCT_NOT_SPLIT.values()]
        for inst in pairs:
            n = inst.a1.ambient_dim
            stack = products(inst.a1.basis, inst.a2.basis).reshape(-1, n, n)
            want = canonical_basis(orthonormalize(stack))
            got = join(inst.a1, inst.a2).basis
            assert got.shape == want.shape, inst.meta
            assert np.abs(got - want).max() <= 1e-10, inst.meta

    def test_cell_verdict_equals_the_product_stack_count(self):
        pairs = [inst for family in ("tensor_split", "shared_block", "factor_split")
                 for seed in (1, 2) for inst in fuzz_instances(family, 20, seed)]
        pairs += [cell_pair(np.array(mu), s1, s2) for mu, s1, s2 in PRODUCT_NOT_SPLIT.values()]
        statuses = set()
        for inst in pairs:
            v = check_product_sense(inst.a1, inst.a2)
            rank = product_stack_rank(inst.a1, inst.a2)
            assert (v.certificate or v.witness)["dim_join"] == rank, inst.meta
            assert (v.status == "Holds") == (rank == inst.a1.dim * inst.a2.dim), inst.meta
            statuses.add(v.status)
        assert statuses == {"Holds", "Fails"}

    @pytest.mark.parametrize("case", sorted(PRODUCT_NOT_SPLIT))
    def test_product_state_is_the_product_of_the_traces(self, case):
        # oracle: both sides of phi(x y) = tau(x) tau(y) on every basis pair
        mu, sizes1, sizes2 = PRODUCT_NOT_SPLIT[case]
        inst = cell_pair(np.array(mu), sizes1, sizes2, np.random.default_rng(71))
        cert = check_wstar_product_sense(inst.a1, inst.a2).certificate
        rho, n = cert["density"], inst.a1.ambient_dim
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() > 1e-3
        for b in inst.a1.basis:
            for c in inst.a2.basis:
                want = np.trace(b) * np.trace(c) / n**2
                assert abs(np.trace(rho @ b @ c) - want) <= 1e-12


class TestProjectionSearch:
    """Route (iii) of check_cstar_independence: minimal projections p, q with p ^ q = 0."""

    def test_refuses_a_commuting_pair_exactly_on_a_zero_cell(self):
        pairs = [inst for family in ("shared_block", "tensor_split", "factor_split")
                 for inst in fuzz_instances(family, 10, 1)]
        pairs += [cell_pair(np.array(mu), s1, s2) for mu, s1, s2 in PRODUCT_NOT_SPLIT.values()]
        pairs += [cell_pair(np.array(mu), s1, s2, np.random.default_rng(95))
                  for mu, s1, s2 in (([[0, 1, 1], [1, 1, 0]], [2, 1], [1, 2, 1]), ([[1, 2], [2, 0]], [2, 1], [1, 2]))]
        zero = []
        for k, inst in enumerate(pairs):
            verdict = _projection_search(inst.a1, inst.a2, np.random.default_rng(k), DEFAULT_TOL)
            zero.append(bool(joint_cells(inst.a1, inst.a2).zero_cells))
            assert verdict.status == ("Fails" if zero[-1] else "Undecided"), inst.meta
            if zero[-1]:
                assert verdict.witness["gap"] == pytest.approx(1)
        assert 0 < sum(zero) < len(pairs)

    def test_every_solver_refusal_is_also_a_search_refusal(self):
        # the old route, inline: the extension solver over sampled marginal
        # pairs, in chunks of four, up to the first refusal
        solver_refused = 0
        for seed in (1, 2):
            for idx, inst in enumerate(fuzz_instances("haar_overlap", 20, seed)):
                pairs = sample_state_pairs(inst.a1, inst.a2, 12, np.random.default_rng(idx))
                refused = any(out.status == "InfeasibleCertified"
                              for start in range(0, len(pairs), 4)
                              for out in extend_state_batch(pairs[start:start + 4], max_iter=4000))
                solver_refused += refused
                verdict = check_cstar_independence(inst.a1, inst.a2, rng=idx)
                assert verdict.status == "Fails", (seed, idx)
                witness = verdict.witness
                gap = verify_separating_pair(witness["h1"], witness["h2"], *witness["witness_states"])
                assert gap == pytest.approx(witness["gap"])
        assert solver_refused > 0


    @staticmethod
    def search_algebras():
        yield from (algebra.full_matrix_algebra(3), algebra.scalar_algebra(3), diag_algebra(3))
        for family in ("haar_overlap", "shared_block", "factor_split"):
            for inst in fuzz_instances(family, 10, 1):
                yield from (inst.a1, inst.a2)

    def test_minimal_projections_are_the_matrix_unit_sums(self):
        for k, a in enumerate(self.search_algebras()):
            p = independence._minimal_projections(a, np.random.default_rng(k), DEFAULT_TOL)
            # the reference: sum_ab x_a conj(x_b) e_ab from the full matrix units, same draws
            rng, ref = np.random.default_rng(k), []
            for units in a.structure().units:
                shape = (independence.SEARCH_DRAWS if len(units) > 1 else 1, len(units))
                x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                x /= np.linalg.norm(x, axis=1, keepdims=True)
                ref.extend(np.einsum("a,b,abij->ij", xs, xs.conj(), units) for xs in x)
            assert p.shape == (len(ref), a.ambient_dim, a.ambient_dim)
            assert np.abs(p - np.stack(ref)).max() <= 1e-12
            assert np.abs(p @ p - p).max() <= 1e-12

    def test_the_search_norms_are_operator_norms(self):
        for k, inst in enumerate(fuzz_instances("haar_overlap", 20, 1)):
            rng = np.random.default_rng(k)
            p, q = (independence._minimal_projections(a, rng, DEFAULT_TOL) for a in (inst.a1, inst.a2))
            ref = np.linalg.norm(products(p, q), 2, axis=(2, 3))
            assert np.abs(independence._product_norms(p, q) - ref).max() <= 1e-12

    def test_a_search_refusal_builds_no_matrix_units(self):
        for idx, inst in enumerate(fuzz_instances("haar_overlap", 5, 1)):
            report = run_hierarchy_checks(inst.a1, inst.a2, seed=idx)
            assert report.verdicts["cstar_independent"].status == "Fails"
            for a in (inst.a1, inst.a2):
                assert "units" not in a.structure().__dict__
