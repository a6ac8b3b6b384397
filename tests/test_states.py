"""States on subalgebras: canonical trace, restriction (the same density on
the subalgebra, through ``state_from_density``), faithfulness,
product states, and joint extension of marginal pairs.

Oracles: expectation values are recomputed as direct traces against
densities; feasibility witnesses are re-checked by independent residual
evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import diag_algebra, left_factor, matrix_unit, right_factor
from staralg import (
    AlgebraState,
    IllConditioned,
    InvalidState,
    canonical_block_algebra,
    canonical_trace_state,
    check_product_sense,
    conjugate_algebra,
    extend_state,
    extend_state_batch,
    full_matrix_algebra,
    generate_algebra,
    is_faithful,
    marginal_residual,
    product_residual,
    scalar_algebra,
    state_from_density,
    state_from_values,
    verify_separating_pair,
)
from staralg import states
from staralg.independence import check_cstar_independence
from staralg.numerics import Tolerances
from staralg.sampling import fuzz_instances
from staralg.states import SEPARATION_MARGIN, separating_pair
from staralg.numerics import DEFAULT_TOL, dagger, haar_unitary, hs_norm, kron
from staralg.sampling import random_density, sample_state_pairs, tensor_pair


def direct_expectations(rho, algebra):
    """Oracle: tr(rho b_i) for every basis element, evaluated as plain traces."""
    return np.array([np.trace(rho @ b) for b in algebra.basis])


class TestCanonicalTraceState:
    def test_m2_matrix_unit_value(self):
        phi = canonical_trace_state(full_matrix_algebra(2))
        assert abs(phi.expect(matrix_unit(2, 0, 0)) - 0.5) <= 1e-12

    def test_scalars_unit_value(self):
        phi = canonical_trace_state(scalar_algebra(3))
        assert abs(phi.expect(np.eye(3, dtype=complex)) - 1.0) <= 1e-12

    def test_gram_matrix_positive_definite(self):
        from staralg.sampling import random_subalgebra

        rng = np.random.default_rng(67)
        for _ in range(5):
            a, _ = random_subalgebra(int(rng.integers(2, 6)), rng)
            phi = canonical_trace_state(a)
            gram = np.array(
                [[phi.expect(dagger(bi) @ bj) for bj in a.basis] for bi in a.basis]
            )
            # oracle: eigenvalues of the Gram matrix
            assert np.linalg.eigvalsh((gram + dagger(gram)) / 2).min() > 1e-10


class TestStateConstruction:
    def test_from_density_keeps_expectations(self):
        rng = np.random.default_rng(71)
        a = diag_algebra(3)
        rho = random_density(3, rng)
        phi = state_from_density(a, rho)
        np.testing.assert_allclose(
            phi.expect_basis(), direct_expectations(rho, a), atol=1e-10
        )

    def test_from_values_reproduces_values(self):
        rng = np.random.default_rng(73)
        a = full_matrix_algebra(2)
        rho = random_density(2, rng)
        values = direct_expectations(rho, a)
        phi = state_from_values(a, values)
        np.testing.assert_allclose(phi.expect_basis(), values, atol=1e-10)

    def test_rejects_non_positive_density(self):
        a = full_matrix_algebra(2)
        with pytest.raises(InvalidState):
            state_from_density(a, np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_wrong_trace(self):
        a = full_matrix_algebra(2)
        with pytest.raises(InvalidState):
            state_from_density(a, np.diag([0.4, 0.4]).astype(complex))


class TestRestrict:
    def test_tracial_restricts_to_tracial(self):
        phi = canonical_trace_state(full_matrix_algebra(4))
        sub = left_factor(2, 2)
        psi = state_from_density(sub, phi.density)
        tau = canonical_trace_state(sub)
        np.testing.assert_allclose(psi.expect_basis(), tau.expect_basis(), atol=1e-10)

    def test_restrict_to_scalars_is_unit_functional(self):
        rng = np.random.default_rng(79)
        a = full_matrix_algebra(3)
        phi = state_from_density(a, random_density(3, rng))
        psi = state_from_density(scalar_algebra(3), phi.density)
        assert abs(psi.expect(np.eye(3, dtype=complex)) - 1.0) <= 1e-10

    def test_marginal_agreement_on_basis(self):
        rng = np.random.default_rng(83)
        a = full_matrix_algebra(4)
        rho = random_density(4, rng)
        phi = state_from_density(a, rho)
        sub = right_factor(2, 2)
        psi = state_from_density(sub, phi.density)
        # oracle: direct trace evaluation before and after
        for b in sub.basis:
            assert abs(psi.expect(b) - np.trace(rho @ b)) <= 1e-10


class TestIsFaithful:
    def test_tracial_state_is_faithful(self):
        assert is_faithful(canonical_trace_state(full_matrix_algebra(3)))

    def test_vector_state_on_diagonal_is_not(self):
        a = diag_algebra(2)
        phi = state_from_density(a, np.diag([1.0, 0.0]).astype(complex))
        assert not is_faithful(phi)

    def test_full_rank_density_is_faithful(self):
        rng = np.random.default_rng(89)
        rho = random_density(4, rng)
        # oracle: strictly positive minimum eigenvalue
        assert np.linalg.eigvalsh(rho).min() > 0
        assert is_faithful(state_from_density(full_matrix_algebra(4), rho))


def gram_faithful(density, algebra, tol=DEFAULT_TOL):
    """Oracle: the Gram matrix tr(b_a* b_b rho) is positive definite on the same scale."""
    gram = np.array([[np.trace(dagger(x) @ y @ density) for y in algebra.basis]
                     for x in algebra.basis])
    evals = np.linalg.eigvalsh(0.5 * (gram + dagger(gram)))
    return bool(evals[0] > tol.eps_psd * max(1.0, evals[-1]))


class TestFaithfulFromConditionalExpectation:
    # is_faithful reads the spectrum of E_B(rho); the oracle diagonalizes
    # the Gram matrix over the algebra basis

    @staticmethod
    def algebras():
        u = haar_unitary(4, seed=53)
        return {
            "block": conjugate_algebra(canonical_block_algebra([(1, 2), (2, 1)], 4), u),
            "abelian": conjugate_algebra(diag_algebra(4), u),
            "factor": left_factor(2, 2),
            "full": full_matrix_algebra(4),
        }

    @staticmethod
    def densities(algebra):
        rng = np.random.default_rng(59)
        out = [random_density(4, rng, rank=k) for k in (1, 2, 3, 4)]
        # inside the algebra: its trace and a rank-deficient element of it
        out.append(np.eye(4, dtype=complex) / 4)
        b = algebra.basis[0]
        w, v = np.linalg.eigh(b @ dagger(b))
        p = v[:, w > 1e-9] @ dagger(v[:, w > 1e-9])
        out.append(p / np.trace(p))
        return out

    def test_agrees_with_the_gram_oracle(self):
        seen = set()
        for name, algebra in self.algebras().items():
            for rho in self.densities(algebra):
                want = gram_faithful(rho, algebra)
                assert is_faithful(AlgebraState(algebra, rho)) == want, name
                seen.add((name, want))
        # every algebra meets a faithful density, and all but the abelian one an unfaithful one
        assert {name for name, ok in seen if ok} == set(self.algebras())
        assert {name for name, ok in seen if not ok} >= {"block", "factor", "full"}

    def test_plus_state_is_faithful_on_the_diagonal_not_on_m2(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert is_faithful(AlgebraState(diag_algebra(2), plus))
        assert not is_faithful(AlgebraState(full_matrix_algebra(2), plus))


class TestExtendState:
    def test_same_algebra_contradiction_is_infeasible(self):
        a = diag_algebra(2)
        s1 = state_from_density(a, np.diag([1.0, 0.0]).astype(complex))
        s2 = state_from_density(a, np.diag([0.0, 1.0]).astype(complex))
        out = extend_state(s1, s2)
        assert out.status == "InfeasibleCertified"
        assert out.certificate is not None
        assert out.certificate["gap"] > 1e-6

    def test_tensor_tracial_marginals_give_tracial_product(self):
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        out = extend_state(canonical_trace_state(a1), canonical_trace_state(a2))
        assert out.status == "Feasible"
        assert hs_norm(out.density - np.eye(4) / 4) <= 1e-6

    def test_pure_marginals_give_rank_one_product(self):
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        s1 = state_from_density(a1, kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        s2 = state_from_density(a2, kron(np.eye(2) / 2, np.diag([0.0, 1.0])))
        out = extend_state(s1, s2)
        assert out.status == "Feasible"
        expected = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert hs_norm(out.density - expected) <= 1e-6
        assert np.linalg.matrix_rank(out.density, tol=1e-6) == 1

    def test_feasible_on_product_position_pairs(self):
        rng = np.random.default_rng(97)
        inst = tensor_pair(2, 3, rng)
        assert check_product_sense(inst.a1, inst.a2).status == "Holds"
        pairs = sample_state_pairs(inst.a1, inst.a2, 50, rng)
        outcomes = extend_state_batch(pairs, max_iter=4000)
        assert all(o.status != "InfeasibleCertified" for o in outcomes)
        for (s1, s2), o in zip(pairs, outcomes):
            if o.status != "Feasible":
                continue
            # oracle: independent residual evaluation against both marginals
            assert marginal_residual(o.density, [s1, s2]) <= 1e-7

    def test_batch_matches_single(self):
        rng = np.random.default_rng(101)
        inst = tensor_pair(2, 2, rng)
        pairs = sample_state_pairs(inst.a1, inst.a2, 4, rng)
        batch = extend_state_batch(pairs, max_iter=2000)
        for (s1, s2), o in zip(pairs, batch):
            single = extend_state(s1, s2, max_iter=2000)
            assert single.status == o.status

    def test_a_gap_between_the_verify_and_refusal_cuts_stalls(self):
        # the marginals on one projection of D = C + C differ by 5e-8: no
        # density meets both within eps_verify, and no separating pair clears
        # the refusal margin, so the iterates stop moving; the stall exit ends
        # the run long before max_iter
        d = generate_algebra([np.diag([1.0, 0.0])], 2)
        s1 = state_from_density(d, np.diag([0.3, 0.7]))
        s2 = state_from_density(d, np.diag([0.3 + 5e-8, 0.7 - 5e-8]))
        out = extend_state(s1, s2)
        assert out.status == "Undecided"
        assert out.iterations < 1000
        assert DEFAULT_TOL.eps_verify < out.residual < SEPARATION_MARGIN * DEFAULT_TOL.eps_verify


class TestSeparatingPair:
    """The one refusal certificate, checked without the solver."""

    def test_contradictory_marginals_refuse_with_a_split_pair(self):
        a = diag_algebra(2)
        s1 = state_from_density(a, np.diag([1.0, 0.0]).astype(complex))
        s2 = state_from_density(a, np.diag([0.0, 1.0]).astype(complex))
        cert = extend_state(s1, s2).certificate
        assert cert["kind"] == "separating_pair"
        assert set(cert) == {"kind", "h1", "h2", "gap"}
        # the inconsistent relation e1 - e2 on one side against e2 - e1 on the other
        np.testing.assert_allclose(cert["h1"], np.diag([1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(cert["h2"], np.diag([-1.0, 1.0]), atol=1e-12)
        assert cert["gap"] == pytest.approx(2)
        assert verify_separating_pair(cert["h1"], cert["h2"], s1, s2) == cert["gap"]

    def test_every_solver_refusal_is_a_normalized_pair_in_the_two_spans(self):
        seen = 0
        for family, seeds in (("haar_overlap", (1, 7)), ("shared_block", (1,))):
            for seed in seeds:
                for inst in fuzz_instances(family, 5, seed):
                    pairs = sample_state_pairs(inst.a1, inst.a2, 6, np.random.default_rng(seed))
                    for (s1, s2), out in zip(pairs, extend_state_batch(pairs, max_iter=4000)):
                        if out.status != "InfeasibleCertified":
                            continue
                        seen += 1
                        h1, h2 = out.certificate["h1"], out.certificate["h2"]
                        assert max(np.linalg.norm(h1, 2), np.linalg.norm(h2, 2)) == pytest.approx(1)
                        assert inst.a1.distance_to_span(h1) <= 1e-9
                        assert inst.a2.distance_to_span(h2) <= 1e-9
                        # oracle: no density gives h1 + h2 more than its top eigenvalue
                        forced = s1.expect(h1).real + s2.expect(h2).real
                        assert forced - np.linalg.eigvalsh(h1 + h2)[-1] == pytest.approx(out.certificate["gap"])
                        assert out.certificate["gap"] > 1e-7
        assert seen >= 10

    def test_a_scaled_pair_still_separates_and_a_bad_one_does_not(self):
        a = diag_algebra(2)
        z1, z2 = matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)
        s1, s2 = state_from_density(a, z1), state_from_density(a, z2)
        assert verify_separating_pair(z1, z2, s1, s2) == pytest.approx(1)
        # the margin scales with the pair, so 2 z1 is as good a certificate
        assert verify_separating_pair(2 * z1, 2 * z2, s1, s2) == pytest.approx(2)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(IllConditioned, match="h2 is .* away from its algebra"):
            verify_separating_pair(z1, z2 + sigma_x, s1, s2)
        with pytest.raises(IllConditioned, match="not Hermitian"):
            verify_separating_pair(z1 + 1j * matrix_unit(2, 0, 1), z2, s1, s2)
        # the tracial pair extends, so it has no separating pair
        trace = state_from_density(a, np.eye(2, dtype=complex) / 2)
        with pytest.raises(IllConditioned, match="does not clear the margin"):
            verify_separating_pair(z1, z2, trace, trace)
        with pytest.raises(IllConditioned, match="does not clear the margin"):
            verify_separating_pair(0 * z1, 0 * z2, s1, s2)

    @staticmethod
    def count_spectra(monkeypatch):
        """Count np.linalg.eigvalsh and svd calls, including the svd inside np.linalg.norm(., 2)."""
        calls = {"eigvalsh": 0, "svd": 0}
        impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        svd = counted("svd", impl.svd)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(impl, "svd", svd)
        np.linalg.norm(np.eye(2), 2)
        assert calls == {"eigvalsh": 0, "svd": 1}, "the operator norm is not counted"
        calls["svd"] = 0
        return calls

    @staticmethod
    def search_refusals():
        for family in ("haar_overlap", "shared_block"):
            for idx, inst in enumerate(fuzz_instances(family, 20, 1)):
                verdict = check_cstar_independence(inst.a1, inst.a2, rng=idx)
                assert verdict.status == "Fails", (family, idx)
                yield verdict.witness

    def test_one_spectrum_per_call_and_no_svd(self, monkeypatch):
        witness = next(self.search_refusals())
        h1, h2, (s1, s2) = witness["h1"], witness["h2"], witness["witness_states"]
        calls = self.count_spectra(monkeypatch)
        verify_separating_pair(h1, h2, s1, s2)
        assert calls == {"eigvalsh": 1, "svd": 0}
        calls["eigvalsh"] = 0
        separating_pair(3 * h1, 3 * h2, s1, s2)
        # one for the scale, then the one of verify_separating_pair
        assert calls == {"eigvalsh": 2, "svd": 0}

    def test_one_hermitian_check_per_element(self, monkeypatch):
        witness = next(self.search_refusals())
        h1, h2, (s1, s2) = witness["h1"], witness["h2"], witness["witness_states"]
        checked = []
        is_hermitian = states.is_hermitian
        monkeypatch.setattr(states, "is_hermitian", lambda h, tol: checked.append(h) or is_hermitian(h, tol))
        separating_pair(3 * h1, 3 * h2, s1, s2)
        # scaling keeps the pair Hermitian, so the scaled copies are not checked again
        assert len(checked) == 2

    def test_gap_and_scale_match_the_operator_norm_reference(self):
        seen = 0
        for witness in self.search_refusals():
            h1, h2, (s1, s2) = witness["h1"], witness["h2"], witness["witness_states"]
            forced = s1.expect(h1).real + s2.expect(h2).real
            gap = forced - np.linalg.eigvalsh(h1 + h2)[-1]
            scale = max(np.linalg.norm(h1, 2), np.linalg.norm(h2, 2))
            assert abs(witness["gap"] - gap) <= 1e-12
            assert abs(scale - 1) <= 1e-12
            assert abs(verify_separating_pair(h1, h2, s1, s2) - gap) <= 1e-12
            # separating_pair divides by the operator-norm scale
            cert = separating_pair(2.5 * h1, 2.5 * h2, s1, s2)
            assert np.abs(cert["h1"] - h1).max() <= 1e-12 and np.abs(cert["h2"] - h2).max() <= 1e-12
            # verify_separating_pair's margin is SEPARATION_MARGIN eps_verify times the same scale:
            # the pair scaled by 4 clears it just below gap / scale and fails just above
            edge = gap / (SEPARATION_MARGIN * scale)
            assert verify_separating_pair(4 * h1, 4 * h2, s1, s2, Tolerances(eps_verify=edge * (1 - 1e-12))) > 0
            with pytest.raises(IllConditioned, match="does not clear the margin"):
                verify_separating_pair(4 * h1, 4 * h2, s1, s2, Tolerances(eps_verify=edge * (1 + 1e-12)))
            seen += 1
        assert seen == 40

    def test_the_scale_is_the_largest_eigenvalue_in_modulus(self):
        a = diag_algebra(2)
        z1, z2 = matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)
        s1, s2 = state_from_density(a, z1), state_from_density(a, z2)
        # spectra {1, -3}: forced value 2, lambda_max(h1 + h2) = -2, operator norms 3
        h1, h2 = z1 - 3 * z2, z2 - 3 * z1
        assert verify_separating_pair(h1, h2, s1, s2) == pytest.approx(4)
        edge = 4 / (SEPARATION_MARGIN * 3)
        verify_separating_pair(h1, h2, s1, s2, Tolerances(eps_verify=edge * (1 - 1e-12)))
        with pytest.raises(IllConditioned, match="at scale 3.000e"):
            verify_separating_pair(h1, h2, s1, s2, Tolerances(eps_verify=edge * (1 + 1e-12)))
        cert = separating_pair(h1, h2, s1, s2)
        assert cert["gap"] == pytest.approx(4 / 3)
        np.testing.assert_allclose(cert["h1"], h1 / 3, atol=1e-15)

    def test_a_non_hermitian_pair_is_refused_before_its_spectrum(self):
        a = diag_algebra(2)
        z1, z2 = matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)
        s1, s2 = state_from_density(a, z1), state_from_density(a, z2)
        upper = 1j * matrix_unit(2, 0, 1)
        for fn in (verify_separating_pair, separating_pair):
            with pytest.raises(IllConditioned, match="h1 is not Hermitian"):
                fn(z1 + upper, z2, s1, s2)
            # eigvalsh reads the lower triangle only, where this h1 is zero
            with pytest.raises(IllConditioned, match="h1 is not Hermitian"):
                fn(upper, 0 * z2, s1, s2)


class TestProductState:
    def test_tensor_product_state_is_product_across(self):
        rng = np.random.default_rng(107)
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        rho = kron(random_density(2, rng), random_density(2, rng))
        assert product_residual(rho, state_from_density(a1, rho), state_from_density(a2, rho)) <= DEFAULT_TOL.eps_verify

    def test_maximally_entangled_is_not_product(self):
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        v = (np.eye(4)[0] + np.eye(4)[3]) / np.sqrt(2)
        rho = np.outer(v, v.conj()).astype(complex)
        phi = state_from_density(full_matrix_algebra(4), rho)
        # oracle: phi(E11 (x) E11) = 1/2 while the marginal product gives 1/4
        e11_e11 = kron(matrix_unit(2, 0, 0), matrix_unit(2, 0, 0))
        assert abs(phi.expect(e11_e11) - 0.5) <= 1e-12
        m1 = state_from_density(a1, rho).expect(kron(matrix_unit(2, 0, 0), np.eye(2)))
        m2 = state_from_density(a2, rho).expect(kron(np.eye(2), matrix_unit(2, 0, 0)))
        assert abs(m1 * m2 - 0.25) <= 1e-12
        assert product_residual(rho, state_from_density(a1, rho), state_from_density(a2, rho)) > DEFAULT_TOL.eps_verify


class TestMarginalResidual:
    def test_zero_for_exact_marginals(self):
        a1, a2 = left_factor(2, 2), right_factor(2, 2)
        phi1 = canonical_trace_state(a1)
        phi2 = canonical_trace_state(a2)
        assert marginal_residual(np.eye(4, dtype=complex) / 4, [phi1, phi2]) <= 1e-12

    def test_detects_wrong_marginal(self):
        a1 = left_factor(2, 2)
        phi1 = state_from_density(a1, kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        assert marginal_residual(np.eye(4, dtype=complex) / 4, [phi1]) > 0.1
