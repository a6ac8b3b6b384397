"""Completely positive maps on subalgebras: Choi/Kraus/Stinespring
calculus, duals on densities, measurement and preparation operations,
tensor products, and the one certification route.  The direct
measurement, preparation, identity and ambient-extension maps are test
references (``tests/reference.py``).

Oracles: round-trips re-apply the reconstructed map to matrix units;
Choi positivity is recomputed from eigenvalues; the transpose map is the
canonical non-CP rejection case with Choi eigenvalue -1.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import diag_algebra, left_factor, matrix_unit
from reference import (
    extend_to_ambient,
    identity_channel,
    is_psd,
    luders_operation,
    random_luders_channel,
    state_prep_operation,
)
from staralg import (
    ChannelMap,
    ProjectiveMeasurement,
    build_channel,
    channel_from_kraus,
    channel_on_algebra,
    choi,
    dual_on_states,
    full_matrix_algebra,
    generate_algebra,
    is_completely_positive,
    is_faithful_map,
    kraus_from_choi,
    map_from_choi,
    state_from_density,
    state_preparation,
    stinespring_dilation,
    superop_from_kraus,
    tensor_channel,
)
from staralg.channels import choi_matrix, superop_from_function
from staralg.numerics import DEFAULT_TOL, dagger, hs_norm, kron, unvec
from staralg.sampling import (
    random_density,
    random_faithful_nonselective_channel,
    random_prep_channel,
)


def random_kraus_channel(n, terms, rng):
    """A random nonselective map T(X) = sum W* X W with sum W* W = I."""
    ops = rng.standard_normal((terms, n, n)) + 1j * rng.standard_normal((terms, n, n))
    total = sum(dagger(w) @ w for w in ops)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ dagger(vecs)
    ops = np.stack([w @ inv_sqrt for w in ops])
    return channel_from_kraus(ops, n)


class TestChoi:
    def test_identity_choi_is_maximally_entangled_projector(self):
        c = choi(identity_channel(2))
        assert abs(np.trace(c).real - 2.0) <= 1e-12
        assert np.linalg.matrix_rank(c, tol=1e-9) == 1
        assert is_psd(c)

    def test_trace_map_choi_is_half_identity(self):
        a = full_matrix_algebra(2)
        act = superop_from_function(lambda x: np.trace(x) / 2 * np.eye(2), a, 2)
        t = build_channel(a, 2, act)
        np.testing.assert_allclose(choi(t), np.eye(4) / 2, atol=1e-12)

    def test_random_kraus_choi_is_psd(self):
        rng = np.random.default_rng(113)
        t = random_kraus_channel(3, 4, rng)
        evals = np.linalg.eigvalsh(choi(t))
        assert evals.min() >= -1e-12

    def test_transpose_choi_has_minus_one_eigenvalue(self):
        a = full_matrix_algebra(2)
        t = build_channel(a, 2, superop_from_function(lambda x: x.T, a, 2))
        evals = np.linalg.eigvalsh(choi(t))
        assert abs(evals.min() + 1.0) <= 1e-6
        assert not is_completely_positive(t)
        assert not t.cp_certified

    def test_block_layout_of_a_map_between_different_sizes(self):
        n, m = 2, 3
        rng = np.random.default_rng(127)
        action = rng.standard_normal((m * m, n * n)) + 1j * rng.standard_normal((m * m, n * n))
        # oracle: block (i, j) is T(E_ij), whose vec is column j*n + i
        blocks = np.zeros((n * m, n * m), dtype=complex)
        for i in range(n):
            for j in range(n):
                image = action[:, j * n + i].reshape((m, m), order="F")
                blocks[i * m : (i + 1) * m, j * m : (j + 1) * m] = image
        assert np.array_equal(choi_matrix(action, n, m), blocks)
        assert np.array_equal(map_from_choi(blocks, n, m), action)


class TestKrausFromChoi:
    def test_identity_single_kraus(self):
        ks = kraus_from_choi(choi(identity_channel(2)), 2, 2)
        assert len(ks.operators) == 1
        w = ks.operators[0]
        # proportional to the identity up to phase
        assert hs_norm(w - w[0, 0] * np.eye(2)) <= 1e-10
        assert abs(abs(w[0, 0]) - 1.0) <= 1e-10

    def test_luders_kraus_reproduce_action(self):
        m = ProjectiveMeasurement(
            np.stack([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
        )
        t = luders_operation(m)
        ks = kraus_from_choi(choi(t), 2, 2)
        assert len(ks.operators) == 2
        # oracle: verify T(X) = sum W* X W on all four matrix units
        for i in range(2):
            for j in range(2):
                e = matrix_unit(2, i, j)
                recon = sum(dagger(w) @ e @ w for w in ks.operators)
                assert hs_norm(recon - t.apply(e)) <= 1e-10

    def test_half_identity_choi_has_rank_four_kraus(self):
        ks = kraus_from_choi(np.eye(4, dtype=complex) / 2, 2, 2)
        assert len(ks.operators) == 4
        comp = sum(dagger(w) @ w for w in ks.operators)
        assert hs_norm(comp - np.eye(2)) <= 1e-10


    def test_the_one_reshape_stack_equals_the_loop(self):
        def by_loop(c, n, m):
            # the per-eigenvalue loop, kept as the reference: W = (unvec of sqrt(lam) v, m x n)*
            w, v = np.linalg.eigh(c)
            scale = max(1.0, float(np.abs(w).max()))
            return np.stack([dagger(unvec(np.sqrt(lam) * col, m, n))
                             for lam, col in zip(w, v.T) if lam > DEFAULT_TOL.eps_psd * scale])

        rng = np.random.default_rng(41)
        rect = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
        cases = [
            (choi(state_prep_operation(random_density(3, rng))), 3, 3, 9),
            (choi(random_kraus_channel(3, 3, rng)), 3, 3, 3),
            (choi_matrix(superop_from_kraus(rect), 2, 3), 2, 3, 3),
        ]
        for c, n, m, rank in cases:
            ops = kraus_from_choi(c, n, m).operators
            assert ops.shape == (rank, n, m)
            assert np.array_equal(ops, by_loop(c, n, m))


class TestRoundTrips:
    def test_choi_kraus_map_roundtrip(self):
        rng = np.random.default_rng(127)
        for n in (2, 3):
            t = random_kraus_channel(n, 3, rng)
            c = choi(t)
            ks = kraus_from_choi(c, n, n)
            action = superop_from_kraus(ks.operators)
            c2 = choi(build_channel(full_matrix_algebra(n), n, action))
            assert hs_norm(c - c2) <= 1e-10

    def test_map_from_choi_inverts_choi(self):
        rng = np.random.default_rng(131)
        t = random_kraus_channel(3, 2, rng)
        action = map_from_choi(choi(t), 3, 3)
        assert hs_norm(action - t.action) <= 1e-10


class TestStinespring:
    def test_identity_dilation_is_trivial(self):
        sd = stinespring_dilation(identity_channel(2))
        assert sd.rank == 1
        v = sd.isometry
        assert hs_norm(v - v[0, 0] * np.eye(2)) <= 1e-10

    def test_tracial_prep_dilation(self):
        prep = state_prep_operation(np.eye(2, dtype=complex) / 2)
        sd = stinespring_dilation(prep)
        assert sd.rank == 4
        v = sd.isometry
        assert hs_norm(dagger(v) @ v - np.eye(2)) <= 1e-8
        # oracle: residual of T(X) = V*(X (x) 1_r)V on matrix units
        for i in range(2):
            for j in range(2):
                e = matrix_unit(2, i, j)
                rhs = dagger(v) @ kron(e, np.eye(sd.rank)) @ v
                assert hs_norm(prep.apply(e) - rhs) <= 1e-8

    def test_luders_two_projections_rank_two(self):
        m = ProjectiveMeasurement(
            np.stack([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
        )
        sd = stinespring_dilation(luders_operation(m))
        assert sd.rank == 2

    def test_isometry_for_random_nonselective(self):
        rng = np.random.default_rng(137)
        t = random_kraus_channel(3, 3, rng)
        sd = stinespring_dilation(t)
        v = sd.isometry
        assert hs_norm(dagger(v) @ v - np.eye(3)) <= 1e-8
        for i in range(3):
            for j in range(3):
                e = matrix_unit(3, i, j)
                rhs = dagger(v) @ kron(e, np.eye(sd.rank)) @ v
                assert hs_norm(t.apply(e) - rhs) <= 1e-8


class TestDualOnStates:
    def test_identity_leaves_densities_fixed(self):
        rng = np.random.default_rng(139)
        d = dual_on_states(identity_channel(3))
        rho = random_density(3, rng)
        assert hs_norm(d.apply(rho) - rho) <= 1e-12

    def test_unital_map_preserves_trace(self):
        rng = np.random.default_rng(149)
        t = random_kraus_channel(3, 3, rng)
        d = dual_on_states(t)
        rho = random_density(3, rng)
        assert abs(np.trace(d.apply(rho)).real - 1.0) <= 1e-10

    def test_luders_dual_keeps_diagonal_part(self):
        m = ProjectiveMeasurement(
            np.stack([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
        )
        d = dual_on_states(luders_operation(m))
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        np.testing.assert_allclose(d.apply(rho), np.diag([0.7, 0.3]), atol=1e-12)

    def test_prep_dual_outputs_prescribed_density(self):
        rng = np.random.default_rng(151)
        sigma = random_density(2, rng)
        d = dual_on_states(state_prep_operation(sigma))
        for _ in range(5):
            rho = random_density(2, rng)
            assert hs_norm(d.apply(rho) - sigma) <= 1e-10


class TestStatePrepOperation:
    """The program's preparation, ``state_preparation`` of a state on M_2."""

    def test_tracial_prep_sends_unit_to_half_identity(self):
        t = state_preparation(state_from_density(full_matrix_algebra(2), np.eye(2, dtype=complex) / 2))
        np.testing.assert_allclose(
            t.apply(matrix_unit(2, 0, 0)), np.eye(2) / 2, atol=1e-12
        )

    def test_choi_psd_for_random_state(self):
        rng = np.random.default_rng(157)
        t = state_preparation(state_from_density(full_matrix_algebra(2), random_density(2, rng)))
        assert is_psd(choi(t))
        assert t.cp_certified and t.unital


class TestLudersOperation:
    """The instance builder's Lüders map: ``channel_on_algebra`` with the projections as Kraus family."""

    def test_trivial_measurement_is_identity(self):
        t = channel_on_algebra(full_matrix_algebra(2), np.stack([np.eye(2, dtype=complex)]))
        rng = np.random.default_rng(163)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert hs_norm(t.apply(x) - x) <= 1e-12

    def test_diagonal_projections_cut_off_diagonal(self):
        m = ProjectiveMeasurement(
            np.stack([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
        )
        m.validate()
        t = channel_on_algebra(full_matrix_algebra(2), m.projections)
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_allclose(t.apply(x), np.diag([1.0, 4.0]), atol=1e-12)

    def test_random_complete_family_unital_idempotent(self):
        rng = np.random.default_rng(167)
        t = random_luders_channel(full_matrix_algebra(4), rng)
        assert hs_norm(t.apply(np.eye(4, dtype=complex)) - np.eye(4)) <= 1e-10
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert hs_norm(t.apply(t.apply(x)) - t.apply(x)) <= 1e-10

    def test_rejects_non_resolution(self):
        from staralg import InvalidMeasurement

        with pytest.raises(InvalidMeasurement):
            ProjectiveMeasurement(
                np.stack([np.diag([1.0, 0.0]).astype(complex)])
            ).validate()


class TestTensorChannel:
    def test_identity_tensor_identity_is_identity(self):
        t = tensor_channel(identity_channel(2), identity_channel(3))
        rng = np.random.default_rng(173)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert hs_norm(t.apply(x) - x) <= 1e-12

    def test_prep_tensor_identity_acts_as_slice(self):
        rng = np.random.default_rng(179)
        sigma = random_density(2, rng)
        prep = state_prep_operation(sigma)
        t = tensor_channel(prep, identity_channel(2))
        # oracle: evaluation on the product basis X (x) Y
        for i in range(2):
            for j in range(2):
                x = matrix_unit(2, i, j)
                y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                got = t.apply(kron(x, y))
                expected = kron(np.trace(sigma @ x) * np.eye(2), y)
                assert hs_norm(got - expected) <= 1e-10

    def test_faithful_pair_gives_faithful_tensor(self):
        rng = np.random.default_rng(181)
        t1 = random_faithful_nonselective_channel(full_matrix_algebra(2), rng)
        t2 = random_faithful_nonselective_channel(full_matrix_algebra(3), rng)
        tt = tensor_channel(t1, t2)
        assert tt.faithful
        assert is_faithful_map(tt)
        # oracle: minimum eigenvalue of the Kronecker completeness sum
        comp = sum(w @ dagger(w) for w in tt.kraus.operators)
        assert np.linalg.eigvalsh(comp).min() > 1e-9

    def test_non_faithful_factor_breaks_faithfulness(self):
        rng = np.random.default_rng(191)
        nf = channel_from_kraus(np.stack([np.diag([1.0, 0.0]).astype(complex)]), 2)
        t2 = random_faithful_nonselective_channel(full_matrix_algebra(3), rng)
        tt = tensor_channel(nf, t2)
        assert not is_faithful_map(tt)
        comp = sum(w @ dagger(w) for w in tt.kraus.operators)
        assert np.linalg.eigvalsh(comp).min() <= 1e-9


    def test_flags_and_completeness_sum_of_criterion_3_draws(self):
        """The flags certified from the tensor action are the conjunctions of the factors' flags.

        The Kraus family comes from the Choi eigenbasis, and sum_k W_k W_k* does
        not depend on the family, so it equals the Kronecker product of the
        factors' sums.  The draws are those of acceptance criterion 3.
        """
        rng = np.random.default_rng(3001)
        full2, full3 = full_matrix_algebra(2), full_matrix_algebra(3)
        draws = [(random_faithful_nonselective_channel(full2, rng), random_faithful_nonselective_channel(full3, rng))
                 for _ in range(50)]
        draws += [(random_prep_channel(full2, rng, faithful=False)[0], random_faithful_nonselective_channel(full3, rng))
                  for _ in range(50)]
        for t1, t2 in draws:
            tt = tensor_channel(t1, t2)
            assert tt.cp_certified == (t1.cp_certified and t2.cp_certified)
            assert tt.unital == (t1.unital and t2.unital)
            assert tt.faithful == (t1.faithful and t2.faithful)
            sums = [np.einsum("kij,klj->il", t.kraus.operators, t.kraus.operators.conj()) for t in (t1, t2, tt)]
            assert np.abs(sums[2] - np.kron(sums[0], sums[1])).max() <= 1e-12


class TestOneCertificationRoute:
    def test_no_caller_can_assert_a_flag(self):
        with pytest.raises(TypeError):
            ChannelMap(full_matrix_algebra(2), 2, np.eye(4, dtype=complex), cp_certified=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_channel_is_certified(self, n):
        t = identity_channel(n)
        assert np.array_equal(t.action, np.eye(n * n))
        assert t.cp_certified and t.unital and t.faithful
        assert len(t.kraus.operators) == 1


class TestIsFaithfulMap:
    def test_identity_is_faithful(self):
        assert is_faithful_map(identity_channel(3))

    def test_invertible_kraus_is_faithful(self):
        rng = np.random.default_rng(193)
        t = random_kraus_channel(2, 2, rng)
        # generic Kraus operators are invertible, so the map kills no state
        assert is_faithful_map(t)

    def test_rank_deficient_prep_is_not_faithful(self):
        t = state_prep_operation(np.diag([1.0, 0.0]).astype(complex))
        assert not is_faithful_map(t)


class TestExtendToAmbient:
    def test_full_domain_keeps_the_action(self):
        t = identity_channel(3)
        ext = extend_to_ambient(t)
        assert hs_norm(ext.action - t.action) <= 1e-12

    def test_identity_on_diagonal_extends_to_luders(self):
        d = diag_algebra(2)
        idd = build_channel(d, 2, superop_from_function(lambda x: x, d, 2))
        ext = extend_to_ambient(idd)
        assert ext.domain.dim == 4
        # oracle: the conditional-expectation formula gives the diagonal cut
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_allclose(ext.apply(x), np.diag([1.0, 4.0]), atol=1e-10)

    def test_extension_restricts_to_original(self):
        rng = np.random.default_rng(211)
        d = diag_algebra(3)
        lud = random_luders_channel(d, rng)
        ext = extend_to_ambient(lud)
        for b in d.basis:
            assert hs_norm(ext.apply(b) - lud.apply(b)) <= 1e-9


class TestChannelValidation:
    def test_kraus_without_completeness_is_not_an_operation(self):
        w = np.stack([0.5 * np.eye(2, dtype=complex)])
        t = channel_from_kraus(w, 2)
        assert not t.unital
        assert not t.operation

    def test_nonselective_map_is_an_operation(self):
        rng = np.random.default_rng(229)
        t = random_kraus_channel(2, 2, rng)
        assert t.cp_certified and t.unital and t.operation
