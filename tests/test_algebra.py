"""Subalgebra machinery: generation, commutants, center, block structure,
and conditional expectations.

Oracles: monomial closure by brute force for generated dimensions, an
entrywise commutation solve for commutants, and Choi positivity for the
conditional expectation.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import diag_algebra, join, left_factor, matrix_unit, right_factor
from reference import (
    basis_commute_witness,
    block_units_commutant,
    corner_intertwiner,
    is_psd,
    null_space,
    null_space_commutant,
)
from staralg import (
    FUZZ_FAMILIES,
    IllConditioned,
    MatrixStarAlgebra,
    ValidationError,
    choi,
    commutant,
    commute_witness,
    conditional_expectation,
    full_matrix_algebra,
    fuzz_instances,
    generate_algebra,
    mutually_commute,
    scalar_algebra,
    structure_decomposition,
)
from staralg import algebra, numerics
from staralg.algebra import _verify_structure, products
from staralg.independence import PairPosition, run_hierarchy_checks, state_preparation, verify_noncommuting_elements
from staralg.numerics import DEFAULT_TOL, dagger, haar_unitary, hs_norm, kron, vec
from staralg.sampling import canonical_block_algebra, cell_pair, conjugate_algebra, random_subalgebra, tensor_pair
from staralg.states import (
    AlgebraState,
    is_faithful,
    marginal_residual,
    product_residual,
    state_from_values,
)


def monomial_closure_rank(generators, n, max_length=8):
    """Independent oracle: dimension of the span of all monomials in the
    generators and their adjoints up to the given word length."""
    letters = [np.eye(n, dtype=complex)]
    for g in generators:
        letters.append(np.asarray(g, dtype=complex))
        letters.append(dagger(g))
    words = [np.eye(n, dtype=complex)]
    frontier = [np.eye(n, dtype=complex)]
    for _ in range(max_length):
        frontier = [w @ l for w in frontier for l in letters[1:]]
        words.extend(frontier)
        if len(words) > 4 * n * n:
            break
    stacked = np.stack([vec(w) for w in words])
    return int(np.linalg.matrix_rank(stacked, tol=1e-9))


class TestGenerateAlgebra:
    def test_no_generators_gives_scalars(self):
        a = generate_algebra([], 2)
        assert a.dim == 1
        assert a.distance_to_span(np.eye(2, dtype=complex)) <= 1e-12

    def test_single_projection_gives_diagonal(self):
        a = generate_algebra([matrix_unit(2, 0, 0)], 2)
        assert a.dim == 2
        for d in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            assert a.distance_to_span(d.astype(complex)) <= 1e-10

    def test_generic_generator_gives_full_m4(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert monomial_closure_rank([x], 4) == 16
        a = generate_algebra([x], 4)
        assert a.dim == 16

    def test_generated_dimension_matches_monomial_closure(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 4):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g = (g + dagger(g)) / 2
            assert generate_algebra([g], n).dim == monomial_closure_rank([g], n)

    def test_basis_is_orthonormal_and_closed(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = generate_algebra([x + dagger(x)], 3)
        a.validate()  # orthonormality, unit, adjoint and product closure

    def test_contains_unit(self):
        a = diag_algebra(3)
        assert a.distance_to_span(np.eye(3, dtype=complex)) <= 1e-10


class TestJoin:
    def test_diagonal_tensor_factors_in_m4(self):
        a1 = generate_algebra([kron(matrix_unit(2, 0, 0), np.eye(2))], 4)
        a2 = generate_algebra([kron(np.eye(2), matrix_unit(2, 0, 0))], 4)
        j = join(a1, a2)
        # oracle: the joint span is exactly the diagonal algebra of M_4
        assert j.dim == 4
        for i in range(4):
            d = np.diag(np.eye(4)[i]).astype(complex)
            assert j.distance_to_span(d) <= 1e-10

    def test_tensor_factors_generate_everything(self):
        j = join(left_factor(2, 2), right_factor(2, 2))
        assert j.dim == 16

    @pytest.mark.parametrize(
        "pair",
        [
            lambda rng: tensor_pair(2, 3, rng),
            lambda rng: cell_pair(np.array([[1, 1], [1, 1]]), [1, 2], [1, 2], rng),
            lambda rng: cell_pair(np.array([[1, 1], [0, 1]]), [1, 2], [2, 1], rng),
        ],
        ids=["tensor_pair", "cell_pair", "shared_block"],
    )
    def test_commuting_join_is_the_generated_algebra(self, pair):
        inst = pair(np.random.default_rng(53))
        j = join(inst.a1, inst.a2)
        j.validate()
        # oracle: product closure of the union of the two spans
        union = np.concatenate([inst.a1.basis, inst.a2.basis], axis=0)
        closed = generate_algebra(union, inst.a1.ambient_dim)
        assert np.abs(j.expectation - closed.expectation).max() <= 1e-9


class TestCommutant:
    def test_commutant_of_scalars_is_full(self):
        assert commutant(scalar_algebra(3)).dim == 9

    def test_commutant_of_full_is_scalars(self):
        assert commutant(full_matrix_algebra(3)).dim == 1

    def test_commutant_of_left_factor_is_right_factor(self):
        a = left_factor(2, 2)
        c = commutant(a)
        # oracle: solve X b = b X entrywise for every basis element b
        rows = [kron(np.eye(4), b) - kron(b.T, np.eye(4)) for b in a.basis]
        kernel_dim = 16 - np.linalg.matrix_rank(np.vstack(rows), tol=1e-9)
        assert kernel_dim == 4
        assert c.dim == 4
        rf = right_factor(2, 2)
        for b in c.basis:
            assert rf.distance_to_span(b) <= 1e-9

    def test_double_commutant_identity_random(self):
        from staralg.sampling import random_subalgebra

        rng = np.random.default_rng(43)
        for _ in range(10):
            a, _ = random_subalgebra(int(rng.integers(2, 7)), rng)
            bicom = commutant(commutant(a))
            assert bicom.dim == a.dim
            for b in bicom.basis:
                assert a.distance_to_span(b) <= 1e-8

    def test_agrees_with_the_null_space_reference(self):
        # the 80 fuzz algebras, both extremes, and blocks with multiplicities
        algebras = [a for family in FUZZ_FAMILIES for inst in fuzz_instances(family, 10, 3) for a in (inst.a1, inst.a2)]
        algebras += [full_matrix_algebra(4), scalar_algebra(4), canonical_block_algebra([(2, 2), (1, 3)], 7)]
        algebras.append(conjugate_algebra(canonical_block_algebra([(1, 2), (2, 1), (1, 1)], 5), haar_unitary(5, seed=7)))
        assert len(algebras) == 84
        for a in algebras:
            got, ref = commutant(a), null_space_commutant(a)
            assert got.dim == ref.dim
            assert np.abs(got.expectation - ref.expectation).max() <= 1e-12
            assert np.abs(got.basis - ref.basis).max() <= 1e-10

    def test_agrees_with_the_block_unit_reference(self):
        # W B W* from the diagonal cell form against the per-block products of the intertwiner's columns
        algebras = [a for family in FUZZ_FAMILIES for inst in fuzz_instances(family, 10, 3) for a in (inst.a1, inst.a2)]
        algebras += [full_matrix_algebra(4), scalar_algebra(4), canonical_block_algebra([(2, 2), (1, 3)], 7)]
        rng = np.random.default_rng(5)
        algebras += [random_subalgebra(n, rng)[0] for n in (5, 6, 6, 7, 8, 9)]
        assert len(algebras) == 89
        for a in algebras:
            got, ref = commutant(a), block_units_commutant(a)
            assert got.dim == ref.dim
            assert np.abs(got.basis - ref.basis).max() <= 1e-12


class TestCenterAndFactor:
    def test_full_algebra_is_a_factor(self):
        s = full_matrix_algebra(4).structure()
        assert s.is_factor
        assert len(s.projections) == 1
        assert hs_norm(s.projections[0] - np.eye(4)) <= 1e-10

    def test_diagonal_algebra_is_its_own_center(self):
        s = diag_algebra(2).structure()
        assert not s.is_factor
        assert len(s.projections) == 2
        got = sorted(tuple(np.round(np.diag(p).real).astype(int)) for p in s.projections)
        assert got == [(0, 1), (1, 0)]


class TestMatrixUnits:
    def test_full_algebra_single_block(self):
        assert full_matrix_algebra(4).structure().blocks == [(4, 1)]

    def test_scalars_have_multiplicity_n(self):
        assert scalar_algebra(3).structure().blocks == [(1, 3)]

    def test_diagonal_twin_block(self):
        # {x (+) x : x in M_2} inside M_4: one 2x2 block, multiplicity 2
        gens = [np.block([[matrix_unit(2, i, j), np.zeros((2, 2))],
                          [np.zeros((2, 2)), matrix_unit(2, i, j)]])
                for i in range(2) for j in range(2)]
        a = generate_algebra(gens, 4)
        assert a.dim == 4
        assert a.structure().blocks == [(2, 2)]

    def test_two_block_sum_in_m5(self):
        # M_2 (+) M_3 block algebra: central projections of ranks 2 and 3
        gens = []
        for i in range(2):
            for j in range(2):
                m = np.zeros((5, 5), dtype=complex)
                m[i, j] = 1.0
                gens.append(m)
        for i in range(3):
            for j in range(3):
                m = np.zeros((5, 5), dtype=complex)
                m[2 + i, 2 + j] = 1.0
                gens.append(m)
        a = generate_algebra(gens, 5)
        s = a.structure()
        ranks = sorted(int(round(np.trace(z).real)) for z in s.projections)
        assert ranks == [2, 3]
        assert sorted(s.blocks) == [(2, 1), (3, 1)]

    def test_units_satisfy_multiplication_rules(self):
        a = diag_algebra(3)
        for units in a.structure().units:
            k = len(units)
            for i in range(k):
                for j in range(k):
                    for p in range(k):
                        for q in range(k):
                            prod = units[i][j] @ units[p][q]
                            expected = units[i][q] if j == p else np.zeros_like(prod)
                            assert hs_norm(prod - expected) <= 1e-9


class TestStructureDecomposition:
    def test_the_decomposition_is_the_cached_structure(self):
        # blocks against the commutator-stack centre: n_k^2 = dim z_k A, m_k = rank z_k / n_k
        algebras = [a for family in FUZZ_FAMILIES for inst in fuzz_instances(family, 10, 3) for a in (inst.a1, inst.a2)]
        algebras += [full_matrix_algebra(4), scalar_algebra(4), canonical_block_algebra([(2, 2), (1, 3)], 7)]
        assert len(algebras) == 83
        for a in algebras:
            sd = structure_decomposition(a)
            assert sd is a.structure()
            centre = commutator_stack_centre(a)
            want = []
            for j in matching(sd.projections, centre):
                nk = round(np.sqrt(np.linalg.matrix_rank((centre[j] @ a.basis).reshape(a.dim, -1), tol=1e-6)))
                want.append((nk, round(np.trace(centre[j]).real) // nk))
            assert sd.blocks == want

    def test_two_commutants_build_the_intertwiner_once(self, monkeypatch):
        column_basis, calls = algebra._column_basis, []
        monkeypatch.setattr(algebra, "_column_basis", lambda *args: calls.append(1) or column_basis(*args))
        a = canonical_block_algebra([(2, 2), (1, 3)], 7)
        first = commutant(a)
        assert len(calls) == 2  # one per block
        second = commutant(a)
        assert len(calls) == 2
        assert np.array_equal(first.basis, second.basis)

    def test_the_intertwiner_agrees_with_the_corner_reference(self):
        # the leader eigenvectors of h span the range of e_00, as the corner's second eigh does
        algebras = [a for family in FUZZ_FAMILIES for s in (1, 2, 3)
                    for inst in fuzz_instances(family, 10, s) for a in (inst.a1, inst.a2)]
        algebras.append(canonical_block_algebra([(2, 2), (1, 3)], 7))
        assert len(algebras) == 241
        for a in algebras:
            s = a.structure()
            assert np.abs(s.intertwiner - corner_intertwiner(s)).max() <= 1e-12

    def test_full_algebra_trivial_decomposition(self):
        sd = structure_decomposition(full_matrix_algebra(4))
        assert sd.blocks == [(4, 1)]
        assert hs_norm(sd.intertwiner @ dagger(sd.intertwiner) - np.eye(4)) <= 1e-10

    def test_scalars_in_m3(self):
        sd = structure_decomposition(scalar_algebra(3))
        assert sd.blocks == [(1, 3)]

    def test_dimension_bookkeeping(self):
        from staralg.sampling import random_subalgebra

        rng = np.random.default_rng(47)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            a, _ = random_subalgebra(n, rng)
            sd = structure_decomposition(a)
            assert sum(k * k for k, _ in sd.blocks) == a.dim
            assert sum(k * m for k, m in sd.blocks) == n

    def test_intertwiner_brings_block_form(self):
        # after conjugation each basis element is x (x) 1 per block
        gens = [np.block([[matrix_unit(2, i, j), np.zeros((2, 2))],
                          [np.zeros((2, 2)), matrix_unit(2, i, j)]])
                for i in range(2) for j in range(2)]
        a = generate_algebra(gens, 4)
        sd = structure_decomposition(a)
        (k, m), = sd.blocks
        assert (k, m) == (2, 2)
        w = sd.intertwiner
        for b in a.basis:
            t = dagger(w) @ b @ w
            x = t[::m, ::m]
            assert hs_norm(t - kron(x, np.eye(m))) <= 1e-8

    def test_intertwiner_with_columns_swapped_across_blocks_is_refused(self):
        # M_2 (+) C (x) 1_3: column 0 lies in the first block, column 2 in the second
        a = canonical_block_algebra([(2, 1), (1, 3)], 5)
        sd = structure_decomposition(a)
        assert sd.blocks == [(2, 1), (1, 3)]
        swapped = sd.intertwiner[:, [2, 1, 0, 3, 4]]
        with pytest.raises(IllConditioned, match="not in block form"):
            _verify_structure(a, swapped, sd.blocks, DEFAULT_TOL)


class TestConditionalExpectation:
    def test_onto_full_algebra_is_identity(self):
        e = conditional_expectation(full_matrix_algebra(3))
        rng = np.random.default_rng(53)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_norm(e.apply(x) - x) <= 1e-10

    def test_onto_diagonal_is_entrywise_restriction(self):
        e = conditional_expectation(diag_algebra(2))
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_allclose(e.apply(x), np.diag([1.0, 4.0]), atol=1e-10)
        assert is_psd(choi(e))

    def test_properties_on_random_subalgebras(self):
        from staralg.sampling import random_subalgebra

        rng = np.random.default_rng(59)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            a, _ = random_subalgebra(n, rng)
            e = conditional_expectation(a)
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ex = e.apply(x)
            # idempotent projection onto the subalgebra
            assert a.distance_to_span(ex) <= 1e-8
            assert hs_norm(e.apply(ex) - ex) <= 1e-8
            # unital and completely positive
            assert hs_norm(e.apply(np.eye(n, dtype=complex)) - np.eye(n)) <= 1e-8
            assert is_psd(choi(e))
            # bimodularity over the subalgebra
            idx = rng.integers(0, a.dim, size=2)
            left, right = a.basis[idx[0]], a.basis[idx[1]]
            assert hs_norm(e.apply(left @ x @ right) - left @ ex @ right) <= 1e-8


class TestMutuallyCommute:
    def test_tensor_factors_commute(self):
        assert mutually_commute(left_factor(2, 2), right_factor(2, 2))

    def test_full_algebra_does_not_self_commute(self):
        a = full_matrix_algebra(2)
        assert not mutually_commute(a, a)

    def test_algebra_commutes_with_its_commutant(self):
        from staralg.sampling import random_subalgebra

        rng = np.random.default_rng(61)
        for _ in range(5):
            a, _ = random_subalgebra(int(rng.integers(2, 7)), rng)
            assert mutually_commute(a, commutant(a))


def commutator_stack_entry(a1, a2):
    """Reference: the largest entry of [b_a, c_b] over both whole bases."""
    return np.abs(products(a1.basis, a2.basis) - products(a2.basis, a1.basis).transpose(1, 0, 2, 3)).max()


class TestCommuteWitness:
    """Commutation from A1's column units against A2's column units and their adjoints."""

    def test_agrees_with_the_full_commutator_stack(self):
        from staralg.sampling import random_subalgebra

        pairs = [(i.a1, i.a2) for family in FUZZ_FAMILIES for seed in (1, 2) for i in fuzz_instances(family, 20, seed)]
        rng = np.random.default_rng(101)
        for mu, sizes1, sizes2 in (([[1, 1], [1, 2]], [1, 1], [1, 1]), ([[1, 0], [0, 1]], [1, 2], [2, 1]),
                                   ([[2, 1], [1, 1]], [1, 2], [2, 1])):
            inst = cell_pair(np.array(mu), sizes1, sizes2, rng)
            pairs.append((inst.a1, inst.a2))
        for _ in range(5):
            a, _ = random_subalgebra(int(rng.integers(2, 7)), rng)
            pairs += [(a, commutant(a)), (commutant(a), a)]
        # for j > 0, [e_a0, e_jj] = -delta_aj e_j0: only the unit e_j0 sees that C*(e_jj) does not commute
        for a in (full_matrix_algebra(3), conjugate_algebra(canonical_block_algebra([(3, 1), (2, 2)], 7),
                                                            haar_unitary(7, seed=103))):
            for units in a.structure().units:
                pairs += [(a, generate_algebra([units[j, j]], a.ambient_dim)) for j in range(1, len(units))]
        eps = DEFAULT_TOL.eps_algebra
        commuting = 0
        for a1, a2 in pairs:
            x, y, entry = commute_witness(a1, a2)
            assert (entry <= eps) == (commutator_stack_entry(a1, a2) <= eps)
            assert (entry <= eps) == (basis_commute_witness(a1, a2)[2] <= eps)
            if entry <= eps:
                commuting += 1
            else:
                assert verify_noncommuting_elements(x, y, a1, a2) == pytest.approx(entry, abs=1e-12)
        assert 0 < commuting < len(pairs)


class TestValidation:
    def test_rejects_span_without_star_closure(self):
        basis = np.stack(
            [np.eye(2, dtype=complex) / np.sqrt(2), matrix_unit(2, 0, 1)]
        )
        with pytest.raises(ValidationError):
            MatrixStarAlgebra(2, basis).validate()

    def test_rejects_span_without_product_closure(self):
        basis = np.stack(
            [
                np.eye(3, dtype=complex) / np.sqrt(3),
                (matrix_unit(3, 0, 1) + matrix_unit(3, 1, 0)) / np.sqrt(2),
            ]
        )
        with pytest.raises(ValidationError):
            MatrixStarAlgebra(3, basis).validate()

    def test_span_missing_one_product_is_not_closed(self):
        # an orthonormal basis of the diagonal algebra of M_3; dropping its
        # last element leaves {1, h}, which misses the product h h
        full = np.stack(
            [
                np.eye(3, dtype=complex) / np.sqrt(3),
                np.diag([1.0, -1.0, 0.0]).astype(complex) / np.sqrt(2),
                np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(6),
            ]
        )
        MatrixStarAlgebra(3, full).validate()
        with pytest.raises(ValidationError, match="not closed under products"):
            MatrixStarAlgebra(3, full[:2]).validate()

    def test_span_missing_an_adjoint_is_not_closed(self):
        basis = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), matrix_unit(2, 0, 1)])
        with pytest.raises(ValidationError, match="not closed under adjoints"):
            MatrixStarAlgebra(2, basis).validate()


class TestProducts:
    @pytest.mark.parametrize("dx,dy", [(3, 5), (4, 1), (1, 2)])
    def test_matches_einsum_on_rectangular_stacks(self, dx, dy):
        rng = np.random.default_rng(dx * 10 + dy)
        n = 4
        x = rng.standard_normal((dx, n, n)) + 1j * rng.standard_normal((dx, n, n))
        y = rng.standard_normal((dy, n, n)) + 1j * rng.standard_normal((dy, n, n))
        got = products(x, y)
        assert got.shape == (dx, dy, n, n)
        np.testing.assert_allclose(got, np.einsum("aij,bjk->abik", x, y), atol=1e-12)


class TestGaugeFreeCellOrder:
    """The order of the minimal central projections depends on the algebra alone."""

    @staticmethod
    def projections(a):
        # a fresh copy, so the structure cache of ``a`` is not read
        return MatrixStarAlgebra(a.ambient_dim, a.basis).structure().projections

    def test_order_survives_a_rotated_hermitian_basis(self):
        # blocks of ranks 2, 2, 1, 1: ties in rank are broken by the probe
        u = haar_unitary(6, seed=81)
        a = conjugate_algebra(canonical_block_algebra([(1, 2), (2, 1), (1, 1), (1, 1)], 6), u)
        want = self.projections(a)
        assert [round(np.trace(p).real) for p in want] == [1, 1, 2, 2]
        rng = np.random.default_rng(82)
        for _ in range(6):
            # a rotated Hermitian basis is another orthonormal basis of the span
            q, _ = np.linalg.qr(rng.standard_normal((a.dim, a.dim)))
            got = self.projections(MatrixStarAlgebra(6, np.tensordot(q, a.hermitian_basis, axes=(1, 0))))
            assert len(got) == len(want)
            for p, r in zip(got, want):
                assert hs_norm(p - r) <= 1e-9

    def test_projections_with_equal_diagonals_are_ordered(self):
        # (1 +- sigma_x)/2 and (1 +- sigma_y)/2: no diagonal probe separates them
        for off in (1.0, 1j):
            g = np.array([[0, off], [np.conj(off), 0]], dtype=complex)
            a = generate_algebra([g], 2)
            got = self.projections(a)
            assert len(got) == 2 and hs_norm(got[0] - got[1]) > 1


def commutator_stack_centre(a):
    """Reference minimal central projections, from the commutator-stack centre, in no set order.

    The centre is the kernel of the d x d Gram matrix of the rows [b_i, b_j]
    (all j); a generic Hermitian element of it has one spectral cluster per
    minimal central projection, as many as the centre's dimension.
    """
    n, d = a.ambient_dim, a.dim
    prods = products(a.basis, a.basis)
    comm = (prods - prods.transpose(1, 0, 2, 3)).reshape(d, -1)
    coeffs = null_space(comm.conj() @ comm.T, scale=1.0)
    if coeffs.shape[1] == 1:
        return [np.eye(n, dtype=complex)]
    centre = MatrixStarAlgebra(n, np.tensordot(coeffs.T, a.basis, axes=(1, 0)))
    rng = np.random.default_rng(0)
    for _ in range(24):
        w, v = np.linalg.eigh(np.tensordot(rng.standard_normal(centre.dim), centre.hermitian_basis, axes=(0, 0)))
        groups = np.split(np.arange(n), np.flatnonzero(np.diff(w) > 1e-6 * max(w[-1] - w[0], 1.0)) + 1)
        if len(groups) == centre.dim:
            return [v[:, g] @ dagger(v[:, g]) for g in groups]
    raise AssertionError("the reference centre did not separate")


def matching(got, want, meta=None):
    """The index in ``want`` of each projection of ``got``: a one-to-one matching within 1e-9 in HS norm."""
    assert len(got) == len(want), meta
    match = [min(range(len(want)), key=lambda j: hs_norm(p - want[j])) for p in got]
    assert sorted(match) == list(range(len(want))), meta
    assert max(hs_norm(p - want[j]) for p, j in zip(got, match)) <= 1e-9, meta
    return match


class TestCentreProbe:
    """The minimal central projections from one eigh of the seeded element h = E_A(G + G*)."""

    def test_projections_equal_the_commutator_stack_centre(self):
        pairs = [inst for family in FUZZ_FAMILIES for seed in (1, 2) for inst in fuzz_instances(family, 20, seed)]
        rng = np.random.default_rng(91)
        for mu, sizes1, sizes2 in (([[1, 1], [1, 2]], [1, 1], [1, 1]), ([[1, 0], [0, 1]], [1, 2], [2, 1]),
                                   ([[2, 1], [1, 1]], [1, 2], [2, 1]), ([[1, 1, 1], [1, 1, 1]], [2, 1], [1, 1, 2])):
            pairs.append(cell_pair(np.array(mu), sizes1, sizes2, rng))
        for inst in pairs:
            for a in (inst.a1, inst.a2):
                got = MatrixStarAlgebra(a.ambient_dim, a.basis).structure().projections
                matching(got, commutator_stack_centre(a), inst.meta)

    def test_coinciding_block_values_are_retried_not_merged(self, monkeypatch):
        # attempt 0 gets h = 1, whose one cluster merges all three blocks of
        # C + C + M_2: one class of one cluster counts 1, not dim A = 6, so
        # the next attempt is taken
        a = conjugate_algebra(canonical_block_algebra([(1, 1), (1, 1), (2, 1)], 4), haar_unitary(4, seed=93))
        want = commutator_stack_centre(a)
        seeded = algebra._seeded_elements
        drawn = []

        def unit_first(alg, attempt):
            drawn.append(attempt)
            h, x = seeded(alg, attempt)
            return (np.eye(4, dtype=complex) if attempt == 0 else h), x

        monkeypatch.setattr(algebra, "_seeded_elements", unit_first)
        s = MatrixStarAlgebra(4, a.basis).structure()
        assert drawn == [0, 1]
        assert s.sizes == [1, 1, 2] and len(s.projections) == 3
        matching(s.projections, want)

    def test_blocks_come_by_rank_then_by_the_spectrum_of_h(self):
        # at equal rank, by the lowest eigenvalue of h = E_A(G_0 + G_0*) whose
        # eigenvector lies in the block, on algebras that attempt 0 resolves
        checked = ties = 0
        for family in FUZZ_FAMILIES:
            for seed in (1, 2, 3):
                for inst in fuzz_instances(family, 20, seed):
                    for a in (inst.a1, inst.a2):
                        h, x = algebra._seeded_elements(a, 0)
                        s = MatrixStarAlgebra(a.ambient_dim, a.basis).structure()
                        if s.is_factor or algebra._cluster_blocks(a, h, x, DEFAULT_TOL) is None:
                            continue
                        w, v = np.linalg.eigh(h)
                        inside = np.einsum("ia,kij,ja->ka", v.conj(), np.stack(s.projections), v).real > 0.5
                        keys = [(n * m, w[rows].min()) for (n, m), rows in zip(s.blocks, inside)]
                        assert keys == sorted(keys), inst.meta
                        ties += sum(k[0] == l[0] for k, l in zip(keys, keys[1:]))
                        checked += 1
        assert checked == 287 and ties == 87

    def test_factor_and_scalars_are_one_block(self):
        for a in (full_matrix_algebra(3), scalar_algebra(3), left_factor(2, 3)):
            s = MatrixStarAlgebra(a.ambient_dim, a.basis).structure()
            assert s.is_factor and len(s.projections) == 1
            np.testing.assert_array_equal(s.projections[0], np.eye(a.ambient_dim))


class TestSeededUnits:
    """Matrix units from the seeded elements h = E_A(G_t + G_t*) and x = E_A(G'_t) of the algebra."""

    @staticmethod
    def units(a):
        # a fresh copy, so the structure cache of ``a`` is not read
        return MatrixStarAlgebra(a.ambient_dim, a.basis).structure().units

    def test_units_do_not_depend_on_the_orthonormal_basis(self):
        seeds = iter(range(1000, 2000))
        worst = 0.0
        for family in FUZZ_FAMILIES:
            for inst in fuzz_instances(family, 20, 11):
                for a in (inst.a1, inst.a2):
                    # a unitary mixing of the coefficients is another orthonormal basis of the span
                    mixed = np.tensordot(haar_unitary(a.dim, seed=next(seeds)), a.basis, axes=(1, 0))
                    want, got = self.units(a), self.units(MatrixStarAlgebra(a.ambient_dim, mixed))
                    assert [u.shape for u in got] == [u.shape for u in want], inst.meta
                    worst = max([worst] + [np.abs(g - w).max() for g, w in zip(got, want)])
        assert worst <= 1e-12

    def test_a_degenerate_block_spectrum_is_retried_not_merged(self, monkeypatch):
        # attempt 0 gets h = e_22 of the first block, whose eigenvalues are
        # 0, 0, 1 there and 0 on the second block: merged diagonal units
        a = conjugate_algebra(canonical_block_algebra([(3, 1), (2, 2)], 7), haar_unitary(7, seed=95))
        seeded = algebra._seeded_elements
        degenerate = a.structure().units[0][2, 2]
        drawn = []

        def degenerate_first(alg, attempt):
            drawn.append(attempt)
            h, x = seeded(alg, attempt)
            return (degenerate if attempt == 0 else h), x

        monkeypatch.setattr(algebra, "_seeded_elements", degenerate_first)
        got = self.units(a)
        assert drawn == [0, 1]
        assert [u.shape[0] for u in got] == [3, 2]
        # the units of the second attempt, which the unpatched structure tries first
        monkeypatch.setattr(algebra, "_seeded_elements", lambda alg, attempt: seeded(alg, attempt + 1))
        for g, w in zip(got, self.units(a)):
            assert np.abs(g - w).max() <= 1e-12

    def test_a_clean_attempt_takes_one_eigh_of_size_n(self, monkeypatch):
        u = haar_unitary(6, seed=97)
        algebras = [full_matrix_algebra(3), scalar_algebra(4), conjugate_algebra(left_factor(2, 3), u),
                    conjugate_algebra(right_factor(2, 3), u), diag_algebra(3),
                    conjugate_algebra(canonical_block_algebra([(3, 1), (2, 2)], 7), haar_unitary(7, seed=95))]
        eigh, calls = np.linalg.eigh, []

        def counting(m, *args, **kwargs):
            calls.append(m.shape)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for a in algebras:
            calls.clear()
            MatrixStarAlgebra(a.ambient_dim, a.basis).structure().units
            assert calls == [(a.ambient_dim, a.ambient_dim)]

    def test_vanishing_corners_fail_the_count_and_are_retried(self, monkeypatch):
        # with x = h every corner P_a h P_b, a != b, vanishes: each cluster of
        # C + M_2 is its own class, and 1 + 1 + 1 clusters count 3, not 5
        a = conjugate_algebra(canonical_block_algebra([(1, 1), (2, 1)], 3), haar_unitary(3, seed=99))
        seeded = algebra._seeded_elements
        drawn = []

        def commuting_first(alg, attempt):
            drawn.append(attempt)
            h, x = seeded(alg, attempt)
            return h, (h if attempt == 0 else x)

        monkeypatch.setattr(algebra, "_seeded_elements", commuting_first)
        s = MatrixStarAlgebra(3, a.basis).structure()
        assert drawn == [0, 1]
        assert not s.is_factor and s.sizes == [1, 2]
        matching(s.projections, commutator_stack_centre(a))

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: numerics._gauge_probe((3, 4), 2),
            lambda: (numerics._seeded_gaussian((2, 5, 5), 1),),
        ],
        ids=["gauge_probe", "seeded_elements"],
    )
    def test_seeded_draws_are_made_once_and_read_only(self, draw):
        first, second = draw(), draw()
        for a, b in zip(first, second):
            assert a is b
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


class TestSpanOperator:
    """Every reading of the span operator against the contractions it replaced, written out inline."""

    @staticmethod
    def algebras():
        out = [full_matrix_algebra(3), scalar_algebra(4)]
        for family in FUZZ_FAMILIES:
            out += [a for inst in fuzz_instances(family, 10, 1) for a in (inst.a1, inst.a2)]
        return out

    @staticmethod
    def gaussians(rng, *shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def density(rng, n):
        g = TestSpanOperator.gaussians(rng, n, n)
        rho = g @ dagger(g)
        return rho / np.trace(rho).real

    def test_coefficients_projections_and_distances_match_the_old_formulas(self):
        rng = np.random.default_rng(29)
        for a in self.algebras():
            n = a.ambient_dim
            mats = self.gaussians(rng, 3, n, n)
            old_coeffs = np.stack([a.basis_vecs.conj() @ vec(x) for x in mats])
            old_proj = np.stack([np.tensordot(c, a.basis, axes=(0, 0)) for c in old_coeffs])
            old_dist = np.array([hs_norm(x - p) for x, p in zip(mats, old_proj)])
            assert np.abs(a.coefficients(mats) - old_coeffs).max() <= 1e-12
            assert np.abs(a.coefficients(mats[0]) - old_coeffs[0]).max() <= 1e-12
            assert np.abs(a.project(mats) - old_proj).max() <= 1e-12
            assert np.abs(a.project(mats[0]) - old_proj[0]).max() <= 1e-12
            assert np.abs(a.distances_to_span(mats) - old_dist).max() <= 1e-12
            for x in (mats[0], np.eye(n), a.basis[-1]):
                assert a.distance_to_span(x) == a.distances_to_span(x[None])[0]

    def test_state_readings_match_the_old_formulas(self):
        rng = np.random.default_rng(30)
        for a in self.algebras():
            n = a.ambient_dim
            rho = self.density(rng, n)
            state = AlgebraState(a, rho)
            old_values = np.einsum("ij,aji->a", rho, a.basis)
            assert np.abs(state.expect_basis() - old_values).max() <= 1e-12
            # a non-Hermitian matrix tells tr(x b_a) from its conjugate and transposes
            x = self.gaussians(rng, n, n)
            old_x = np.einsum("ij,aji->a", x, a.basis)
            assert np.abs(AlgebraState(a, x).expect_basis() - old_x).max() <= 1e-12
            assert abs(marginal_residual(x, [state]) - np.abs(old_x - old_values).max()) <= 1e-12
            old_rep = np.tensordot(old_values, dagger(a.basis), axes=(0, 0))
            assert np.abs(state_from_values(a, old_values).density - old_rep).max() <= 1e-12
            old_action = np.outer(vec(np.eye(n)), vec(old_rep).conj())
            assert np.abs(state_preparation(state).action - old_action).max() <= 1e-12
            sigma = np.tensordot(a.basis_vecs.conj() @ vec(rho), a.basis, axes=(0, 0))
            evals = np.linalg.eigvalsh(0.5 * (sigma + dagger(sigma)))
            assert is_faithful(state) == bool(evals[0] > DEFAULT_TOL.eps_psd * max(1.0, evals[-1]))

    def test_pair_readings_match_the_old_formulas(self):
        rng = np.random.default_rng(31)
        for family in FUZZ_FAMILIES:
            for inst in fuzz_instances(family, 10, 1):
                a1, a2 = inst.a1, inst.a2
                rho = self.gaussians(rng, a1.ambient_dim, a1.ambient_dim)  # not Hermitian, as the residual allows
                s1, s2 = AlgebraState(a1, rho), AlgebraState(a2, self.density(rng, a1.ambient_dim))
                left = (rho @ a1.basis).reshape(a1.dim, -1)
                prods = left @ a2.basis.transpose(0, 2, 1).reshape(a2.dim, -1).T
                old = np.abs(prods - np.outer(s1.expect_basis(), s2.expect_basis())).max()
                assert abs(product_residual(rho, s1, s2) - old) <= 1e-12
                if not mutually_commute(a1, a2):
                    continue
                structures = [a.structure() for a in (a1, a2)]
                u, v = (np.concatenate([e.reshape(-1, *e.shape[2:]) / np.sqrt(m)
                                        for e, m in zip(s.units, s.multiplicities)]) for s in structures)
                _, _, c1, c2 = PairPosition(a1, a2).cell_basis
                for c, x, a in ((c1, u, a1), (c2, v, a2)):
                    old = x.reshape(len(x), -1).conj() @ a.basis.reshape(a.dim, -1).T
                    assert np.abs(c - old).max() <= 1e-12

    def test_one_hierarchy_run_builds_each_adjoint_at_most_once(self, monkeypatch):
        built = []
        cache = MatrixStarAlgebra.__dict__["span_adjoint"]
        inner = cache.func

        def counted(a):
            built.append(a)  # holding the algebra keeps its id unique for the whole run
            return inner(a)

        # count the builds behind the class's own cache, not behind a replacement
        monkeypatch.setattr(cache, "func", counted)
        inst = fuzz_instances("shared_block", 1, 1)[0]
        # fresh copies, so nothing the sampler cached is read
        a1, a2 = (MatrixStarAlgebra(a.ambient_dim, a.basis) for a in (inst.a1, inst.a2))
        report = run_hierarchy_checks(a1, a2)
        assert report.verdicts["cstar_independent"].status == "Fails"
        assert any(b is a1 for b in built) and any(b is a2 for b in built)
        assert len({id(b) for b in built}) == len(built)
