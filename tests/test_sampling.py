"""Randomized generators: subalgebras, commuting pairs, densities,
channels, and the fuzz families.

Every generator is seeded, so the tests pin seeds and assert the
structural guarantees each family advertises.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import reference
from reference import is_psd, random_luders_channel
from staralg import (
    FUZZ_FAMILIES,
    UnknownFamily,
    canonical_block_algebra,
    cell_pair,
    commutant,
    conjugate_algebra,
    full_matrix_algebra,
    fuzz_instances,
    is_faithful_map,
    mutually_commute,
    noncommuting_pair,
    random_density,
    random_faithful_nonselective_channel,
    random_prep_channel,
    random_subalgebra,
    sample_state_pairs,
    tensor_pair,
)
from staralg import sampling
from staralg.algebra import _cell_form
from staralg.numerics import _haar_from_rng, dagger, haar_unitary, hs_norm


class TestRandomSubalgebra:
    def test_valid_with_consistent_bookkeeping(self):
        rng = np.random.default_rng(233)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a, blocks = random_subalgebra(n, rng)
            a.validate()
            assert sum(k * m for k, m in blocks) == n
            assert sum(k * k for k, _ in blocks) == a.dim

    def test_deterministic_under_seed(self):
        a1, _ = random_subalgebra(6, np.random.default_rng(11))
        a2, _ = random_subalgebra(6, np.random.default_rng(11))
        assert hs_norm(a1.basis - a2.basis) <= 1e-14


class TestPairGenerators:
    def test_tensor_pair_commutes_and_splits(self):
        inst = tensor_pair(2, 3, np.random.default_rng(239))
        assert inst.a1.ambient_dim == 6
        assert mutually_commute(inst.a1, inst.a2)
        assert inst.a1.dim == 4 and inst.a2.dim == 9
        assert inst.family == "tensor"

    def test_cell_pair_respects_cell_matrix(self):
        mu = np.array([[1, 0], [0, 1]])
        inst = cell_pair(mu, [1, 1], [1, 1], np.random.default_rng(241))
        assert mutually_commute(inst.a1, inst.a2)

    def test_noncommuting_pair_does_not_commute(self):
        inst = noncommuting_pair(2, np.random.default_rng(251))
        assert not mutually_commute(inst.a1, inst.a2)

    def test_conjugate_algebra_preserves_structure(self):
        a = canonical_block_algebra([(2, 1), (1, 2)], 4)
        u = haar_unitary(4, seed=5)
        b = conjugate_algebra(a, u)
        b.validate()
        assert b.dim == a.dim
        assert commutant(b).dim == commutant(a).dim


def kronecker_tensor_pair(d1, d2, rng):
    """Reference: both bases as Kronecker products of matrix units, then one Haar conjugation."""
    eye1, eye2 = np.eye(d1), np.eye(d2)
    b1 = np.stack([np.kron(b, eye2 / np.sqrt(d2)) for b in full_matrix_algebra(d1).basis])
    b2 = np.stack([np.kron(eye1 / np.sqrt(d1), b) for b in full_matrix_algebra(d2).basis])
    if rng is not None:
        u = _haar_from_rng(d1 * d2, rng)
        b1, b2 = u @ b1 @ dagger(u), u @ b2 @ dagger(u)
    return b1, b2


def diagonal_block_basis(blocks, n):
    """Reference: matrix units of size n_k, each repeated m_k times along the diagonal."""
    basis = []
    offset = 0
    for nk, mk in blocks:
        for i in range(nk):
            for j in range(nk):
                m = np.zeros((n, n), dtype=complex)
                for s in range(mk):
                    m[offset + i * mk + s, offset + j * mk + s] = 1.0 / np.sqrt(mk)
                basis.append(m)
        offset += nk * mk
    return np.stack(basis)


class TestCellPairIsTheOneConstructor:
    @pytest.mark.parametrize("seed", [None, 307])
    @pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2)])
    def test_tensor_pair_equals_the_kronecker_construction(self, d1, d2, seed):
        rng, ref_rng = (None, None) if seed is None else (np.random.default_rng(seed), np.random.default_rng(seed))
        inst = tensor_pair(d1, d2, rng)
        b1, b2 = kronecker_tensor_pair(d1, d2, ref_rng)
        assert np.array_equal(inst.a1.basis, b1) and np.array_equal(inst.a2.basis, b2)
        assert inst.family == "tensor"
        meta = [("d1", d1), ("d2", d2)] + ([] if seed is None else [("conjugated", True)])
        assert list(inst.meta.items()) == meta
        if seed is not None:
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("blocks", [[(2, 1), (1, 3)], [(1, 1)] * 3, [(3, 2)], [(2, 2), (1, 1)]])
    def test_block_algebra_equals_the_diagonal_construction(self, blocks):
        n = sum(nk * mk for nk, mk in blocks)
        assert np.array_equal(canonical_block_algebra(blocks, n).basis, diagonal_block_basis(blocks, n))

    @pytest.mark.parametrize("family", FUZZ_FAMILIES)
    def test_every_fuzz_algebra_validates(self, family):
        for seed in (1, 2):
            for inst in fuzz_instances(family, 20, seed):
                inst.a1.validate()
                inst.a2.validate()

    @pytest.mark.parametrize(
        "mu, sizes1, sizes2, message",
        [
            ([[1, 0], [0, 0]], [1, 1], [1, 1], "row 1 of mu is zero"),
            ([[1, 0], [1, 0]], [1, 1], [1, 1], "column 1 of mu is zero"),
            ([[1, -1], [1, 1]], [1, 1], [1, 1], r"mu\[0, 1\] = -1 is negative"),
            ([[1, 1]], [2], [0, 1], r"sizes2\[0\] = 0 is below 1"),
            ([[1.0]], [1], [1], "integer array"),
            ([[1, 1]], [1, 1], [2], r"shape \(2, 1\)"),
        ],
        ids=["zero_row", "zero_column", "negative_entry", "zero_size", "float_mu", "wrong_shape"],
    )
    def test_cell_pair_rejects_a_bad_layout_before_building(self, mu, sizes1, sizes2, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                cell_pair(np.array(mu), sizes1, sizes2)


#: (mu, sizes1, sizes2): one cell, legs of one and two sizes, zero cells, mu up to 3, three blocks a side
CELL_TABLES = [
    ([[1]], [1], [1]),
    ([[1]], [2], [3]),
    ([[2]], [2], [2]),
    ([[1, 1], [1, 1]], [1, 2], [1, 2]),
    ([[1, 1], [0, 1]], [1, 2], [2, 1]),
    ([[1, 0], [0, 1]], [1, 2], [2, 1]),
    ([[1, 2], [3, 1]], [1, 2], [2, 1]),
    ([[3], [1], [2]], [2, 1, 1], [1]),
    ([[1, 0, 2], [0, 3, 1], [1, 1, 0]], [2, 1, 1], [1, 2, 1]),
]


class TestCellFormIsTheKroneckerConstruction:
    @pytest.mark.parametrize("mu, sizes1, sizes2", CELL_TABLES)
    def test_both_bases_are_byte_identical(self, mu, sizes1, sizes2):
        got, want = _cell_form(np.array(mu), sizes1, sizes2), reference.kronecker_cell_form(np.array(mu), sizes1, sizes2)
        inst = cell_pair(np.array(mu), sizes1, sizes2)
        for a, b, c in zip(got, want, (inst.a1, inst.a2)):
            assert a.ambient_dim == b.ambient_dim
            assert np.array_equal(a.basis, b.basis) and np.array_equal(c.basis, b.basis)

    @pytest.mark.parametrize("family", FUZZ_FAMILIES)
    def test_every_fuzz_pair_is_byte_identical(self, family, monkeypatch):
        got = fuzz_instances(family, 10, 1)
        monkeypatch.setattr(sampling, "_cell_form", reference.kronecker_cell_form)
        want = fuzz_instances(family, 10, 1)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.a1.basis, w.a1.basis) and np.array_equal(g.a2.basis, w.a2.basis)


class TestRandomDensities:
    def test_density_is_a_state(self):
        rng = np.random.default_rng(257)
        rho = random_density(4, rng)
        assert is_psd(rho)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    def test_rank_control(self):
        rng = np.random.default_rng(263)
        rho = random_density(4, rng, rank=2)
        assert np.linalg.matrix_rank(rho, tol=1e-9) == 2

    def test_pure_density_is_rank_one(self):
        from staralg import random_pure_density

        rng = np.random.default_rng(269)
        rho = random_pure_density(3, rng)
        assert np.linalg.matrix_rank(rho, tol=1e-9) == 1
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


class TestRandomChannels:
    def test_faithful_nonselective_channel(self):
        rng = np.random.default_rng(271)
        a = full_matrix_algebra(3)
        t = random_faithful_nonselective_channel(a, rng)
        assert t.cp_certified and t.unital and t.faithful
        assert is_faithful_map(t)

    def test_luders_channel_is_idempotent(self):
        rng = np.random.default_rng(277)
        a = full_matrix_algebra(3)
        t = random_luders_channel(a, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_norm(t.apply(t.apply(x)) - t.apply(x)) <= 1e-9

    def test_prep_channel_realizes_its_state(self):
        rng = np.random.default_rng(281)
        a = full_matrix_algebra(2)
        t, phi = random_prep_channel(a, rng)
        # T(X) = phi(X) 1 on the algebra
        for b in a.basis:
            expected = phi.expect(b) * np.eye(2)
            assert hs_norm(t.apply(b) - expected) <= 1e-9
        assert phi.is_faithful()

    def test_prep_channel_non_faithful_variant(self):
        rng = np.random.default_rng(283)
        a = full_matrix_algebra(2)
        t, phi = random_prep_channel(a, rng, faithful=False)
        assert not phi.is_faithful()
        assert not is_faithful_map(t)


class TestSampleStatePairs:
    def test_count_and_wellformedness(self):
        rng = np.random.default_rng(293)
        inst = tensor_pair(2, 2, rng)
        pairs = sample_state_pairs(inst.a1, inst.a2, 12, rng)
        assert len(pairs) == 12
        for s1, s2 in pairs:
            s1.validate()
            s2.validate()
            assert s1.algebra is inst.a1
            assert s2.algebra is inst.a2


class TestFuzzInstances:
    def test_families_are_exactly_the_documented_ones(self):
        assert set(FUZZ_FAMILIES) == {
            "tensor_split",
            "shared_block",
            "haar_overlap",
            "factor_split",
        }

    def test_unknown_family_raises(self):
        with pytest.raises(UnknownFamily):
            fuzz_instances("bogus", 3, seed=0)

    def test_deterministic_under_seed(self):
        batch1 = fuzz_instances("tensor_split", 4, seed=7)
        batch2 = fuzz_instances("tensor_split", 4, seed=7)
        for i1, i2 in zip(batch1, batch2):
            assert hs_norm(i1.a1.basis - i2.a1.basis) <= 1e-14
            assert hs_norm(i1.a2.basis - i2.a2.basis) <= 1e-14

    def test_tensor_split_commutes(self):
        for inst in fuzz_instances("tensor_split", 4, seed=3):
            assert mutually_commute(inst.a1, inst.a2)
            assert inst.a1.ambient_dim <= 12

    def test_shared_block_commutes(self):
        for inst in fuzz_instances("shared_block", 4, seed=3):
            assert mutually_commute(inst.a1, inst.a2)

    def test_haar_overlap_generically_does_not_commute(self):
        batch = fuzz_instances("haar_overlap", 4, seed=3)
        assert any(not mutually_commute(i.a1, i.a2) for i in batch)

    def test_factor_split_is_conjugated_tensor(self):
        for inst in fuzz_instances("factor_split", 3, seed=5):
            assert mutually_commute(inst.a1, inst.a2)
            assert "d1" in inst.meta and "d2" in inst.meta
            assert inst.a1.ambient_dim == inst.meta["d1"] * inst.meta["d2"]
