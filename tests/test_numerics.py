"""Numerical kernel: positivity and kernels of the test references, norms,
vectorization conventions, spans and their gauge, and Haar sampling.

Oracles: reconstruction residuals recompute the factorization directly;
the Haar first-entry law is checked against the closed-form Beta(1, n-1)
distribution with a Kolmogorov-Smirnov statistic.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference import is_psd, null_space
from staralg import Tolerances, generate_algebra, numerics
from staralg.errors import IllConditioned
from staralg.numerics import (
    canonical_basis,
    dagger,
    haar_unitary,
    hermitian_to_rvec,
    hs_norm,
    is_hermitian,
    kron,
    orthonormalize,
    rvec_to_hermitian,
    unvec,
    vec,
)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + dagger(g)) / 2


class TestHermitianPsdPredicates:
    def test_identity_is_psd(self):
        assert is_psd(np.eye(4, dtype=complex))

    def test_indefinite_diagonal_is_not_psd(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        assert is_hermitian(m)
        assert not is_psd(m)

    def test_rank_one_projector_is_psd(self):
        # oracle: x* (v v*) x = |v* x|^2 >= 0 for every x
        rng = np.random.default_rng(3)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        m = np.outer(v, v.conj())
        assert is_psd(m)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        quad = (x.conj() @ m @ x).real
        assert abs(quad - abs(v.conj() @ x) ** 2) <= 1e-10

    def test_non_hermitian_is_not_psd(self):
        assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestKron:
    def test_identity_times_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_times_diagonal(self):
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        got = kron(np.diag([a, b]), np.diag([c, d]))
        np.testing.assert_allclose(got, np.diag([a * c, a * d, b * c, b * d]))

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(11)
        a, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
        b, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert hs_norm(lhs - rhs) <= 1e-12


class TestHilbertSchmidt:
    def test_inner_of_identities(self):
        assert abs(hs_norm(np.eye(2)) ** 2 - 2.0) <= 1e-14

    def test_inner_self_is_squared_frobenius(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # oracle: sum of squared moduli of the entries
        frob2 = float(np.sum(np.abs(a) ** 2))
        assert abs(np.vdot(a, a).real - frob2) <= 1e-10
        assert abs(hs_norm(a) - np.sqrt(frob2)) <= 1e-10


class TestVecConventions:
    def test_vec_stacks_columns(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        np.testing.assert_allclose(unvec(vec(m), 3, 5), m)

    def test_rvec_roundtrip(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(6, rng)
        r = hermitian_to_rvec(h)
        assert r.dtype.kind == "f"
        np.testing.assert_allclose(rvec_to_hermitian(r, 6), h, atol=1e-12)
        # the real coordinates are isometric for the HS norm
        assert abs(np.linalg.norm(r) - hs_norm(h)) <= 1e-12


class TestNullSpace:
    def test_zero_map_full_kernel(self):
        ns = null_space(np.zeros((3, 3)))
        assert ns.shape == (3, 3)
        np.testing.assert_allclose(dagger(ns) @ ns, np.eye(3), atol=1e-12)

    def test_identity_empty_kernel(self):
        ns = null_space(np.eye(4))
        assert ns.shape == (4, 0)

    def test_rank_one_projector_kernel(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = v / np.linalg.norm(v)
        p = np.outer(v, v.conj())
        # oracle: singular value decomposition rank count
        rank = int(np.sum(np.linalg.svd(p, compute_uv=False) > 1e-12))
        assert rank == 1
        ns = null_space(p)
        assert ns.shape == (4, 3)
        assert hs_norm(p @ ns) <= 1e-12

    def test_kernel_vectors_orthonormal(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        ns = null_space(a)
        assert ns.shape == (5, 3)
        np.testing.assert_allclose(dagger(ns) @ ns, np.eye(3), atol=1e-10)

    def test_tall_rank_deficient_kernel(self):
        rng = np.random.default_rng(19)
        left = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        right = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        a = left @ right
        # oracle: an 8 x 3 product through C^2 has rank 2, so a 1-dim kernel
        assert np.linalg.matrix_rank(a) == 2
        ns = null_space(a)
        assert ns.shape == (3, 1)
        np.testing.assert_allclose(dagger(ns) @ ns, np.eye(1), atol=1e-12)
        assert hs_norm(a @ ns) <= 1e-12 * hs_norm(a)

        # the 2304 x 144 commutator stack of 1 (x) M_4 in M_12, as the reference
        # commutant builds it; its kernel is vec(M_3 (x) 1), of dimension 9
        units = np.kron(np.eye(3), np.eye(16).reshape(16, 4, 4))
        eye = np.eye(12)
        stack = np.concatenate([np.kron(eye, b) - np.kron(b.T, eye) for b in units])
        ns = null_space(stack, scale=1.0)
        # reference: the thin-SVD kernel, with the same cut
        _, sigma, vh = np.linalg.svd(stack, full_matrices=False)
        ref = dagger(vh[np.count_nonzero(sigma > 1e-9 * sigma[0]):])
        assert ns.shape == ref.shape == (144, 9)
        np.testing.assert_allclose(dagger(ns) @ ns, np.eye(9), atol=1e-12)
        np.testing.assert_allclose(ns @ dagger(ns), ref @ dagger(ref), atol=1e-12)


class TestOrthonormalize:
    def test_drops_dependent_rows(self):
        mats = np.stack([np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)])
        out = orthonormalize(mats)
        assert out.shape == (1, 2, 2)
        assert abs(hs_norm(out[0]) - 1.0) <= 1e-12

    def test_spans_are_equal(self):
        rng = np.random.default_rng(23)
        mats = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        out = orthonormalize(mats)
        assert out.shape[0] == 3
        gram = np.einsum("aij,bij->ab", out.conj(), out)
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
        # each original matrix is reproduced by its expansion in the output
        for m in mats:
            coeff = np.einsum("aij,ij->a", out.conj(), m)
            recon = np.tensordot(coeff, out, axes=(0, 0))
            assert hs_norm(m - recon) <= 1e-9


def span_projector(basis):
    rows = basis.reshape(basis.shape[0], -1)
    return rows.T @ rows.conj()


def random_orthonormal_basis(r, n, seed):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((r, n, n)) + 1j * rng.standard_normal((r, n, n))
    return orthonormalize(mats)


def mix(basis, seed):
    """Rows of ``basis`` mixed by a Haar unitary: another basis of the same span."""
    u = haar_unitary(basis.shape[0], seed=seed)
    return np.tensordot(u, basis, axes=(1, 0))


class TestCanonicalBasis:
    # oracle: the output must be a function of the span alone, so any two
    # orthonormal bases of one span (related by a unitary) map to the same
    # matrices

    @pytest.mark.parametrize("r", [1, 5, 16])
    def test_haar_mixed_bases_give_the_same_basis(self, r):
        basis = random_orthonormal_basis(r, 4, seed=r)
        want = canonical_basis(basis)
        for seed in (1, 2):
            got = canonical_basis(mix(basis, seed))
            assert np.abs(got - want).max() <= 1e-10

    def test_orthonormal_with_the_same_span(self):
        basis = random_orthonormal_basis(7, 3, seed=29)
        out = canonical_basis(basis)
        assert out.shape == basis.shape
        gram = np.einsum("aij,bij->ab", out.conj(), out)
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-12)
        assert np.abs(span_projector(out) - span_projector(basis)).max() <= 1e-12

    def test_empty_basis_passes_through(self):
        assert canonical_basis(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)

    def test_generator_order_does_not_change_the_algebra_basis(self):
        # M_2 on the first two coordinates plus the projection on the rest
        rng = np.random.default_rng(31)
        corner = np.zeros((4, 4))
        corner[:2, :2] = 1.0
        gens = [random_hermitian(4, rng) * corner for _ in range(3)]
        gens.append(np.diag([0, 0, 1, 1]).astype(complex))
        a = generate_algebra(gens, 4)
        b = generate_algebra(gens[::-1], 4)
        assert a.dim == b.dim == 5
        assert np.abs(a.basis - b.basis).max() <= 1e-10

    @staticmethod
    def flat_weights(shape, attempt, probe):
        weights, anchor = probe(shape, attempt)
        return (np.ones(shape) if attempt == 0 else weights), anchor

    @staticmethod
    def null_anchor(shape, attempt, probe):
        weights, anchor = probe(shape, attempt)
        return weights, (np.zeros(shape) if attempt == 0 else anchor)

    @pytest.mark.parametrize("spoil", ["flat_weights", "null_anchor"])
    def test_a_spoiled_first_probe_is_retried(self, spoil, monkeypatch):
        # flat weights compress to the identity (every gap is zero); a zero
        # anchor leaves every phase unfixed
        probe = numerics._gauge_probe
        attempts = []

        def spoiled(shape, attempt):
            attempts.append(attempt)
            return getattr(self, spoil)(shape, attempt, probe)

        monkeypatch.setattr(numerics, "_gauge_probe", spoiled)
        basis = random_orthonormal_basis(6, 3, seed=37)
        out = canonical_basis(basis)
        assert attempts == [0, 1]
        assert np.abs(span_projector(out) - span_projector(basis)).max() <= 1e-12
        assert np.abs(canonical_basis(mix(basis, 3)) - out).max() <= 1e-10

    def test_raises_when_every_probe_is_degenerate(self, monkeypatch):
        probe = numerics._gauge_probe

        def flat(shape, attempt):
            return np.ones(shape), probe(shape, attempt)[1]

        monkeypatch.setattr(numerics, "_gauge_probe", flat)
        with pytest.raises(IllConditioned):
            canonical_basis(random_orthonormal_basis(3, 2, seed=41))


def compression_reference(basis):
    """The canonical gauge by compressing each seeded probe and diagonalizing it."""
    r = basis.shape[0]
    rows = basis.reshape(r, -1)
    for attempt in range(numerics.GAUGE_ATTEMPTS):
        weights, anchor = numerics._gauge_probe(basis.shape[1:], attempt)
        compression = (rows.conj() * weights.reshape(-1)) @ rows.T
        w, v = np.linalg.eigh(0.5 * (compression + dagger(compression)))
        if r > 1 and np.diff(w).min() < numerics.GAUGE_MIN_GAP:
            continue
        out = v.T @ rows
        overlaps = out @ anchor.reshape(-1).conj()
        if np.abs(overlaps).min() < numerics.GAUGE_MIN_OVERLAP / np.sqrt(rows.shape[1]):
            continue
        return (out * (overlaps.conj() / np.abs(overlaps))[:, None]).reshape(basis.shape)
    raise AssertionError("reference found no probe")


class TestFullSpanGauge:
    # a span that fills its whole space takes the closed form: unit matrices
    # ordered by weight, each with its anchor phase

    @staticmethod
    def full_basis(shape, seed):
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return orthonormalize(mats)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (9, 3, 3), (6, 2, 3)])
    def test_closed_form_equals_the_compression_reference(self, shape):
        basis = self.full_basis(shape, seed=sum(shape))
        assert basis.shape == shape
        for seed in (1, 2):
            mixed = mix(basis, seed)
            assert np.abs(canonical_basis(mixed) - compression_reference(mixed)).max() <= 1e-12

    @pytest.mark.parametrize("spoil", ["flat_weights", "null_anchor"])
    def test_a_spoiled_first_probe_is_retried_once(self, spoil, monkeypatch):
        probe = numerics._gauge_probe
        attempts = []

        def spoiled(shape, attempt):
            attempts.append(attempt)
            return getattr(TestCanonicalBasis, spoil)(shape, attempt, probe)

        basis = self.full_basis((9, 3, 3), seed=43)
        want = compression_reference(basis)
        monkeypatch.setattr(numerics, "_gauge_probe", spoiled)
        out = canonical_basis(basis)
        assert attempts == [0, 1]
        # the second probe's closed form, which the unspoiled reference tries first
        monkeypatch.setattr(numerics, "_gauge_probe", lambda shape, attempt: probe(shape, attempt + 1))
        assert np.abs(out - compression_reference(basis)).max() <= 1e-12
        assert np.abs(out - want).max() > 0.1

    def test_raises_when_every_probe_is_flat(self, monkeypatch):
        probe = numerics._gauge_probe

        def flat(shape, attempt):
            return np.ones(shape), probe(shape, attempt)[1]

        monkeypatch.setattr(numerics, "_gauge_probe", flat)
        with pytest.raises(IllConditioned):
            canonical_basis(self.full_basis((4, 2, 2), seed=47))


class TestHaarUnitary:
    def test_scalar_case_has_unit_modulus(self):
        u = haar_unitary(1, seed=0)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self):
        u = haar_unitary(6, seed=42)
        np.testing.assert_allclose(u @ dagger(u), np.eye(6), atol=1e-12)

    def test_same_seed_same_matrix(self):
        np.testing.assert_allclose(haar_unitary(5, seed=3), haar_unitary(5, seed=3))
        assert hs_norm(haar_unitary(5, seed=3) - haar_unitary(5, seed=4)) > 1e-3

    def test_first_entry_follows_beta_law(self):
        # |U_00|^2 of a Haar unitary on C^6 is Beta(1, 5):
        # CDF(x) = 1 - (1 - x)^5.  Kolmogorov-Smirnov against that law.
        n, m = 6, 1000
        samples = np.sort(
            [abs(haar_unitary(n, seed=s)[0, 0]) ** 2 for s in range(m)]
        )
        cdf = 1.0 - (1.0 - samples) ** (n - 1)
        upper = np.arange(1, m + 1) / m - cdf
        lower = cdf - np.arange(0, m) / m
        ks = max(upper.max(), lower.max())
        # alpha = 0.001 critical value 1.95 / sqrt(m)
        assert ks <= 1.95 / np.sqrt(m)


class TestTolerances:
    def test_defaults_are_positive(self):
        tol = Tolerances()
        assert tol.eps_herm > 0 and tol.eps_psd > 0
        assert tol.eps_algebra > 0 and tol.eps_verify > 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Tolerances(eps_verify=0.0)
        with pytest.raises(ValueError):
            Tolerances(eps_herm=-1e-9)
