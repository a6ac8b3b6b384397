"""Release acceptance gate: nine numbered criteria, one test per criterion.

Each test pins its own tolerances and seeds so that a release run prints
one pass/fail line per criterion under ``pytest -v``.  The gate covers,
in order: subalgebra structure (1), the CP calculus (2), faithfulness of
tensor products (3), agreement of the product-position check with
sampled state extensions plus the implication chain (4), joint operation
extensions (5), product transitions of preparation pairs (6),
interpolating-factor search (7), infeasibility certification (8), and
CLI determinism (9).

Every instance lives in ambient dimension at most 12 and the whole gate
is sized to finish in well under a minute on commodity hardware.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from conftest import diag_algebra, join, matrix_unit
from staralg import (
    NoProductIsomorphism,
    canonical_block_algebra,
    channel_from_kraus,
    check_product_sense,
    check_spatial_product_sense,
    choi,
    commutant,
    conditional_expectation,
    conjugate_algebra,
    dual_on_states,
    extend_state,
    extend_state_batch,
    find_interpolating_factor,
    full_matrix_algebra,
    fuzz_instances,
    implication_violations,
    is_completely_positive,
    is_faithful_map,
    joint_extension_residuals,
    joint_operation,
    kraus_from_choi,
    map_from_choi,
    marginal_residual,
    random_density,
    random_prep_channel,
    random_pure_density,
    random_subalgebra,
    run_hierarchy_checks,
    sample_state_pairs,
    state_from_density,
    state_preparation,
    stinespring_dilation,
    structure_decomposition,
    tensor_channel,
    tensor_pair,
    verify_product_transition,
)
from staralg.channels import superop_from_function
from staralg.cli import main
from staralg.numerics import dagger, haar_unitary, hs_norm, kron
from staralg.sampling import random_faithful_nonselective_channel

REPO = Path(__file__).resolve().parent.parent

EPS_VERIFY = 1e-8
EPS_ROUND_TRIP = 1e-10


def _random_element(algebra, rng):
    """A Hilbert-Schmidt-normalized random element of the algebra's span."""
    coeff = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    x = np.tensordot(coeff, algebra.basis, axes=(0, 0))
    return x / hs_norm(x)


def _random_unital_channel(n, terms, rng):
    """A random nonselective map, normalized so the Kraus family is complete."""
    ops = rng.standard_normal((terms, n, n)) + 1j * rng.standard_normal((terms, n, n))
    total = sum(dagger(w) @ w for w in ops)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ dagger(vecs)
    return channel_from_kraus(np.stack([w @ inv_sqrt for w in ops]), n)


def test_criterion_1_structure_and_conditional_expectation():
    """100 random subalgebras of M_n (n <= 8): bicommutant identity,
    block-dimension bookkeeping, and a CP unital bimodular expectation."""
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a, declared = random_subalgebra(n, rng)

        # the double commutant returns exactly the algebra we started from
        bic = commutant(commutant(a))
        assert bic.dim == a.dim
        for b in a.basis:
            assert bic.distance_to_span(b) <= EPS_VERIFY
        for b in bic.basis:
            assert a.distance_to_span(b) <= EPS_VERIFY

        # block sizes and multiplicities account for both dimensions
        sd = structure_decomposition(a)
        assert sorted(sd.blocks) == sorted(declared)
        assert sum(k * k for k, _ in sd.blocks) == a.dim
        assert sum(k * m for k, m in sd.blocks) == n

        e = conditional_expectation(a)
        assert e.cp_certified
        assert e.unital
        assert hs_norm(e.apply(np.eye(n, dtype=complex)) - np.eye(n)) <= EPS_VERIFY
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x /= hs_norm(x)
        p, q = _random_element(a, rng), _random_element(a, rng)
        assert hs_norm(e.apply(p @ x @ q) - p @ e.apply(x) @ q) <= EPS_VERIFY


def test_criterion_2_cp_calculus_round_trips():
    """Choi/Kraus/map round-trips at 1e-10, dilations at 1e-8 with an
    exact isometry, and the transpose rejected with Choi eigenvalue -1."""
    rng = np.random.default_rng(2001)
    for n in (2, 3):
        for _ in range(5):
            t = _random_unital_channel(n, 3, rng)
            c = choi(t)

            ks = kraus_from_choi(c, n, n)
            rebuilt = channel_from_kraus(np.stack(ks.operators), n)
            assert hs_norm(choi(rebuilt) - c) <= EPS_ROUND_TRIP
            assert hs_norm(map_from_choi(c, n, n) - t.action) <= EPS_ROUND_TRIP
            for i in range(n):
                for j in range(n):
                    u = matrix_unit(n, i, j)
                    assert hs_norm(rebuilt.apply(u) - t.apply(u)) <= EPS_ROUND_TRIP

            sd = stinespring_dilation(t)
            v = sd.isometry
            assert hs_norm(dagger(v) @ v - np.eye(n)) <= EPS_VERIFY
            for i in range(n):
                for j in range(n):
                    u = matrix_unit(n, i, j)
                    lifted = dagger(v) @ kron(u, np.eye(sd.rank)) @ v
                    assert hs_norm(t.apply(u) - lifted) <= EPS_VERIFY

    full2 = full_matrix_algebra(2)
    transpose = superop_from_function(lambda x: x.T, full2, 2)
    from staralg import build_channel

    t = build_channel(full2, 2, transpose)
    assert abs(np.linalg.eigvalsh(choi(t)).min() + 1.0) <= 1e-6
    assert not is_completely_positive(t)
    assert not t.cp_certified


def test_criterion_3_faithful_tensor_products():
    """50 faithful channel pairs on M2/M3 tensor to faithful maps with a
    strictly positive completeness sum; 50 non-faithful ones do not."""
    rng = np.random.default_rng(3001)
    full2, full3 = full_matrix_algebra(2), full_matrix_algebra(3)
    for _ in range(50):
        t1 = random_faithful_nonselective_channel(full2, rng)
        t2 = random_faithful_nonselective_channel(full3, rng)
        tt = tensor_channel(t1, t2)
        assert tt.faithful
        comp = sum(w @ dagger(w) for w in tt.kraus.operators)
        assert np.linalg.eigvalsh(comp).min() > 1e-9
    for _ in range(50):
        broken, _ = random_prep_channel(full2, rng, faithful=False)
        t2 = random_faithful_nonselective_channel(full3, rng)
        tt = tensor_channel(broken, t2)
        assert not is_faithful_map(tt)
        comp = sum(w @ dagger(w) for w in tt.kraus.operators)
        assert np.linalg.eigvalsh(comp).min() <= 1e-9


def test_criterion_4_independence_collapse_and_implication_chain():
    """200 randomized commuting pairs: the product-position verdict holds
    exactly when none of 50 sampled marginal pairs is refused, and the
    hierarchy of nine verdicts never violates the implication chain."""
    instances = (
        fuzz_instances("tensor_split", 60, seed=4101)
        + fuzz_instances("shared_block", 80, seed=4102)
        + fuzz_instances("factor_split", 60, seed=4103)
    )
    assert len(instances) == 200
    for k, inst in enumerate(instances):
        verdict = check_product_sense(inst.a1, inst.a2)
        rng = np.random.default_rng(41000 + k)
        pairs = sample_state_pairs(inst.a1, inst.a2, 50, rng)
        outcomes = extend_state_batch(pairs, max_iter=4000)
        refused = any(o.status == "InfeasibleCertified" for o in outcomes)
        assert (verdict.status == "Holds") == (not refused)

        report = run_hierarchy_checks(inst.a1, inst.a2, seed=k, samples=2, op_samples=1)
        assert implication_violations(report.verdicts) == []


def test_criterion_5_joint_operation_extensions():
    """On 50 product-position instances every pair of faithful
    nonselective operations extends jointly (restrictions and
    multiplicativity at 1e-8, faithfulness preserved) and the state
    pulled back through a joint preparation is a faithful product state;
    20 non-product instances are refused."""
    instances = fuzz_instances("tensor_split", 30, seed=5101) + fuzz_instances(
        "factor_split", 20, seed=5102
    )
    for k, inst in enumerate(instances):
        rng = np.random.default_rng(51000 + k)
        assert check_product_sense(inst.a1, inst.a2).status == "Holds"
        for _ in range(10):
            t1 = random_faithful_nonselective_channel(inst.a1, rng)
            t2 = random_faithful_nonselective_channel(inst.a2, rng)
            joint = joint_operation(t1, t2)
            assert joint.cp_certified
            assert joint.unital
            assert joint.faithful
            res = joint_extension_residuals(joint, t1, t2)
            assert max(res.values()) <= EPS_VERIFY

        # pulling any input through the dual of a joint preparation
        # leaves a faithful state with the prescribed product marginals
        n = inst.a1.ambient_dim
        phi1 = state_from_density(inst.a1, random_density(n, rng))
        phi2 = state_from_density(inst.a2, random_density(n, rng))
        prep = joint_operation(state_preparation(phi1), state_preparation(phi2))
        sigma = dual_on_states(prep).apply(random_density(n, rng))
        assert marginal_residual(sigma, (phi1,)) <= EPS_VERIFY
        assert marginal_residual(sigma, (phi2,)) <= EPS_VERIFY
        assert state_from_density(join(inst.a1, inst.a2), sigma).is_faithful()

    for k, inst in enumerate(fuzz_instances("shared_block", 20, seed=5103)):
        rng = np.random.default_rng(52000 + k)
        t1 = random_faithful_nonselective_channel(inst.a1, rng)
        t2 = random_faithful_nonselective_channel(inst.a2, rng)
        with pytest.raises(NoProductIsomorphism):
            joint_operation(t1, t2)


def test_criterion_6_product_transition_marginals():
    """Joint preparations send 20 random inputs, entangled ones included,
    to outputs with both prescribed marginals at 1e-8."""
    for d1, d2, seed in ((2, 2, 61), (2, 3, 62)):
        n = d1 * d2
        inst = tensor_pair(d1, d2, np.random.default_rng(seed))
        rng = np.random.default_rng(6000 + seed)
        phi1 = state_from_density(inst.a1, random_density(n, rng))
        phi2 = state_from_density(inst.a2, random_density(n, rng))
        joint = joint_operation(state_preparation(phi1), state_preparation(phi2))
        dual = dual_on_states(joint)

        probes = [random_density(n, rng) for _ in range(5)]
        probes += [random_pure_density(n, rng) for _ in range(4)]
        v = np.zeros(n, dtype=complex)
        for i in range(min(d1, d2)):
            v[i * d2 + i] = 1.0
        v /= np.linalg.norm(v)
        probes.append(np.outer(v, v.conj()))

        for rho in probes:
            out = dual.apply(rho)
            assert marginal_residual(out, (phi1,)) <= EPS_VERIFY
            assert marginal_residual(out, (phi2,)) <= EPS_VERIFY
        assert verify_product_transition(joint, phi1, phi2)


def test_criterion_7_interpolating_factor_split():
    """50 conjugated tensor splits in M6 and M8: the factor search
    succeeds, its unitary exhibits the two-sided block form at 1e-8, and
    the spatial check agrees with Found/NotFound on every instance."""
    for k in range(50):
        d1, d2 = (2, 3) if k % 2 == 0 else (2, 4)
        n = d1 * d2
        u = haar_unitary(n, seed=7000 + k)
        plain = tensor_pair(d1, d2, np.random.default_rng(7000 + k))
        a1 = conjugate_algebra(plain.a1, u)
        a2 = conjugate_algebra(plain.a2, u)

        out = find_interpolating_factor(a1, a2)
        assert out.status == "Found"
        w = out.factor.unitary
        e1, e2 = out.factor.d1, out.factor.d2
        assert e1 * e2 == n
        for b in a1.basis:
            t = w @ b @ dagger(w)
            x = t[::e2, ::e2]
            assert hs_norm(t - kron(x, np.eye(e2))) <= EPS_VERIFY
        for b in a2.basis:
            t = w @ b @ dagger(w)
            y = t[:e2, :e2]
            assert hs_norm(t - kron(np.eye(e1), y)) <= EPS_VERIFY
        assert check_spatial_product_sense(a1, a2).status == "Holds"

    blocks = canonical_block_algebra([(2, 1), (1, 3)], 5)
    negatives = [
        (diag_algebra(2), diag_algebra(2)),
        (blocks, commutant(blocks)),
    ]
    for a1, a2 in negatives:
        assert find_interpolating_factor(a1, a2).status == "NotFound"
        assert check_spatial_product_sense(a1, a2).status == "Fails"


def test_criterion_8_infeasibility_certification():
    """Contradictory marginals on one and the same algebra are certified
    infeasible within 20000 iterations with a separation gap above 1e-6,
    identically on every run of the fixed seed set."""
    d = diag_algebra(2)
    e1 = state_from_density(d, np.diag([1.0, 0.0]).astype(complex))
    e2 = state_from_density(d, np.diag([0.0, 1.0]).astype(complex))
    out = extend_state(e1, e2)
    assert out.status == "InfeasibleCertified"
    assert out.iterations <= 20000
    assert out.certificate["gap"] > 1e-6

    full2 = full_matrix_algebra(2)
    for seed in range(10):
        rng = np.random.default_rng(8000 + seed)
        s1 = state_from_density(full2, random_density(2, rng))
        s2 = state_from_density(full2, random_density(2, rng))
        first = extend_state(s1, s2)
        assert first.status == "InfeasibleCertified"
        assert first.iterations <= 20000
        assert first.certificate["gap"] > 1e-6
        again = extend_state(s1, s2)
        assert again.status == first.status
        assert again.iterations == first.iterations
        assert again.certificate["gap"] == first.certificate["gap"]


def _cli_bytes(argv, out_path):
    assert main([*argv, "--out", str(out_path), "--json"]) == 0
    return out_path.read_bytes()


def test_criterion_9_cli_determinism(tmp_path):
    """analyze and fuzz write byte-identical reports for equal seeds."""
    instance = str(REPO / "instances" / "split_pair_m6.json")
    first = _cli_bytes(["analyze", instance, "--seed", "42"], tmp_path / "a1.json")
    second = _cli_bytes(["analyze", instance, "--seed", "42"], tmp_path / "a2.json")
    assert first == second

    fuzz_args = ["fuzz", "tensor_split", "5", "--seed", "7", "--samples", "4"]
    first = _cli_bytes(fuzz_args, tmp_path / "f1.json")
    second = _cli_bytes(fuzz_args, tmp_path / "f2.json")
    assert first == second
