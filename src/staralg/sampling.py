"""Seeded random instances: algebras, algebra pairs, states, and channels.

Everything here is driven by an explicit ``numpy.random.Generator`` so the
randomized sweeps and the fuzzing front end are reproducible bit for bit.
Constructors that know the answer (block layout, split structure) return it
alongside the instance so tests can use it as an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import MatrixStarAlgebra, mutually_commute
from .channels import ChannelMap, channel_on_algebra
from .errors import UnknownFamily
from .independence import state_preparation
from .numerics import DEFAULT_TOL, Tolerances, dagger, _haar_from_rng
from .states import AlgebraState, state_from_density

__all__ = [
    "PairInstance",
    "random_density",
    "random_pure_density",
    "canonical_block_algebra",
    "conjugate_algebra",
    "random_subalgebra",
    "tensor_pair",
    "cell_pair",
    "noncommuting_pair",
    "sample_state_pairs",
    "random_faithful_nonselective_channel",
    "random_prep_channel",
    "FUZZ_FAMILIES",
    "fuzz_instances",
]


@dataclass(eq=False)
class PairInstance:
    """A sampled algebra pair plus whatever ground truth the sampler knows."""

    a1: MatrixStarAlgebra
    a2: MatrixStarAlgebra
    family: str
    meta: dict = field(default_factory=dict)


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = n if rank is None else rank
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_pure_density(n: int, rng: np.random.Generator) -> np.ndarray:
    return random_density(n, rng, rank=1)


def canonical_block_algebra(blocks: list[tuple[int, int]], ambient_dim: int) -> MatrixStarAlgebra:
    """Block-diagonal algebra with prescribed (size, multiplicity) blocks.

    Block k contributes matrix units of size n_k repeated m_k times along
    the diagonal: the first algebra of the cell pair of (A, C 1), with
    mu = [[m_k]], sizes1 = [n_k] and sizes2 = [1].
    """
    if sum(nk * mk for nk, mk in blocks) != ambient_dim:
        raise ValueError("block dimensions do not fill the ambient space")
    return cell_pair(np.array([[mk] for _, mk in blocks]), [nk for nk, _ in blocks], [1]).a1


def conjugate_algebra(a: MatrixStarAlgebra, u: np.ndarray) -> MatrixStarAlgebra:
    return MatrixStarAlgebra(a.ambient_dim, u @ a.basis @ dagger(u))


def _random_blocks(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random block layout (n_k, m_k) with sum n_k m_k = n."""
    blocks = []
    rem = n
    while rem > 0:
        nk = int(rng.integers(1, min(3, rem) + 1))
        mk = int(rng.integers(1, rem // nk + 1))
        blocks.append((nk, mk))
        rem -= nk * mk
    return blocks


def random_subalgebra(
    n: int, rng: np.random.Generator
) -> tuple[MatrixStarAlgebra, list[tuple[int, int]]]:
    """Haar-conjugated block algebra in M_n, plus its true block layout."""
    blocks = _random_blocks(n, rng)
    alg = canonical_block_algebra(blocks, n)
    u = _haar_from_rng(n, rng)
    return conjugate_algebra(alg, u), blocks


def tensor_pair(
    d1: int, d2: int, rng: np.random.Generator | None = None
) -> PairInstance:
    """The pair (M_d1 (x) 1, 1 (x) M_d2), optionally Haar-conjugated: the cell pair of mu = [[1]]."""
    inst = cell_pair(np.ones((1, 1), dtype=int), [d1], [d2], rng)
    meta: dict = {"d1": d1, "d2": d2}
    if rng is not None:
        meta["conjugated"] = True
    return PairInstance(inst.a1, inst.a2, "tensor", meta)


def cell_pair(
    mu: np.ndarray,
    sizes1: list[int],
    sizes2: list[int],
    rng: np.random.Generator | None = None,
) -> PairInstance:
    """Commuting pair with prescribed joint multiplicity matrix.

    Cell (i, j) of the ambient space carries C^{sizes1[i]} (x) C^{sizes2[j]}
    (x) C^{mu[i,j]}, on which the first algebra acts in the first slot and
    the second algebra in the second; mu[i, j] = 0 deletes the cell, which
    breaks product position.  This one constructor therefore produces tensor
    pairs, block algebras, annihilating pairs, and product-but-not-split
    pairs.  The bases are orthonormal by construction; only the input is checked.
    """
    mu = np.asarray(mu)
    n_i, m_j = list(sizes1), list(sizes2)
    if mu.dtype.kind not in "iu" or mu.shape != (len(n_i), len(m_j)):
        raise ValueError(f"mu must be an integer array of shape {(len(n_i), len(m_j))}, not {mu.dtype} {mu.shape}")
    bad = [f"sizes{s}[{k}] = {size} is below 1" for s, sizes in ((1, n_i), (2, m_j)) for k, size in enumerate(sizes) if size < 1]
    bad += [f"mu[{i}, {j}] = {mu[i, j]} is negative" for i, j in np.argwhere(mu < 0)]
    bad += [f"row {i} of mu is zero" for i in np.flatnonzero(~mu.any(axis=1))]
    bad += [f"column {j} of mu is zero" for j in np.flatnonzero(~mu.any(axis=0))]
    if bad:
        raise ValueError("no cell pair: " + "; ".join(bad))
    cells = [(i, j) for i in range(len(n_i)) for j in range(len(m_j)) if mu[i, j]]
    offsets = np.cumsum([0] + [n_i[i] * m_j[j] * mu[i, j] for i, j in cells])
    n = int(offsets[-1])

    def algebra(sizes: list[int], side: int) -> MatrixStarAlgebra:
        """E_pq of block k in slot ``side`` of C^{n_i} (x) C^{m_j} (x) C^{mu_ij} on every cell of block k."""
        basis = []
        for k, size in enumerate(sizes):
            g = np.zeros((size * size, n, n), dtype=complex)
            for c, (i, j) in enumerate(cells):
                if (i, j)[side] == k:
                    legs = [np.eye(n_i[i])[None], np.eye(m_j[j])[None], np.eye(mu[i, j])[None]]
                    legs[side] = np.eye(size * size).reshape(-1, size, size)
                    g[:, offsets[c] : offsets[c + 1], offsets[c] : offsets[c + 1]] = np.kron(np.kron(*legs[:2]), legs[2])
            basis.append(g / np.linalg.norm(g, axis=(1, 2))[:, None, None])
        return MatrixStarAlgebra(n, np.concatenate(basis))

    a1, a2 = algebra(n_i, 0), algebra(m_j, 1)
    meta = {"mu": mu, "sizes1": n_i, "sizes2": m_j}
    if rng is not None:
        u = _haar_from_rng(n, rng)
        a1, a2 = conjugate_algebra(a1, u), conjugate_algebra(a2, u)
        meta["conjugated"] = True
    return PairInstance(a1, a2, "cell", meta)


def noncommuting_pair(n: int, rng: np.random.Generator) -> PairInstance:
    """Generic non-commuting pair: a block algebra and a rotated copy."""
    for _ in range(32):
        a1, blocks1 = random_subalgebra(n, rng)
        a2, blocks2 = random_subalgebra(n, rng)
        if not mutually_commute(a1, a2):
            return PairInstance(a1, a2, "noncommuting", {"blocks1": blocks1, "blocks2": blocks2})
    raise UnknownFamily("failed to sample a non-commuting pair")  # pragma: no cover


def sample_state_pairs(
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    count: int,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOL,
) -> list[tuple[AlgebraState, AlgebraState]]:
    """State pairs for extension experiments, adversarial ones first.

    The head of the list pairs up central-projection states of the two
    algebras (these witness every annihilation obstruction), followed by
    the tracial pair and Ginibre-random densities restricted to each side.
    """
    n = a1.ambient_dim
    pairs: list[tuple[AlgebraState, AlgebraState]] = []
    for z1 in a1.structure(tol).projections:
        for z2 in a2.structure(tol).projections:
            if len(pairs) >= count:
                break
            s1 = state_from_density(a1, z1 / np.trace(z1).real, tol)
            s2 = state_from_density(a2, z2 / np.trace(z2).real, tol)
            pairs.append((s1, s2))
    while len(pairs) < count:
        draw = rng.integers(0, 4)
        if draw == 0:
            r1, r2 = random_pure_density(n, rng), random_pure_density(n, rng)
        elif draw == 1:
            r1, r2 = np.eye(n, dtype=complex) / n, random_density(n, rng)
        else:
            r1, r2 = random_density(n, rng), random_density(n, rng)
        pairs.append((state_from_density(a1, r1, tol), state_from_density(a2, r2, tol)))
    return pairs[:count]


def _expi(h: np.ndarray) -> np.ndarray:
    """Unitary exp(i h) of a Hermitian matrix via its spectral decomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ dagger(v)


def random_faithful_nonselective_channel(
    a: MatrixStarAlgebra,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOL,
) -> ChannelMap:
    """Mixture of three unitary conjugations by exponentials inside the algebra.

    T(x) = sum_k p_k u_k* x u_k with u_k = exp(i h_k), h_k Hermitian in the
    span; such a map leaves the algebra invariant and is unital, completely
    positive and faithful.
    """
    herm = a.hermitian_basis
    p = rng.random(3) + 0.2
    p /= p.sum()
    kraus = [
        np.sqrt(pk) * _expi(np.tensordot(rng.standard_normal(herm.shape[0]), herm, axes=(0, 0)))
        for pk in p
    ]
    return channel_on_algebra(a, np.stack(kraus), tol)


def random_prep_channel(
    a: MatrixStarAlgebra,
    rng: np.random.Generator,
    faithful: bool = True,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[ChannelMap, AlgebraState]:
    """Discard-and-prepare on the algebra: x -> phi(x) 1, for a random phi."""
    n = a.ambient_dim
    rho = random_density(n, rng) if faithful else random_pure_density(n, rng)
    state = state_from_density(a, rho, tol)
    return state_preparation(state, tol), state


# ---------------------------------------------------------------------------
# fuzz families
# ---------------------------------------------------------------------------

FUZZ_FAMILIES = ("tensor_split", "shared_block", "haar_overlap", "factor_split")


def fuzz_instances(family: str, count: int, seed: int) -> list[PairInstance]:
    """Deterministic instance stream for one named family.

    tensor_split: Haar-conjugated pairs with rank-one multiplicity, so the
    whole hierarchy holds.  shared_block: pairs with an annihilating pair
    of central projections, so independence fails.  haar_overlap: generic
    non-commuting pairs.  factor_split: the first algebra is a factor, so
    the interpolation fast path applies.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        if family == "tensor_split":
            if rng.integers(0, 2) == 0:
                inst = tensor_pair(2, int(rng.integers(2, 4)), rng)
            else:
                inst = cell_pair(
                    np.array([[1, 1], [1, 1]]), [1, 2], [1, 2], rng
                )
        elif family == "shared_block":
            mu = np.array([[1, 1], [0, 1]]) if rng.integers(0, 2) == 0 else np.array([[1, 0], [0, 1]])
            inst = cell_pair(mu, [1, 2], [2, 1], rng)
            inst.meta["annihilating"] = True
        elif family == "haar_overlap":
            inst = noncommuting_pair(int(rng.integers(3, 6)), rng)
        elif family == "factor_split":
            inst = tensor_pair(int(rng.integers(2, 4)), 2, rng)
            inst.meta["factor_side"] = 1
        else:
            raise UnknownFamily(
                f"unknown family {family!r}; known: {', '.join(FUZZ_FAMILIES)}"
            )
        inst.family = family
        inst.meta["index"] = k
        out.append(inst)
    return out
