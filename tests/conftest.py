"""Shared constructions for the test suite."""

from __future__ import annotations

import numpy as np

from staralg import (
    MatrixStarAlgebra,
    PairPosition,
    full_matrix_algebra,
    generate_algebra,
    mutually_commute,
)
from staralg.numerics import DEFAULT_TOL, canonical_basis, dagger, kron


def diag_algebra(n: int) -> MatrixStarAlgebra:
    """The algebra of diagonal matrices inside M_n."""
    gens = [np.diag(np.eye(n)[i]).astype(complex) for i in range(n - 1)]
    return generate_algebra(gens, n)


def left_factor(d1: int, d2: int) -> MatrixStarAlgebra:
    """M_{d1} tensor 1 inside M_{d1*d2}."""
    full = full_matrix_algebra(d1)
    gens = [kron(b, np.eye(d2)) for b in full.basis]
    return generate_algebra(gens, d1 * d2)


def right_factor(d1: int, d2: int) -> MatrixStarAlgebra:
    """1 tensor M_{d2} inside M_{d1*d2}."""
    full = full_matrix_algebra(d2)
    gens = [kron(np.eye(d1), b) for b in full.basis]
    return generate_algebra(gens, d1 * d2)


def join(a1: MatrixStarAlgebra, a2: MatrixStarAlgebra, tol=DEFAULT_TOL) -> MatrixStarAlgebra:
    """Reference join: the algebra generated by the union of the two spans, in the canonical gauge.

    For a commuting pair it is the span of the products b_a c_b, which the
    normalized products of the matrix units over the nonzero joint cells
    give orthonormally (``PairPosition.cell_basis``); other pairs are closed
    by ``generate_algebra``.
    """
    if not mutually_commute(a1, a2, tol):
        return generate_algebra(np.concatenate([a1.basis, a2.basis]), a1.ambient_dim, tol)
    g, w, _, _ = PairPosition(a1, a2, tol).cell_basis
    return MatrixStarAlgebra(a1.ambient_dim, canonical_basis(g[w > 0]))


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def array_from_json(node) -> np.ndarray:
    """Complex array from a report's nested ``[re, im]`` lists."""
    arr = np.asarray(node, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def array_to_json(arr: np.ndarray) -> list:
    """Nested ``[re, im]`` lists, the report encoding of a complex array."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def twist_isomorphism(basis1, dim2, to_tensor, from_tensor, seed=0):
    """A product isomorphism precomposed with Ad(u) (x) id, u a unitary of factor 1.

    The twisted pair is still mutually inverse, unital, adjoint-preserving
    and even multiplicative, but ``from_tensor`` is no longer the
    multiplication map b_a (x) c_b -> b_a c_b.
    """
    rng = np.random.default_rng(seed)
    h = np.tensordot(rng.standard_normal(len(basis1)), basis1, axes=(0, 0))
    w, v = np.linalg.eigh(h + dagger(h))
    u = (v * np.exp(1j * w)) @ dagger(v)
    # r1[p, a] = <b_p, u* b_a u>: the automorphism in factor-1 coefficients
    r1 = np.einsum("pij,aij->pa", basis1.conj(), dagger(u) @ basis1 @ u)
    twist = np.kron(r1, np.eye(dim2))
    return dagger(twist) @ to_tensor, from_tensor @ twist
