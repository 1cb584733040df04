"""Seeded random generators for states and unitaries used in search and tests."""

from __future__ import annotations

import numpy as np

from .qstate import DensityOperator, PureState

__all__ = [
    "haar_unitary",
    "random_pure_state",
    "random_density_operator",
    "random_separable",
]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _haar_from_ginibre(g)


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Q of the QR of a complex Ginibre matrix, or of each matrix in a stack."""
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity of QR so the distribution is exactly Haar.
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def random_pure_state(dim_a: int, dim_b: int, rng: np.random.Generator) -> PureState:
    v = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return PureState(dim_a, dim_b, v / np.linalg.norm(v))


def random_density_operator(
    dim_a: int, dim_b: int, rng: np.random.Generator, rank: int | None = None
) -> DensityOperator:
    """Full-rank (or given-rank) state from a normalized Ginibre square."""
    d = dim_a * dim_b
    r = d if rank is None else int(rank)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / m.trace().real, dim_a, dim_b)


def random_separable(
    dim_a: int, dim_b: int, rng: np.random.Generator, terms: int = 8
) -> DensityOperator:
    """Random mixture of product pure states (separable by construction)."""
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w in weights:
        a = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
        b = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        v = np.kron(a, b)
        m += w * np.outer(v, v.conj())
    return DensityOperator.from_matrix(m, dim_a, dim_b)
