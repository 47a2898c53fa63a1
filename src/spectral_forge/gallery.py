"""Test operator gallery with a reproducible generator.

Randomness comes from a counter-based SplitMix64 stream, so the same
seed yields bit-identical uniforms on any platform, and the recipe is
simple enough to replay in another language:

    state   = seed + (index + 1) * 0x9E3779B97F4A7C15   (mod 2^64)
    state  ^= state >> 30;  state *= 0xBF58476D1CE4E5B9  (mod 2^64)
    state  ^= state >> 27;  state *= 0x94D049BB133111EB  (mod 2^64)
    state  ^= state >> 31
    uniform = (state >> 11) / 2^53                       in [0, 1)

Complex Gaussians use the polar form sqrt(-log(1 - u1)) * exp(2 pi i u2)
on consecutive uniforms, and unitaries come from twice-iterated
modified Gram-Schmidt on a Gaussian matrix, columns in index order.
Gram-Schmidt and U D U* are BLAS products: a random kind is bit-identical
only at a fixed BLAS thread count (bench/run.py sets OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import BadSpec
from .linalg import OperatorMatrix, _number, _positive

__all__ = ["OperatorSpec", "generate", "KINDS"]

KINDS = (
    "random_normal",
    "random_hermitian",
    "random_unitary",
    "multiplication",
    "laplacian_1d",
    "momentum_1d",
    "jordan_block",
)

_RANDOM_KINDS = ("random_normal", "random_hermitian", "random_unitary")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class OperatorSpec:
    """Recipe for one gallery operator.

    ``dim`` and ``seed`` are integers and ``scale`` a real, none a bool;
    ``seed`` is required for the random kinds.  Violations raise BadSpec.
    """

    kind: str
    dim: int = 0
    scale: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadSpec(f"unknown operator kind {self.kind!r}; "
                          f"choose one of {', '.join(KINDS)}")
        if not _number(self.dim, Integral) or self.dim < 1:
            raise BadSpec(f"dimension must be an integer >= 1, got {self.dim!r}")
        if _positive(self.scale) is None:
            raise BadSpec(f"scale must be positive and finite, got {self.scale}")
        if self.seed is not None and not _number(self.seed, Integral):
            raise BadSpec(f"seed must be an integer, got {self.seed!r}")
        if self.kind in _RANDOM_KINDS and self.seed is None:
            raise BadSpec(f"{self.kind} requires a seed")


def _uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _complex_gaussians(seed: int, count: int, offset: int = 0) -> np.ndarray:
    u = _uniforms(seed, 2 * count, offset)
    radius = np.sqrt(-np.log(1.0 - u[:count]))
    angle = 2.0 * np.pi * u[count:]
    return radius * np.exp(1j * angle)


def _gram_schmidt_unitary(seed: int, dim: int, offset: int = 0) -> np.ndarray:
    g = _complex_gaussians(seed, dim * dim, offset).reshape(dim, dim)
    q = np.zeros_like(g)
    for j in range(dim):
        v = g[:, j].copy()
        for _ in range(2):
            v -= q[:, :j] @ (q[:, :j].conj().T @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            v = np.zeros(dim, dtype=np.complex128)
            v[j] = 1.0
            norm = 1.0
        q[:, j] = v / norm
    return q


def _conjugated_diagonal(seed: int, dim: int, diag: np.ndarray) -> np.ndarray:
    u = _gram_schmidt_unitary(seed, dim)
    return (u * diag) @ u.conj().T


def generate(spec: OperatorSpec) -> OperatorMatrix:
    """Build the operator described by ``spec``.

    random_normal draws eigenvalues with magnitudes in
    ``[0.1 scale, scale]`` (an annulus, keeping I + s^2 T*T well
    conditioned under extreme scalings) and conjugates by a seeded
    unitary.  multiplication is ``diag(scale k / n)``, laplacian_1d the
    second difference with -1, 2, -1 stencil, momentum_1d the centered
    first difference times i on a ring, and jordan_block the nilpotent
    shift, the gallery's non-normal control.
    """
    n = spec.dim
    kind = spec.kind
    if kind == "random_normal":
        u = _uniforms(spec.seed, 2 * n, offset=2 * n * n)
        mags = spec.scale * np.sqrt(0.01 + 0.99 * u[:n])
        angles = 2.0 * np.pi * u[n:]
        diag = mags * np.exp(1j * angles)
        return OperatorMatrix(_conjugated_diagonal(spec.seed, n, diag))
    if kind == "random_hermitian":
        u = _uniforms(spec.seed, n, offset=2 * n * n)
        diag = spec.scale * (2.0 * u - 1.0) + 0.0j
        return OperatorMatrix(_conjugated_diagonal(spec.seed, n, diag))
    if kind == "random_unitary":
        u = _uniforms(spec.seed, n, offset=2 * n * n)
        diag = spec.scale * np.exp(2.0j * np.pi * u)
        return OperatorMatrix(_conjugated_diagonal(spec.seed, n, diag))
    if kind == "multiplication":
        k = np.arange(1, n + 1, dtype=np.float64)
        return OperatorMatrix(np.diag(spec.scale * k / n).astype(np.complex128))
    if kind == "laplacian_1d":
        m = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        return OperatorMatrix(spec.scale * m.astype(np.complex128))
    if kind == "momentum_1d":
        forward = np.zeros((n, n))
        backward = np.zeros((n, n))
        idx = np.arange(n)
        forward[idx, (idx + 1) % n] = 1.0
        backward[idx, (idx - 1) % n] = 1.0
        return OperatorMatrix(0.5j * spec.scale * (forward - backward))
    if kind == "jordan_block":
        return OperatorMatrix(spec.scale * np.eye(n, k=1).astype(np.complex128))
    raise BadSpec(f"unhandled kind {kind!r}")
