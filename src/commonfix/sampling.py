"""Seeded random points of an admissible set.

Sampling is deliberately simple and reproducible: the scalar factor is
uniform on its interval; the vector factor draws a support length k
uniformly from 1..8, fills it with uniform coordinates in [-1, 1], and
rescales to an l1 norm drawn uniformly from [0, radius].  The same
generator state always yields the same points.
"""

from __future__ import annotations

import numpy as np

from .space import AdmissibleSet, L1Vector, ProductPoint

MAX_SUPPORT = 8


def sample_vector(rng: np.random.Generator, radius: float) -> L1Vector:
    """One vector with ||v||_1 uniform in [0, radius], support <= 8."""
    k = int(rng.integers(1, MAX_SUPPORT + 1))
    coords = rng.uniform(-1.0, 1.0, size=k)
    norm = float(np.abs(coords).sum())
    if norm == 0.0:
        return L1Vector((0.0,))
    target = float(rng.uniform(0.0, radius))
    return L1Vector.from_sparse(np.arange(k), coords * (target / norm), k)


def sample_point(rng: np.random.Generator, domain: AdmissibleSet) -> ProductPoint:
    """One point of the admissible set."""
    lo, hi = domain.scalar_interval
    scalar = float(rng.uniform(lo, hi))
    return ProductPoint(scalar, sample_vector(rng, domain.ball_radius))


def sample_pair(
    rng: np.random.Generator, domain: AdmissibleSet
) -> tuple[ProductPoint, ProductPoint]:
    """Two independent points of the admissible set."""
    return sample_point(rng, domain), sample_point(rng, domain)
