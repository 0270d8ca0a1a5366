"""Shared test helpers."""

import csv

import numpy as np

from commonfix.space import AdmissibleSet, L1Vector, ProductPoint

MAX_SUPPORT = 8


def read_trace_csv(path: str) -> list[dict]:
    """Read a trace table back into a list of dicts with parsed floats."""
    rows: list[dict] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed: dict = {"n": int(row["n"])}
            for key, val in row.items():
                if key == "n":
                    continue
                parsed[key] = float(val) if val != "" else None
            rows.append(parsed)
    return rows


# The per-call sampler: one Generator call per draw, the reference that
# commonfix.sampling.sample_pairs matches bit for bit.


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
