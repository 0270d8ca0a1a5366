"""Shared test helpers."""

import csv

import numpy as np

from commonfix.mappings import nth_power
from commonfix.scheme import (
    IterationConfig,
    TraceRecord,
    check_in_domain,
    distance_to_fixset,
)
from commonfix.space import AdmissibleSet, L1Vector, ProductPoint, distance

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


# The composed step: each image from nth_power, each stage from a
# per-point combination and each distance from distance, on points.  It is
# the reference that commonfix.scheme.step, which works on one index frame,
# matches bit for bit, exceptions included.  Its combination is not the
# package's row kernel, so a fault in that kernel shows against it.


def reference_combine(weights, points) -> ProductPoint:
    """sum_j w_j p_j over the union of the stored indices, each point's
    terms added at its own positions, in point order, from +0.0."""
    union = np.unique(np.concatenate([p.vec.idx for p in points]))
    acc = np.zeros(len(union))
    scalar = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for w, p in zip(weights, points):
            scalar += w * p.scalar
            pos = np.searchsorted(union, p.vec.idx)
            acc[pos] = acc[pos] + w * p.vec.val
    return ProductPoint(scalar, L1Vector.from_sparse(union, acc, max(len(p.vec) for p in points)))


def reference_step(
    x: ProductPoint, n: int, cfg: IterationConfig
) -> tuple[ProductPoint, TraceRecord]:
    """x_{n+1} and x_n's record, as ``scheme.step`` gives them."""
    domain = cfg.t_family[0].domain
    images = [nth_power(im, n, x) for im in cfg.i_family]
    extra_x, extra_y = ((), ()) if cfg.errors is None else ((p,) for p in cfg.errors)
    y = reference_combine(cfg.beta.weights, [x, *images, *extra_y])
    check_in_domain(y, domain, f"auxiliary point at step {n}")
    t_points = [x, *(nth_power(tm, n, y) for tm in cfg.t_family), *extra_x]
    x_next = reference_combine(cfg.alpha.weights, t_points)
    check_in_domain(x_next, domain, f"iterate at step {n}")
    fs, ref = cfg.fixed_set, cfg.reference
    return x_next, TraceRecord(
        n=n,
        x=x,
        y=y,
        step_norm=distance(x_next, x),
        t_defects=tuple(distance(x, nth_power(tm, n, x)) for tm in cfg.t_family),
        i_defects=tuple(distance(x, ix) for ix in images),
        dist_to_fixset=None if fs is None else distance_to_fixset(x, fs),
        dist_to_ref=None if ref is None else distance(x, ref),
    )
