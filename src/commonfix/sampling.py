"""Seeded random pairs of points of an admissible set, drawn a block at a time.

A point's scalar is uniform on its interval; its vector draws a support
length k uniformly from 1..8, fills it with uniform coordinates in
[-1, 1], and rescales them to an l1 norm drawn uniformly from
[0, radius].  The same generator state always yields the same points.

:func:`sample_pairs` draws the pairs (x_0, y_0), (x_1, y_1), ... in that
order, as the per-point calls ``rng.uniform(lo, hi)``,
``rng.integers(1, 9)``, ``rng.uniform(-1, 1, size=k)`` and
``rng.uniform(0, radius)`` would, yet reads the words straight from the
bit generator, which must be PCG64, the bit generator of
``np.random.default_rng``.  For a raw 64-bit word w, let
d = (w >> 11) * 2^-53.  Each point consumes, in order:

* one word for the scalar, lo + (hi - lo) * d;
* one 32-bit half for k, from PCG64's buffered ``next_uint32``: when its
  buffer is empty, the low half of a fresh word, keeping the high half
  for the next point's k; Lemire's method for a range of 8 never
  rejects, so k = 1 + ((u * 8) >> 32);
* k words for the coordinates, -1 + 2d;
* one word for the target norm, 0 + radius * d, unless every coordinate
  is exactly 0.0, that is every coordinate word has w >> 11 = 2^52; the
  vector is then ``L1Vector((0.0,))``.

The coordinates are scaled by target / norm, where norm sums their abs
in numpy's order: a left fold for k <= 7, pairwise for k = 8,
((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)).  The floats, and the
generator's state after the draw, its 32-bit buffer too, are those of
the per-point calls, bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .space import AdmissibleSet, PairBlock

MAX_SUPPORT = 8
# the most words one point consumes: scalar, a fresh word for k, 8 coordinates, target
_POINT_WORDS = 3 + MAX_SUPPORT
_HALF = 1 << 52  # w >> 11 of a coordinate word that gives exactly 0.0


class _Walk(NamedTuple):
    """Where each point's words lie: its scalar's, its first coordinate's,
    and its k; then the words consumed and PCG64's 32-bit buffer after."""

    scalar_at: list[int]
    coords_at: list[int]
    ks: list[int]
    used: int
    has_uint32: int
    uinteger: int


def _walk(words: np.ndarray, has_uint32: int, uinteger: int, points: int) -> _Walk:
    """Lay ``points`` points over the raw ``words``, starting with PCG64's
    32-bit buffer (``has_uint32``, ``uinteger``).  A consumed buffer keeps
    its ``uinteger``, as PCG64 does."""
    ws = words.tolist()
    half = ((words >> 11) == _HALF).tolist()
    scalar_at, coords_at, ks = [], [], []
    at = 0
    for _ in range(points):
        scalar_at.append(at)
        at += 1
        if has_uint32:
            u, has_uint32 = uinteger, 0
        else:
            u, uinteger, has_uint32 = ws[at] & 0xFFFFFFFF, ws[at] >> 32, 1
            at += 1
        k = 1 + (u >> 29)
        coords_at.append(at)
        ks.append(k)
        at += k
        if not (half[at - k] and all(half[at - k : at])):
            at += 1  # the target's word; a zero vector draws none
    return _Walk(scalar_at, coords_at, ks, at, has_uint32, uinteger)


def _abs_sums(a: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Each row's sum of its first k entries, nonnegative and zero-padded
    to 8, in the order ``np.sum`` takes over k entries."""
    left = np.add.accumulate(a, axis=1)[:, -1]
    halves = a[:, 0::2] + a[:, 1::2]  # a0 + a1, a2 + a3, ...
    pairwise = (halves[:, 0] + halves[:, 1]) + (halves[:, 2] + halves[:, 3])
    return np.where(ks == MAX_SUPPORT, pairwise, left)


def _block(words: np.ndarray, walk: _Walk, domain: AdmissibleSet) -> PairBlock:
    """The block of the walked points, taken in pairs (x, y) in order."""
    (lo, hi), radius = domain.scalar_interval, domain.ball_radius
    order = np.arange(len(walk.ks)).reshape(-1, 2).T.ravel()  # the x's, then the y's
    scalar_at, coords_at, ks = (np.array(v, dtype=np.int64)[order] for v in walk[:3])
    d = (words >> 11) * 2.0**-53
    columns = np.arange(MAX_SUPPORT)
    stored = columns < ks[:, None]
    at = np.where(stored, coords_at[:, None] + columns, 0)
    coords = np.where(stored, -1.0 + 2.0 * d[at], 0.0)
    norms = _abs_sums(np.abs(coords), ks)
    zero = norms == 0.0
    # a zero vector draws no target: its index here is the next point's
    # first word, or for the last point a word drawn but not consumed
    targets = 0.0 + radius * d[coords_at + ks]
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = coords * (targets / norms)[:, None]
    rows[zero] = 0.0
    return PairBlock(
        (lo + (hi - lo) * d[scalar_at]).reshape(2, -1),
        rows.reshape(2, -1, MAX_SUPPORT),
        np.where(zero, 1, ks).reshape(2, -1),
    )


def sample_pairs(rng: np.random.Generator, domain: AdmissibleSet, count: int) -> PairBlock:
    """``count`` independent pairs of points of the admissible set.

    :raises TypeError: the generator's bit generator is not PCG64.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"sample_pairs reads PCG64 words, not {type(bitgen).__name__}'s")
    state = bitgen.state
    words = bitgen.random_raw(_POINT_WORDS * 2 * count)
    walk = _walk(words, state["has_uint32"], state["uinteger"], 2 * count)
    state["has_uint32"], state["uinteger"] = walk.has_uint32, walk.uinteger
    bitgen.state = state
    bitgen.random_raw(walk.used, output=False)
    return _block(words, walk, domain)
