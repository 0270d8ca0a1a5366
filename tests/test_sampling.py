"""Tests for the block sampler: the per-call stream, bit for bit."""

import numpy as np
import pytest

from commonfix import sampling
from commonfix.mappings import OSCILLATOR_DOMAIN, UNIT_DOMAIN, mapping_from_json
from commonfix.sampling import sample_pairs
from commonfix.space import AdmissibleSet, L1Vector, PairBlock

from helpers import sample_pair

COUNTS = (1, 2, 63, 64, 65, 600)
DOMAINS = (
    UNIT_DOMAIN,
    OSCILLATOR_DOMAIN,
    # radius 0.0: every value is +0.0 or -0.0, and a -0.0 is stored
    AdmissibleSet((-0.25, 2.0), 0.0),
    AdmissibleSet((0.3, 0.3), 7.5),
)


def _bits(p):
    """A point's scalar, stored indices, stored value bytes and length."""
    return p.scalar.hex(), p.vec.idx.tolist(), p.vec.val.tobytes(), len(p.vec)


def _word(k_low, k_high=1):
    """A raw word whose halves give k = k_low and k = k_high."""
    return ((k_high - 1) << 61) | ((k_low - 1) << 29)


class TestExactStream:
    @pytest.mark.parametrize("seed", range(200))
    def test_block_draw_is_the_per_call_stream(self, seed):
        """Two draws in a row, from a generator whose 32-bit buffer is
        full or empty, give the reference's points and generator state."""
        domain = DOMAINS[seed % len(DOMAINS)]
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for gen in (ref, rng):
            gen.integers(0, 5, size=seed % 3)  # fills the buffer, or empties it again
        for count in (COUNTS[seed % 6], COUNTS[(seed + 1) % 6]):
            want = [sample_pair(ref, domain) for _ in range(count)]
            got = sample_pairs(rng, domain, count).pairs()
            assert [tuple(map(_bits, pair)) for pair in got] == [
                tuple(map(_bits, pair)) for pair in want
            ]
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_radius_zero_keeps_negative_zeros(self):
        pairs = sample_pairs(np.random.default_rng(3), DOMAINS[2], 64).pairs()
        values = np.concatenate([p.vec.val for pair in pairs for p in pair])
        assert len(values) and not values.any() and np.signbit(values).all()

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
    def test_other_bit_generators_are_refused(self, bitgen):
        with pytest.raises(TypeError):
            sample_pairs(np.random.Generator(bitgen(0)), UNIT_DOMAIN, 1)


class TestPlantedZeroNorm:
    def test_zero_coordinates_give_the_zero_vector_and_draw_no_target(self):
        zero = (1 << 52) << 11 | 0x7FF  # the low 11 bits never reach a double
        words = np.array(
            [0, _word(3, 2), zero, zero, zero,  # x: scalar, k = 3, three zeros
             1 << 63, 5 << 11, 7 << 11, 1 << 62],  # y: scalar, k = 2 buffered, target
            dtype=np.uint64,
        )
        walk = sampling._walk(words, 0, 0, 2)
        assert walk == ([0, 5], [2, 6], [3, 2], 9, 0, _word(3, 2) >> 32)
        (x, y), = sampling._block(words, walk, UNIT_DOMAIN).pairs()
        assert x.vec == L1Vector((0.0,)) and len(x.vec) == 1 and not len(x.vec.idx)
        assert y.scalar == 0.5 and len(y.vec) == 2

    def test_a_full_buffer_gives_the_first_k(self):
        walk = sampling._walk(np.zeros(11, dtype=np.uint64), 1, 7 << 29, 1)
        assert walk == ([0], [1], [8], 10, 0, 7 << 29)


class TestBlockGaps:
    @pytest.mark.parametrize(
        "spec",
        [{"kind": "identity"}, {"kind": "t_alpha", "alpha": 0.8}, {"kind": "s", "alpha": 0.5},
         {"kind": "s_f", "kappa": 0.7, "alpha": 0.8}],
        ids=lambda spec: spec["kind"],
    )
    def test_gaps_of_a_sampled_block_are_those_of_its_points(self, spec):
        mapping = mapping_from_json(spec)
        gaps = mapping.gaps(range(1, 26))
        for seed in range(5):
            block = sample_pairs(np.random.default_rng(seed), mapping.domain, 65)
            again = PairBlock.from_points(*zip(*block.pairs()))
            assert [a.tobytes() for a in gaps(block)] == [a.tobytes() for a in gaps(again)]
            assert block.rows[..., 0].tobytes() == again.rows[..., 0].tobytes()
