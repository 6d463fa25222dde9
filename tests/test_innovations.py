import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats

from fieldkde import InnovationModel, Seeds
from fieldkde.clt import result_bytes
from fieldkde.innovations import KEY_CHUNK, UNIFORM_HALF_WIDTH, draw_lattice, philox_keys

from conftest import MASTER_SEED, generator


def test_same_seed_bit_identical():
    m = InnovationModel("gaussian")
    a = draw_lattice(m, generator(MASTER_SEED, 3, 9), (1000,))
    b = draw_lattice(m, generator(MASTER_SEED, 3, 9), (1000,))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name,nu", [("gaussian", None), ("uniform", None), ("student_t", 5.0)])
def test_draw_into_a_slot_keeps_the_bits(name, nu):
    m = InnovationModel(name, nu)
    fresh = draw_lattice(m, generator(MASTER_SEED, 2, 7), (6, 5))
    stack = np.full((3, 6, 5), np.nan)
    slot = stack[1]
    assert draw_lattice(m, generator(MASTER_SEED, 2, 7), (6, 5), slot) is slot
    assert np.array_equal(slot.view(np.int64), fresh.view(np.int64))
    assert np.isnan(stack[[0, 2]]).all()


@pytest.mark.parametrize("replicate", range(5))
def test_uniform_draws_in_place_with_the_bits_of_generator_uniform(replicate):
    m, shape = InnovationModel("uniform"), (64, 128)
    w = UNIFORM_HALF_WIDTH
    expected = generator(MASTER_SEED, 4, replicate).uniform(-w, w, shape)
    fresh = draw_lattice(m, generator(MASTER_SEED, 4, replicate), shape)
    assert np.array_equal(fresh.view(np.int64), expected.view(np.int64))
    out = np.empty(shape)
    rng = generator(MASTER_SEED, 4, replicate)
    tracemalloc.start()
    try:
        assert draw_lattice(m, rng, shape, out) is out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    # no lattice beside the slot, where a draw copied into it held one more
    assert peak < out.nbytes


def test_distinct_streams_uncorrelated():
    m = InnovationModel("gaussian")
    a = draw_lattice(m, generator(MASTER_SEED, 0, 0), (100_000,))
    b = draw_lattice(m, generator(MASTER_SEED, 1, 0), (100_000,))
    c = draw_lattice(m, generator(MASTER_SEED, 0, 1), (100_000,))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.02


@pytest.mark.parametrize("name,nu", [("gaussian", None), ("uniform", None), ("student_t", 5.0)])
def test_unit_variance(name, nu):
    m = InnovationModel(name, nu=nu)
    x = draw_lattice(m, generator(MASTER_SEED, 11), (10**6,))
    assert abs(x.mean()) < 0.005
    assert x.var() == pytest.approx(1.0, abs=0.01)


def test_student_t_kurtosis():
    # kurtosis of unit-variance t(5) is 3 + 6/(nu-4) = 9
    m = InnovationModel("student_t", nu=5.0)
    x = draw_lattice(m, generator(MASTER_SEED, 7), (10**6,))
    assert stats.kurtosis(x, fisher=False) == pytest.approx(9.0, abs=1.5)


def test_rejects_infinite_variance_student():
    with pytest.raises(ValueError):
        InnovationModel("student_t", nu=2.0)


def test_uniform_density_not_certified_lipschitz():
    assert not InnovationModel("uniform").lipschitz_density
    assert InnovationModel("gaussian").lipschitz_density


def test_moment_orders():
    assert InnovationModel("gaussian").max_moment_order == math.inf
    assert InnovationModel("student_t", nu=4.5).max_moment_order == 4.5


# 64-bit masters and streams, and replicates on both sides of 2^32, where a
# replicate index takes a second 32-bit word of entropy
MASTERS = [0, 1, MASTER_SEED, 2**32 - 1, 2**32, 2**64 - 1]
STREAMS = [0, 100, 403, 2**32]
REPLICATES = [0, 1, 1499, 2**32 - 1, 2**32, 2**40]
LAWS = [InnovationModel("gaussian"), InnovationModel("uniform"), InnovationModel("student_t", nu=5.0)]


def _seed_sequence_key(master, stream, replicate):
    return SeedSequence((master, stream, replicate)).generate_state(2, np.uint64)


def _state(bit_generator):
    """Every field of a Philox state, as plain tuples."""
    s = bit_generator.state
    return (tuple(s["state"]["counter"]), tuple(s["state"]["key"]), tuple(s["buffer"]),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


class TestPhiloxKeys:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("master", MASTERS)
    def test_keys_equal_seed_sequence(self, master, stream):
        keys = philox_keys(master, stream, REPLICATES)
        assert keys.dtype == np.uint64 and keys.shape == (len(REPLICATES), 2)
        for key, r in zip(keys, REPLICATES):
            assert np.array_equal(key, _seed_sequence_key(master, stream, r))

    @pytest.mark.parametrize("master,stream", [(MASTER_SEED, 403), (2**64 - 1, 2**32)])
    def test_a_chunk_across_two_word_replicates(self, master, stream):
        # the entropy grows by a word at r = 2^32; with a 64-bit master and
        # stream that word lies past the four-word pool
        replicates = range(2**32 - 3, 2**32 + 3)
        keys = philox_keys(master, stream, replicates)
        assert [tuple(k) for k in keys] == [tuple(_seed_sequence_key(master, stream, r)) for r in replicates]

    @pytest.mark.parametrize("replicates", [range(KEY_CHUNK - 2, 2 * KEY_CHUNK + 3),
                                            range(2**32 - KEY_CHUNK - 2, 2**32 + 3)],
                             ids=["across_a_chunk_edge", "two_word_replicates_across_a_chunk_edge"])
    def test_seeds_hash_in_chunks_the_keys_of_one_pass(self, replicates):
        seeds = Seeds(MASTER_SEED, 403, replicates)
        assert len(replicates) > KEY_CHUNK and seeds.keys.dtype == np.uint64
        assert np.array_equal(seeds.keys, philox_keys(MASTER_SEED, 403, replicates))

    def test_seeds_peak_within_what_the_plan_counts(self):
        # 16 bytes of keys a replicate, and one chunk hashing at a time: 2.08 MB at 10^5, 11.6 MB in one pass
        R = 100_000
        Seeds(MASTER_SEED, 403, range(10))  # imports and caches, untraced
        tracemalloc.start()
        try:
            seeds = Seeds(MASTER_SEED, 403, range(R))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seeds.keys.nbytes == 16 * R and peak <= result_bytes(R, 0) < 21 * R

    def test_out_of_range_seeds_rejected(self):
        with pytest.raises(ValueError):
            Seeds(1, 2**64, [0])
        with pytest.raises(ValueError):
            Seeds(2**64, 0, [0])
        with pytest.raises(OverflowError):
            Seeds(1, 0, [-1])


class TestRekeyedGenerator:
    def test_state_equals_a_fresh_generator(self):
        seeds = Seeds(MASTER_SEED, 7, [3, 4])
        used = seeds[0]
        used.standard_normal(5)
        used.random(dtype=np.float32)  # leaves half a buffered 64-bit word
        assert _state(used.bit_generator) != _state(Generator(Philox(SeedSequence((MASTER_SEED, 7, 3)))).bit_generator)
        fresh = Generator(Philox(SeedSequence((MASTER_SEED, 7, 4))))
        assert _state(seeds[1].bit_generator) == _state(fresh.bit_generator)

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.name)
    def test_draws_after_a_used_replicate_equal_a_fresh_generator(self, law):
        seeds = Seeds(MASTER_SEED, 5, range(4))
        for r, rng in enumerate(seeds):
            got = draw_lattice(law, rng, (7, 3))
            rng.random(dtype=np.float32)  # buffered state for the next replicate to discard
            want = draw_lattice(law, Generator(Philox(SeedSequence((MASTER_SEED, 5, r)))), (7, 3))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_slice_keys_its_own_replicates(self):
        seeds = Seeds(MASTER_SEED, 2, range(10))
        part = seeds[3:6]
        assert len(part) == 3 and np.array_equal(part.keys, seeds.keys[3:6])
        for r, rng in zip(range(3, 6), part):
            want = Generator(Philox(SeedSequence((MASTER_SEED, 2, r)))).standard_normal(4)
            assert np.array_equal(rng.standard_normal(4), want)

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.name)
    def test_a_copy_keys_the_same_replicates_with_a_generator_of_its_own(self, law):
        seeds = Seeds(MASTER_SEED, 9, range(6))
        twin = seeds.copy()
        assert twin.keys is seeds.keys and twin[0] is not seeds[0]
        # interleaved on one thread as two threads would use them: neither disturbs the other
        for r in (5, 1, 3):
            mine, theirs = seeds[r - 1 : r + 1][1], twin[r]
            got = draw_lattice(law, mine, (4, 5)), draw_lattice(law, theirs, (4, 5))
            want = draw_lattice(law, Generator(Philox(SeedSequence((MASTER_SEED, 9, r)))), (4, 5))
            assert all(np.array_equal(g.view(np.int64), want.view(np.int64)) for g in got)
