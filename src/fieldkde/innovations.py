"""Reproducible i.i.d. innovation lattices with known laws and moments.

Streams are keyed by a (master seed, stream, replicate) triple hashed into a
counter-based Philox generator, so replicate-parallel experiments reproduce
bit-identically regardless of scheduling order or worker count.  The hash is
numpy's ``SeedSequence`` entropy mix, computed for many replicates at once.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

# loaded at import, not inside the first draw: numpy imports np.random lazily
from numpy.random import Generator, Philox

from .coefficients import ParameterError

__all__ = [
    "InnovationModel",
    "Seeds",
    "philox_keys",
    "draw_lattice",
]

UNIFORM_HALF_WIDTH = math.sqrt(3.0)  # centered uniform with unit variance

_NAMES = ("gaussian", "uniform", "student_t")


@dataclass(frozen=True)
class InnovationModel:
    """Zero-mean unit-variance innovation law.

    ``student_t`` is the classical t rescaled by sqrt((nu-2)/nu) so its
    variance is one; it exists to exercise the alpha > 2 moment boundary
    (moments of order alpha are finite exactly for alpha < nu).  The uniform
    density is bounded but not Lipschitz, so density-regularity guarantees
    derived from a Lipschitz innovation density do not apply to it; oracles
    flag that as "not certified".
    """

    name: str
    nu: float | None = None

    def __post_init__(self):
        if self.name not in _NAMES:
            raise ParameterError("innovations.name", f"unknown innovation model {self.name!r}")
        if self.nu is not None and self.name != "student_t":
            raise ParameterError("innovations.nu", f"belongs to student_t, not to {self.name}")
        if self.name == "student_t" and (self.nu is None or self.nu <= 2.0):
            raise ParameterError("innovations.nu", f"student_t needs nu > 2 (finite variance), got {self.nu}")

    @property
    def lipschitz_density(self) -> bool:
        return self.name != "uniform"

    @property
    def max_moment_order(self) -> float:
        """Supremum of alpha with E|eps|^alpha finite."""
        return math.inf if self.name != "student_t" else self.nu

    @property
    def kurtosis(self) -> float | None:
        """E eps^4, or None where it is infinite."""
        if self.name == "student_t":
            return 3.0 + 6.0 / (self.nu - 4.0) if self.nu > 4.0 else None
        return 3.0 if self.name == "gaussian" else 9.0 / 5.0

    def to_config(self) -> dict:
        cfg = {"name": self.name}
        if self.nu is not None:
            cfg["nu"] = self.nu
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "InnovationModel":
        return cls(name=cfg["name"], nu=cfg.get("nu"))


# numpy's SeedSequence: its hash constants and the size of its entropy pool in 32-bit words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# Seeds hashes its keys this many replicates at a time into one (R, 2) array: at 10^6 replicates they peak at
# 16.5 bytes a replicate (tracemalloc; 116 in one pass) and hash in 98 ms (166 ms) on a 2-vCPU host
KEY_CHUNK = 4096


def _words(value: int) -> list:
    """The 32-bit words SeedSequence reads from a nonnegative integer, least significant first."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def philox_keys(master: int, stream: int, replicates) -> np.ndarray:
    """Philox keys of (master, stream, r) for each r of ``replicates``, as an (R, 2) uint64 array.

    Row i equals ``SeedSequence((master, stream, replicates[i])).generate_state(2, np.uint64)``:
    numpy's mix of the triple's 32-bit words into a four-word pool, run on
    arrays of replicates at once.  The hash constant of each step does not
    depend on the data, so every row runs in lockstep; a replicate of two
    words (r >= 2^32) only adds a step that the other rows skip.
    """
    r = np.asarray(replicates, dtype=np.uint64).reshape(-1)
    head = _words(master) + _words(stream)
    # word-major, zero-padded to the pool: SeedSequence hashes 0 for pool words past its entropy
    entropy = np.zeros((max(_POOL_WORDS, len(head) + 2), r.size), dtype=np.uint32)
    entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, np.newaxis]
    entropy[len(head)] = r & _MASK32
    entropy[len(head) + 1] = r >> 32
    count = len(head) + 1 + (entropy[len(head) + 1] > 0)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return out ^ (out >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, len(entropy)):
        for dst in range(_POOL_WORDS):
            pool[dst] = np.where(src < count, mix(pool[dst], hashmix(entropy[src])), pool[dst])
    # generate_state(2, np.uint64): the pool's four words hashed once more, read as little-endian pairs
    const, state = _INIT_B, []
    for word in pool:
        word = word ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word = word * np.uint32(const)
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


class Seeds:
    """The generators of replicates ``replicates`` of one (master, stream), keyed in one pass.

    ``seeds[i]`` is one reused ``Generator(Philox)`` reset to counter 0
    under replicate i's key with an empty buffer, which is the state a
    fresh ``Generator(Philox(SeedSequence((master, stream, r))))`` starts
    from, so its draws have the same bits.  It stays replicate i's until the
    next index; iterating gives each replicate's in turn.  The keys are
    hashed ``KEY_CHUNK`` replicates at a time into one array.  A slice shares
    the generator, and ``copy`` gives the same keys a generator of its own,
    for another thread.  The key is set from Python ints in a state dict of
    lists, which numpy reads faster than array elements.
    """

    def __init__(self, master: int, stream: int, replicates):
        if not (0 <= master < 1 << 64 and 0 <= stream < 1 << 64):
            raise ValueError("master seed and stream must be >= 0 and fit in 64 bits")
        self.keys = np.empty((len(replicates), 2), dtype=np.uint64)
        for start in range(0, len(replicates), KEY_CHUNK):
            self.keys[start : start + KEY_CHUNK] = philox_keys(master, stream, replicates[start : start + KEY_CHUNK])
        self._own_generator()

    def _own_generator(self):
        self._bits = Philox(key=0)
        self._generator = Generator(self._bits)
        # counter 0 and an empty buffer; only the key changes
        self._state = {**self._bits.state, "state": {"counter": [0] * 4, "key": [0, 0]}, "buffer": [0] * 4}

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            part = copy.copy(self)
            part.keys = self.keys[index]
            return part
        self._state["state"]["key"] = self.keys[index].tolist()
        self._bits.state = self._state
        return self._generator

    def copy(self) -> "Seeds":
        """The same keys with a generator of their own."""
        twin = copy.copy(self)
        twin._own_generator()
        return twin


def _draw(model: InnovationModel, rng: Generator, shape, out=None) -> np.ndarray:
    """Draws of ``model`` of the given shape, into ``out`` when given, with the bits of a fresh array."""
    if model.name == "gaussian":
        return rng.standard_normal(shape, out=out)
    if model.name == "uniform":  # in place, with the bits of Generator.uniform(-w, w): -w + 2w u
        out = rng.random(shape, out=out)
        out *= 2.0 * UNIFORM_HALF_WIDTH
        out -= UNIFORM_HALF_WIDTH
        return out
    scale = math.sqrt((model.nu - 2.0) / model.nu)
    # through one fresh array: standard_t takes no out
    return np.multiply(scale, rng.standard_t(model.nu, shape), out=out)


def draw_lattice(model: InnovationModel, rng: Generator, shape, out=None) -> np.ndarray:
    """Innovation lattice of the given shape (row-major fill order) from ``rng``, into ``out`` when given."""
    return _draw(model, rng, tuple(shape), out)
