"""Reproducible i.i.d. innovation lattices with known laws and moments.

Streams are keyed by a (master seed, stream, replicate) triple hashed into a
counter-based Philox generator, so replicate-parallel experiments reproduce
bit-identically regardless of scheduling order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# loaded at import, not inside the first draw: numpy imports np.random lazily
from numpy.random import Generator, Philox, SeedSequence

__all__ = [
    "InnovationModel",
    "SeedSpec",
    "spawn_rng",
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
            raise ValueError(f"unknown innovation model {self.name!r}")
        if self.nu is not None and self.name != "student_t":
            raise ValueError(f"innovations.nu belongs to student_t, not to {self.name}")
        if self.name == "student_t":
            if self.nu is None or self.nu <= 2.0:
                raise ValueError(
                    "student_t needs nu > 2 (finite variance); got nu="
                    f"{self.nu}"
                )

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

    def label(self) -> str:
        return self.name if self.nu is None else f"{self.name}(nu={self.nu})"


@dataclass(frozen=True)
class SeedSpec:
    """(master, stream, replicate) key; equal triples give bit-equal draws."""

    master: int
    stream: int = 0
    replicate: int = 0

    def __post_init__(self):
        if not (0 <= self.master < 1 << 64):
            raise ValueError("master seed must fit in 64 bits")
        if self.stream < 0 or self.replicate < 0:
            raise ValueError("stream and replicate indices must be >= 0")

    def to_config(self) -> dict:
        return {"master": self.master, "stream": self.stream, "replicate": self.replicate}


def spawn_rng(seed: SeedSpec) -> Generator:
    """Philox generator keyed by hashing the seed triple; no global state."""
    return Generator(Philox(SeedSequence((seed.master, seed.stream, seed.replicate))))


def _draw(model: InnovationModel, rng: Generator, shape, out=None) -> np.ndarray:
    """Draws of ``model`` of the given shape, into ``out`` when given, with the bits of a fresh array."""
    if model.name == "gaussian":
        return rng.standard_normal(shape, out=out)
    if model.name == "uniform":
        draw = rng.uniform(-UNIFORM_HALF_WIDTH, UNIFORM_HALF_WIDTH, shape)
        if out is None:
            return draw
        out[...] = draw
        return out
    scale = math.sqrt((model.nu - 2.0) / model.nu)
    return np.multiply(scale, rng.standard_t(model.nu, shape), out=out)


def draw_lattice(model: InnovationModel, seed: SeedSpec, shape, out=None) -> np.ndarray:
    """Innovation lattice of the given shape (row-major fill order), into ``out`` when given."""
    return _draw(model, spawn_rng(seed), tuple(shape), out)
