"""Causal linear lattice fields, their m-truncations, and the shared residual.

A field realisation on [1, n]^d is the valid-region convolution of an
innovation lattice of side n + M - 1 with the coefficient cube [0, M)^d.
The m-truncated field reuses the *same* innovations with the kernel cut to
[0, m)^d, so X = X_m + residual holds exactly at every site, which is what
the truncation-gap experiments measure.  On the FFT path one forward
transform of the lattice serves both fields, against coefficient spectra
that ``coupled_spectra`` builds once per (n, m, M).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel, coeff_box, residual_sqrt_mass
from .fourier import irfftn, next_fast_len, rfftn
from .innovations import InnovationModel, Seeds, draw_lattice

__all__ = [
    "LatticeField",
    "CoupledSpectra",
    "CoupledWorkspace",
    "TruncationPlan",
    "FieldSizeError",
    "plan_truncation",
    "estimate_field_bytes",
    "coupled_spectra",
    "lattice_convolve",
    "generate_coupled_fields",
    "write_field_binary",
    "read_field_binary",
    "write_field_csv",
]

DEFAULT_MAX_FIELD_BYTES = 1 << 30
# fourier path cost ~ FFT_COST * prod(lattice) * log2(prod(lattice)); timed
# against the sliced direct path on this backend, implied constants 1.1-3.4
# across d in {1,2,3}, median ~2
FFT_COST = 2.0
_MAGIC = b"FKDE"
_VERSION = 1


class FieldSizeError(RuntimeError):
    """Requested lattice exceeds the configured memory cap."""


@dataclass(frozen=True)
class TruncationPlan:
    """Global truncation radius M with its residual mass B_M."""

    M: int
    B_M: float
    policy: str
    eta: float | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("truncation radius must be >= 1")

    def to_config(self) -> dict:
        return {"M": self.M, "B_M": self.B_M, "policy": self.policy, "eta": self.eta}


def plan_truncation(
    model: CoefficientModel,
    m: int,
    policy: str = "bandwidth_relative",
    b: float | None = None,
    eta: float = 0.01,
    M: int | None = None,
    max_radius: int = 1 << 20,
) -> TruncationPlan:
    """Choose the generation radius M.

    ``bandwidth_relative`` picks the smallest M with B_M <= eta * b (and
    M >= m), so the generation error sits an order below the truncation
    effects being measured; ``fixed`` takes M as given.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if policy == "fixed":
        if M is None:
            raise ValueError("fixed policy needs an explicit M")
        if M < m:
            raise ValueError("need m <= M")
        return TruncationPlan(M=M, B_M=residual_sqrt_mass(model, M), policy="fixed")
    if policy != "bandwidth_relative":
        raise ValueError(f"unknown truncation policy {policy!r}")
    if b is None or b <= 0:
        raise ValueError("bandwidth_relative policy needs the bandwidth b")
    target = eta * b
    side = model.support_side()
    if side is not None:
        M_star = side
    else:
        M_star = 1
        while residual_sqrt_mass(model, M_star) > target:
            M_star += max(1, M_star // 4)
            if M_star > max_radius:
                raise FieldSizeError(
                    f"no truncation radius below {max_radius} reaches B_M <= {target:g}"
                )
        # walk back to the minimal radius
        while M_star > 1 and residual_sqrt_mass(model, M_star - 1) <= target:
            M_star -= 1
    M_final = max(M_star, m)
    return TruncationPlan(
        M=M_final, B_M=residual_sqrt_mass(model, M_final), policy="bandwidth_relative", eta=eta
    )


def estimate_field_bytes(d: int, n: int, M: int) -> int:
    """Peak footprint of one coupled generation on the FFT path, per replicate.

    Counts what a ``CoupledWorkspace`` and its spectra hold: the innovation
    lattice of side n + M - 1, four half spectra of P^(d-1) * (P//2 + 1)
    complex values with P = next_fast_len(n + M - 1) (the two coefficient
    spectra, the lattice's and one product, which the inverse transform
    overwrites) and three real buffers of side P, two of them the inverse
    transforms the fields are views into.  The third is headroom for the
    reduction that reads the fields.  The padded copy of the lattice that
    the forward transform reads lives in the product, idle until the spectra
    are multiplied, and the reduction's two scratch arrays are the lattice's
    spectrum and the product, idle once the fields are transformed back;
    none of them adds to the count.  The direct path allocates less.
    """
    P = next_fast_len(n + M - 1)
    half = P ** (d - 1) * (P // 2 + 1)
    return 8 * ((n + M - 1) ** d + 3 * P**d) + 16 * 4 * half


def _auto_method(lattice_shape, coeffs: np.ndarray) -> str:
    """Direct when its multiply count beats FFT_COST * size * log2(size) of the lattice."""
    out_size = float(np.prod([s - c + 1 for s, c in zip(lattice_shape, coeffs.shape)]))
    direct_cost = int(np.count_nonzero(coeffs)) * out_size
    size = float(np.prod(lattice_shape))
    fft_cost = FFT_COST * size * max(math.log2(size), 1.0)
    return "direct" if direct_cost <= fft_cost else "fourier"


def _fourier_valid(
    spectrum, coeff_spectrum, shape, lattice_shape, coeff_shape, product=None, out=None
) -> np.ndarray:
    """Valid region of a lattice-coefficient convolution from their real spectra of ``shape``.

    A spectrum with a leading replicate axis is a stack.  The circular
    convolution of period P >= lattice side has no wrap-around in the valid
    region [c - 1, lattice side) of the linear one.  ``product`` and ``out``,
    when given, take the product of the spectra and the inverse transform.
    """
    valid = tuple(slice(c - 1, s) for c, s in zip(coeff_shape, lattice_shape))
    out = irfftn(np.multiply(spectrum, coeff_spectrum, out=product), shape, out, valid[:-1])
    return out[(...,) + valid]


def _direct_valid(lattice, coeffs, out, tap) -> np.ndarray:
    """Valid region of the convolution summed tap by tap into ``out``, each tap's product in ``tap``."""
    out.fill(0.0)
    for k in np.ndindex(coeffs.shape):
        c = coeffs[k]
        if c == 0.0:
            continue
        sl = tuple(
            slice(cs - 1 - kt, cs - 1 - kt + os)
            for kt, cs, os in zip(k, coeffs.shape, out.shape)
        )
        out += np.multiply(lattice[sl], c, out=tap)
    return out


def lattice_convolve(lattice: np.ndarray, coeffs: np.ndarray, method: str = "auto") -> np.ndarray:
    """Valid-region causal convolution: out[t] = sum_k coeffs[k] * lattice[t + M - 1 - k].

    ``fourier`` and ``direct`` agree to 1e-12 of the largest output value;
    ``auto`` picks by an operation-count estimate.
    """
    lattice = np.asarray(lattice, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if lattice.ndim != coeffs.ndim:
        raise ValueError("lattice and coefficients must share dimensionality")
    if any(c > s for c, s in zip(coeffs.shape, lattice.shape)):
        raise ValueError("coefficient cube larger than the lattice")
    out_shape = tuple(s - c + 1 for s, c in zip(lattice.shape, coeffs.shape))
    if method == "auto":
        method = _auto_method(lattice.shape, coeffs)
    if method == "fourier":
        shape = tuple(next_fast_len(s) for s in lattice.shape)
        return _fourier_valid(
            rfftn(lattice, shape), rfftn(coeffs, shape), shape, lattice.shape, coeffs.shape
        )
    if method != "direct":
        raise ValueError(f"unknown convolution method {method!r}")
    return _direct_valid(lattice, coeffs, np.empty(out_shape), np.empty(out_shape))


@dataclass
class LatticeField:
    """Realised values on [1, n]^d with full provenance."""

    d: int
    n: int
    values: np.ndarray
    provenance: dict

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n,) * self.d:
            raise ValueError("values must form an (n,)*d cube")


@dataclass(frozen=True)
class CoupledSpectra:
    """What every replicate at one (n, m, M) shares: the method and its coefficient data.

    ``fourier`` holds the real FFTs of a on [0, M)^d and of a on [0, m)^d
    (the same box masked), zero-padded to ``shape`` = (P,)^d; ``direct`` holds
    the two coefficient boxes.
    """

    n: int
    m: int
    M: int
    method: str
    full: np.ndarray
    truncated: np.ndarray
    shape: tuple = ()


class CoupledWorkspace:
    """Buffers for the coupled generation of up to ``size`` replicates at one ``CoupledSpectra``.

    Allocated once and reused by every batch, so a run of many batches
    faults in no fresh pages after its first: the stack of innovation
    lattices, which the draws fill slot by slot; on the FFT path the
    lattices' half spectrum, one product of spectra, whose real view first
    holds the lattices zero-padded for the forward transform, and one
    inverse transform per field, of which the fields are views and whose
    rows outside the valid region are left unwritten; on the direct path
    one array per field and one that takes each tap's product in turn.  The
    fields of a batch stay valid until the next batch is convolved.
    """

    def __init__(self, spectra: CoupledSpectra, size: int):
        self.spectra = spectra
        n, M, d = spectra.n, spectra.M, spectra.full.ndim
        self.lattices = np.empty((size,) + (n + M - 1,) * d)
        # when m == M the truncation is the field itself, and one buffer serves both
        count = 1 if spectra.m == M else 2
        if spectra.method == "fourier":
            P = spectra.shape
            half = (size,) + P[:-1] + (P[-1] // 2 + 1,)
            self.spectrum = np.empty(half, dtype=complex)
            self.product = np.empty(half, dtype=complex)
            self.fields = np.empty((count, size) + P)
        else:
            self.product = np.empty((size,) + (n,) * d)
            self.fields = np.empty((count, size) + (n,) * d)

    def convolve(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(X, X_m) on [1, n]^d of the first ``count`` lattices of the stack; X_m is X when m == M."""
        sp = self.spectra
        eps = self.lattices[:count]
        d = eps.ndim - 1
        product = self.product[:count]
        if sp.method == "direct":
            # a on [0, c)^d meets the lattice from offset M - c on every axis,
            # and a weight of side 1 on the replicate axis keeps lattices apart
            def conv(coeffs, out):
                cut = (slice(sp.M - coeffs.shape[0], None),) * d
                return _direct_valid(eps[(slice(None),) + cut], coeffs[np.newaxis], out, product)
        else:
            # the lattices are padded in the real view of the product, idle until
            # the spectra are multiplied; X_m convolves the same lattice spectrum
            # with the M-box masked to [0, m)^d
            spectrum = rfftn(eps, sp.shape, self.spectrum[:count], product.view(float))

            def conv(coeff, out):
                return _fourier_valid(spectrum, coeff, sp.shape, eps.shape[1:], (sp.M,) * d, product, out)

        x = conv(sp.full, self.fields[0, :count])
        return x, x if sp.m == sp.M else conv(sp.truncated, self.fields[1, :count])

    def scratch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Two arrays shaped like ``count`` fields, for a reduction to overwrite.

        They are buffers the fields no longer need, valid until the next
        batch is drawn: the lattices' spectrum on the FFT path and the
        lattice stack on the direct path, and the product.
        """
        shape = (count,) + (self.spectra.n,) * self.spectra.full.ndim
        idle = self.lattices if self.spectra.method == "direct" else self.spectrum
        return tuple(
            buf.reshape(-1).view(float)[: math.prod(shape)].reshape(shape) for buf in (idle, self.product)
        )


def coupled_spectra(
    model: CoefficientModel,
    n: int,
    m: int,
    plan: TruncationPlan,
    method: str = "auto",
    max_bytes: int = DEFAULT_MAX_FIELD_BYTES,
) -> CoupledSpectra:
    """Check the memory cap, pick the method and transform the coefficients once.

    ``auto`` decides as ``lattice_convolve`` does for the full field.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1 or m > plan.M:
        raise ValueError(f"need 1 <= m <= M (got m={m}, M={plan.M})")
    d, M = model.d, plan.M
    need = estimate_field_bytes(d, n, M)
    if need > max_bytes:
        raise FieldSizeError(
            f"coupled generation for d={d}, n={n}, M={M} needs about "
            f"{need} bytes (> cap {max_bytes}); shrink n or relax the plan"
        )
    a_full = coeff_box(model, M)
    a_trunc = a_full[(slice(0, m),) * d]
    if method == "auto":
        method = _auto_method((n + M - 1,) * d, a_full)
    if method == "direct":
        return CoupledSpectra(n, m, M, method, a_full, a_trunc)
    if method != "fourier":
        raise ValueError(f"unknown convolution method {method!r}")
    shape = (next_fast_len(n + M - 1),) * d
    return CoupledSpectra(n, m, M, method, rfftn(a_full, shape), rfftn(a_trunc, shape), shape)


def generate_coupled_fields(
    model: CoefficientModel,
    innovations: InnovationModel,
    n: int,
    m: int,
    plan: TruncationPlan,
    seeds: Seeds,
    spectra: CoupledSpectra,
    workspace: CoupledWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(X, X_m) from one innovation lattice per seed, each with a leading replicate axis.

    X_i = sum_{k in [0,M)^d} a_k eps_{i-k} needs innovations on a lattice of
    side n + M - 1; the truncation keeps only the weights on [0, m)^d of the
    same sum, so X = X_m + (X - X_m) holds exactly.  The lattices of the
    replicates of ``seeds`` are drawn into one stack and convolved together,
    with the same bits as one call per replicate.  ``spectra`` from ``coupled_spectra``
    for the same (n, m, plan) fixes the method; on the FFT path each lattice
    is transformed once and both fields come from one inverse FFT each.  X_m
    is X when m == M.

    Everything happens in ``workspace``, a fresh one sized for ``seeds``
    when none is given; the fields returned are views into it, which the
    next call with the same workspace overwrites.
    """
    if (spectra.n, spectra.m, spectra.M) != (n, m, plan.M):
        raise ValueError("spectra were built for another (n, m, M)")
    work = CoupledWorkspace(spectra, len(seeds)) if workspace is None else workspace
    if work.spectra is not spectra or len(seeds) > len(work.lattices):
        raise ValueError("workspace was built for other spectra or fewer replicates")
    for rng, slot in zip(seeds, work.lattices):
        draw_lattice(innovations, rng, slot.shape, slot)
    return work.convolve(len(seeds))


# ---------------------------------------------------------------------------
# export


def write_field_binary(field: LatticeField, path) -> None:
    """Header (magic, version, d, n, provenance JSON) + row-major float64 payload."""
    prov = json.dumps(field.provenance, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIQQ", _VERSION, field.d, field.n, len(prov)))
        fh.write(prov)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field_binary(path) -> LatticeField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a lattice field file")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError("field file header is truncated")
        version, d, n, plen = struct.unpack("<IIQQ", header)
        if version != _VERSION:
            raise ValueError(f"unsupported field file version {version}")
        prov = json.loads(fh.read(plen).decode())
        payload = fh.read()
    if len(payload) != 8 * n**d:
        raise ValueError(f"field payload holds {len(payload)} bytes, expected 8 * n^d = {8 * n**d}")
    data = np.frombuffer(payload, dtype="<f8").reshape((n,) * d)
    return LatticeField(d=int(d), n=int(n), values=data.copy(), provenance=prov)


def write_field_csv(field: LatticeField, path, max_side: int = 64) -> None:
    """Index + value rows; refused for sides beyond ``max_side``."""
    if field.n > max_side:
        raise ValueError(f"CSV export limited to side <= {max_side}")
    with open(path, "w", encoding="utf-8") as fh:
        cols = [f"i{t + 1}" for t in range(field.d)]
        fh.write(",".join(cols + ["value"]) + "\n")
        for idx in np.ndindex(field.values.shape):
            cells = [str(t + 1) for t in idx] + [format(field.values[idx], ".17g")]
            fh.write(",".join(cells) + "\n")
