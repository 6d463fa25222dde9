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

from .coefficients import CoefficientModel, ParameterError, coeff_box, residual_sqrt_mass
from .fourier import irfftn, next_fast_len, rfftn
from .innovations import InnovationModel, Seeds, draw_lattice

__all__ = [
    "LatticeField",
    "CoupledSpectra",
    "CoupledWorkspace",
    "TruncationPlan",
    "plan_truncation",
    "estimate_field_bytes",
    "convolution_method",
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
# the largest generation radius plan_truncation searches, and the largest side a field CSV holds
MAX_RADIUS = 1 << 20
MAX_CSV_SIDE = 64
_MAGIC = b"FKDE"
_VERSION = 1


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


def plan_truncation(
    model: CoefficientModel,
    m: int,
    policy: str = "bandwidth_relative",
    b: float | None = None,
    eta: float = 0.01,
    M: int | None = None,
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
            raise ParameterError("truncation.M", "fixed policy needs an explicit M")
        if M < m:
            raise ParameterError("truncation.M", f"need m <= M (got m={m}, M={M})")
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
            if M_star > MAX_RADIUS:
                raise ParameterError(
                    "truncation.eta", f"no truncation radius below {MAX_RADIUS} reaches B_M <= eta * b = {target:g}"
                )
        # walk back to the minimal radius
        while M_star > 1 and residual_sqrt_mass(model, M_star - 1) <= target:
            M_star -= 1
    M_final = max(M_star, m)
    return TruncationPlan(
        M=M_final, B_M=residual_sqrt_mass(model, M_final), policy="bandwidth_relative", eta=eta
    )


def _layout(d: int, n: int, m: int, M: int, method: str, size: int) -> tuple[dict, dict, dict]:
    """What coupled generation of ``size`` replicates at (n, m, M) holds, as tables of name -> (shape, dtype).

    What ``coupled_spectra`` builds (on the direct path the [0, m)^d box is a
    view of the M-box); what a ``CoupledWorkspace`` allocates, in this order;
    and one more field a replicate, the headroom of the reduction that reads
    the fields, whose scratch arrays are buffers the fields no longer need.
    X_m is X when m = M: one spectrum and one field buffer serve both.
    """
    count, lattices = 1 if m == M else 2, ((size,) + (n + M - 1,) * d, float)
    if method == "direct":
        side, spectra = (n,) * d, {"full": ((M,) * d, float)}
        work = {"lattices": lattices, "product": ((size,) + side, float)}
    else:
        side = (next_fast_len(n + M - 1),) * d
        half = side[:-1] + (side[-1] // 2 + 1,)
        spectra = dict.fromkeys(("full", "truncated")[:count], (half, complex))
        work = {"lattices": lattices, "spectrum": ((size,) + half, complex), "product": ((size,) + half, complex)}
    work["fields"] = ((count, size) + side, float)
    return spectra, work, {"headroom": ((size,) + side, float)}


def _nbytes(*buffers) -> int:
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in buffers)


def estimate_field_bytes(d: int, n: int, M: int, m: int = 1, method: str = "fourier", size: int = 1) -> int:
    """Bytes that coupled generation of ``size`` replicates at (n, m, M) holds: every buffer of ``_layout``."""
    return sum(_nbytes(*table.values()) for table in _layout(d, n, m, M, method, size))


def convolution_method(model: CoefficientModel, n: int, M: int, max_bytes: int | None = None) -> str:
    """The path of coupled generation at (n, M), as ``lattice_convolve`` picks it for the full field.

    A lattice whose bytes exceed ``max_bytes`` fails the cap on either path,
    since ``_layout`` holds it on both: it is given the FFT path unweighed,
    and its coefficient box is not built.
    """
    if max_bytes is not None and _nbytes(_layout(model.d, n, M, M, "direct", 1)[1]["lattices"]) > max_bytes:
        return "fourier"
    return _auto_method((n + M - 1,) * model.d, coeff_box(model, M))


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
    when given, take the product of the spectra and the inverse transform;
    without ``product`` the spectrum takes it.  The product runs one
    replicate at a time: a multiply broadcast over the replicate axis goes
    through numpy's buffered loop, which allocates for small stacks.
    """
    valid = tuple(slice(c - 1, s) for c, s in zip(coeff_shape, lattice_shape))
    product = spectrum if product is None else product
    for k in np.ndindex(spectrum.shape[: spectrum.ndim - coeff_spectrum.ndim]):
        np.multiply(spectrum[k], coeff_spectrum, out=product[k])
    out = irfftn(product, shape, out, valid[:-1])
    return out[(...,) + valid]


def _direct_valid(lattice, coeffs, out, tap) -> np.ndarray:
    """Valid region of the convolution summed tap by tap into ``out``.

    The first nonzero tap's product goes into ``out`` itself and each later
    one's into ``tap`` before it is added, which gives the bits of a sum
    from 0.0 up to the sign of an exact zero; with no nonzero tap ``out`` is
    filled with 0.0.
    """
    taps = [k for k in np.ndindex(coeffs.shape) if coeffs[k] != 0.0]
    if not taps:
        out.fill(0.0)
    for i, k in enumerate(taps):
        sl = tuple(
            slice(cs - 1 - kt, cs - 1 - kt + os)
            for kt, cs, os in zip(k, coeffs.shape, out.shape)
        )
        if i:
            out += np.multiply(lattice[sl], coeffs[k], out=tap)
        else:
            np.multiply(lattice[sl], coeffs[k], out=out)
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
    (the same box masked), zero-padded to ``shape`` = (P,)^d, one array when
    m = M; ``direct`` holds the two coefficient boxes, the second a view of
    the first.
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

    The buffers of ``_layout``, allocated once and reused by every batch, so
    a run of many batches faults in no fresh pages after its first.  On the
    FFT path the product's real view first holds the lattices zero-padded for
    the forward transform, and the fields are views of the inverse
    transforms, whose rows outside the valid region are left unwritten; on
    the direct path the product takes each tap's product in turn.  The fields
    of a batch stay valid until the next batch is convolved.
    """

    def __init__(self, spectra: CoupledSpectra, size: int):
        self.spectra = spectra
        _, buffers, _ = _layout(spectra.full.ndim, spectra.n, spectra.m, spectra.M, spectra.method, size)
        for name, (shape, dtype) in buffers.items():
            setattr(self, name, np.empty(shape, dtype))

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


def coupled_spectra(model: CoefficientModel, point) -> CoupledSpectra:
    """Transform the coefficients of a planned grid point once, by the method and FFT side P it was planned with.

    ``point`` is a ``clt.GridPoint``: its planner fixed n, m, M, the method
    and P, and checked 1 <= m <= M.  When m = M the one spectrum serves both
    fields.
    """
    n, m, M, d = point.n, point.m, point.truncation.M, model.d
    a_full = coeff_box(model, M)
    a_trunc = a_full[(slice(0, m),) * d]
    if point.method == "direct":
        return CoupledSpectra(n, m, M, "direct", a_full, a_trunc)
    shape = (point.P,) * d
    full = rfftn(a_full, shape)
    return CoupledSpectra(n, m, M, "fourier", full, full if m == M else rfftn(a_trunc, shape), shape)


def generate_coupled_fields(
    innovations: InnovationModel,
    seeds: Seeds,
    spectra: CoupledSpectra,
    workspace: CoupledWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(X, X_m) from one innovation lattice per seed, each with a leading replicate axis.

    X_i = sum_{k in [0,M)^d} a_k eps_{i-k} needs innovations on a lattice of
    side n + M - 1; the truncation keeps only the weights on [0, m)^d of the
    same sum, so X = X_m + (X - X_m) holds exactly.  The lattices of the
    replicates of ``seeds`` are drawn into one stack and convolved together,
    with the same bits as one call per replicate.  ``spectra`` from
    ``coupled_spectra`` fixes (n, m, M) and the method; on the FFT path each
    lattice is transformed once and both fields come from one inverse FFT
    each.  X_m is X when m == M.

    Everything happens in ``workspace``, a fresh one sized for ``seeds``
    when none is given; the fields returned are views into it, which the
    next call with the same workspace overwrites.
    """
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


def write_field_csv(field: LatticeField, path) -> None:
    """Index + value rows; refused for sides beyond ``MAX_CSV_SIDE``."""
    if field.n > MAX_CSV_SIDE:
        raise ValueError(f"CSV export limited to side <= {MAX_CSV_SIDE}")
    with open(path, "w", encoding="utf-8") as fh:
        cols = [f"i{t + 1}" for t in range(field.d)]
        fh.write(",".join(cols + ["value"]) + "\n")
        for idx in np.ndindex(field.values.shape):
            cells = [str(t + 1) for t in idx] + [format(field.values[idx], ".17g")]
            fh.write(",".join(cells) + "\n")
