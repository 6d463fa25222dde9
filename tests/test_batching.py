"""The batched replicate engine gives the same bits as one replicate at a time.

Reports must not depend on the batch size or the worker count, which rests
on numpy computing a batched reduction or FFT row by row exactly as it
computes one row; the pins below check that on the installed version, which
the `oldest` CI job makes the oldest numpy supported.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import threading
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fieldkde.clt as clt
from fieldkde import (
    BandwidthSchedule,
    CoefficientModel,
    ExperimentConfig,
    InnovationModel,
    SeedSpec,
    Seeds,
    generate_coupled_fields,
    kernel_by_name,
    lattice_convolve,
    plan_truncation,
)
from fieldkde.cli import main
from fieldkde.coefficients import coeff_box
from fieldkde.field import convolution_method, coupled_spectra, estimate_field_bytes
from fieldkde.fourier import irfftn, next_fast_len, rfftn
from fieldkde.innovations import draw_lattice

from conftest import planned

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
REPLICATES = 17  # a multiple of neither forced batch size, and split unevenly by 2 workers

# subcommand, config, overrides: an FFT path at d=2, a direct path with m == M,
# and the two experiments that reduce rectangles and squared gaps
RUNS = {
    "clt-run": ("power_decay_d2.json", ["clt.n_grid=[16,24]", f"clt.replicates={REPLICATES}"]),
    "blocks": ("blocks_d1.json", ["blocks.n_grid=[64,128]", f"blocks.replicates={REPLICATES}"]),
    "moment-check": (
        "blocks_d1.json",
        ["moment_check.n_grid=[128]", f"moment_check.replicates={REPLICATES}",
         "moment_check.rectangles=[4,16,64]"],
    ),
    "fixed-m-gap": (
        "geometric_truncation_gap.json", ["gap.n_grid=[128,256]", f"gap.replicates={REPLICATES}"]
    ),
}


def _cli(out: Path, subcommand: str, config: str, sets, threads: int = 1):
    """(exit code, {file name: bytes}) of one CLI run, manifest left out."""
    argv = [subcommand, "--config", str(CONFIGS / config), "--threads", str(threads), "--out", str(out)]
    for assignment in sets:
        argv += ["--set", assignment]
    code = main(argv)
    return code, {p.name: p.read_bytes() for p in sorted(out.glob("*/*")) if p.name != "manifest.json"}


def _outputs(tmp_path: Path, subcommand: str, threads: int, tag: str):
    config, sets = RUNS[subcommand]
    return _cli(tmp_path / tag, subcommand, config, sets, threads)


def _record_batches(monkeypatch):
    """Record the method, (m, M) and batch sizes the engine uses in this process."""
    seen = {"methods": set(), "mM": set(), "sizes": []}
    spectra, generate = clt.coupled_spectra, clt.generate_coupled_fields

    def recording_spectra(model, point):
        out = spectra(model, point)
        seen["methods"].add(out.method)
        seen["mM"].add((point.m, point.truncation.M))
        return out

    def recording_generate(*args, **kw):
        x, x_m = generate(*args, **kw)
        seen["sizes"].append(len(x))
        return x, x_m

    monkeypatch.setattr(clt, "coupled_spectra", recording_spectra)
    monkeypatch.setattr(clt, "generate_coupled_fields", recording_generate)
    return seen


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Each subcommand's outputs at one thread with the batch size the engine picks."""
    tmp = tmp_path_factory.mktemp("reference")
    return {sub: _outputs(tmp, sub, 1, sub) for sub in RUNS}


def _point(model, n, m, M, max_bytes=1 << 30, replicates=10**6):
    plan = plan_truncation(model, m=m, policy="fixed", M=M)
    return clt.plan_point(model, n, m, 0.5, plan, 0, replicates, max_bytes)


class TestBatchSize:
    def test_byte_budget(self, geometric_half):
        # blocks_d1 (M = m = 4), and power_decay_d2 at n = 256 with M = 24
        assert [_point(geometric_half, n, 4, 4).batch for n in (256, 1024, 4096)] == [506, 127, 31]
        assert _point(CoefficientModel(d=2, family="power_decay", q=4.0), 256, 10, 24).batch == 1
        assert _point(geometric_half, 256, 4, 4, replicates=17).batch == 17

    def test_field_byte_cap(self, geometric_half):
        # the spectra are held once per worker, and each replicate of a batch adds the same bytes
        method = convolution_method(geometric_half, 256, 4)
        spectra = estimate_field_bytes(1, 256, 4, 4, method, 0)
        per = estimate_field_bytes(1, 256, 4, 4, method, 1) - spectra
        assert _point(geometric_half, 256, 4, 4, spectra + 3 * per).batch == 3
        assert _point(geometric_half, 256, 4, 4, spectra + 4 * per - 1).batch == 3
        one = _point(geometric_half, 256, 4, 4, spectra + per - 1)
        assert one.batch == 1 and one.bytes == spectra + per
        with pytest.raises(clt.FieldSizeError, match="at n = 256"):
            clt.check_cap([one], spectra + per - 1)

    # fixed-m-gap on one grid point, so one figure decides the batch size
    GAP_ONE = ["gap.n_grid=[128]", f"gap.replicates={REPLICATES}"]

    def _gap_need(self):
        model = CoefficientModel(d=1, family="geometric", ratio=0.5)
        plan = plan_truncation(model, m=2, b=128**-0.5)
        return estimate_field_bytes(1, 128, plan.M, 2, convolution_method(model, 128, plan.M), 1)

    def test_cap_above_one_replicate_gives_batches_of_one(self, tmp_path, monkeypatch):
        config = RUNS["fixed-m-gap"][0]
        default = _cli(tmp_path / "default", "fixed-m-gap", config, self.GAP_ONE)
        seen = _record_batches(monkeypatch)
        cap = f"limits.max_field_bytes={self._gap_need() + 1}"
        capped = _cli(tmp_path / "capped", "fixed-m-gap", config, [*self.GAP_ONE, cap])
        assert seen["sizes"] == [1] * REPLICATES
        assert capped == default and "report.json" in default[1]

    def test_cap_below_one_replicate_exit_1(self, tmp_path, capsys):
        cap = f"limits.max_field_bytes={self._gap_need() - 1}"
        code, files = _cli(tmp_path, "fixed-m-gap", RUNS["fixed-m-gap"][0], [*self.GAP_ONE, cap])
        assert code == 1 and "cap" in capsys.readouterr().err
        assert "report.json" not in files


class TestBatchInvariance:
    @pytest.mark.parametrize("size", [1, 3, 7, None], ids=["B1", "B3", "B7", "whole_chunk"])
    @pytest.mark.parametrize("subcommand", list(RUNS))
    def test_reports_identical_for_any_batch_size_and_thread_count(
        self, tmp_path, monkeypatch, reference, subcommand, size
    ):
        forced = size or 10**9
        monkeypatch.setattr(clt, "_batch_size", lambda *args: forced)
        seen = _record_batches(monkeypatch)
        one = _outputs(tmp_path, subcommand, 1, "t1")
        two = _outputs(tmp_path, subcommand, 2, "t2")
        assert one[1] and one == reference[subcommand] and two == reference[subcommand]
        # a chunk splits into even batches: at B7 the one-thread chunk of 17 runs 6, 6 and 5
        k = -(-REPLICATES // min(forced, REPLICATES))
        assert max(seen["sizes"]) == -(-REPLICATES // k)
        if size == 7:
            assert {5, 6} <= set(seen["sizes"])
        if subcommand == "clt-run":
            assert seen["methods"] == {"fourier"}
        if subcommand == "blocks":
            assert seen["methods"] == {"direct"} and all(m == M for m, M in seen["mM"])

    def test_engine_picks_several_replicates_per_batch(self, tmp_path, monkeypatch):
        seen = _record_batches(monkeypatch)
        _outputs(tmp_path, "blocks", 1, "t1")
        assert seen["sizes"] == [REPLICATES, REPLICATES]


class TestWorkerPool:
    """A run's chunks run on threads of its process, and no thread outlives it."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Two CPUs, so that two threads run two chunks."""
        monkeypatch.setattr(clt.os, "cpu_count", lambda: 2)

    @pytest.mark.parametrize("failing", ["every_chunk", "pool_thread_chunk"])
    def test_no_thread_outlives_a_run_that_fails_partway(self, tmp_path, monkeypatch, two_cpus, capsys, failing):
        # a chunk fails at the third grid point, after two grid points ran: every chunk, or only
        # the one holding the replicates from R/2 on, which runs on the pool's thread
        chunk, threads = clt._replicate_chunk, threading.active_count()
        last_ok = 0 if failing == "every_chunk" else REPLICATES / 2

        def failing_at_the_third(config, point, reduce, work, start, stop):
            if point.n == 256 and stop > last_ok:
                raise ValueError("generation failed at n = 256")
            return chunk(config, point, reduce, work, start, stop)

        monkeypatch.setattr(clt, "_replicate_chunk", failing_at_the_third)
        code, files = _cli(tmp_path, "blocks", "blocks_d1.json",
                           ["blocks.n_grid=[64,128,256]", f"blocks.replicates={REPLICATES}"], threads=2)
        assert code == 1 and "generation failed at n = 256" in capsys.readouterr().err
        assert threading.active_count() == threads
        manifest = json.loads((tmp_path / "blocks" / "manifest.json").read_text())
        assert manifest["status"] == "error" and "report.json" not in files

    def test_results_equal_at_any_thread_count(self, monkeypatch, geometric_half):
        monkeypatch.setattr(clt.os, "cpu_count", lambda: 3)
        plan = plan_truncation(geometric_half, m=2, policy="fixed", M=4)
        config = ExperimentConfig(
            model=geometric_half, innovations=InnovationModel("gaussian"), kernel=kernel_by_name("gaussian"),
            bandwidth=BandwidthSchedule(d=1, gamma=0.5), n_grid=(16,), replicates=7,
        )

        reduce = partial(clt._squared_gap, kernel=config.kernel, b=0.5, point=0.0)
        point = clt.plan_point(geometric_half, 16, 2, 0.5, plan, 0, 7, 1 << 30)

        def run(threads):
            return clt._run_replicates(replace(config, threads=threads), point, reduce)

        (alone,) = run(1)
        assert all(np.array_equal(run(t)[0], alone) for t in (2, 2, 3))

    def test_threads_see_a_patch_made_before_main(self, tmp_path, monkeypatch, two_cpus):
        generate, threads = clt.generate_coupled_fields, set()

        def nan_fields(*args, **kw):
            threads.add(threading.get_ident())
            x, x_m = generate(*args, **kw)
            x.fill(np.nan)
            return x, x_m

        monkeypatch.setattr(clt, "generate_coupled_fields", nan_fields)
        code, files = _outputs(tmp_path, "clt-run", 2, "t2")
        report = json.loads(files["report.json"])
        assert code == 2 and len(threads - {threading.get_ident()}) > 0
        # every (n, x, replicate) row, those of the pool's thread too
        assert report["nonfinite"] == len(report["points"]) * REPLICATES

    @pytest.mark.parametrize("threads", [1, 2])
    def test_workspaces_allocated_on_the_calling_thread(self, tmp_path, monkeypatch, two_cpus, threads):
        # a pool thread's freed workspace would stay in that thread's malloc arena
        caller, built, chunks, started = threading.get_ident(), [], [], []
        chunk, start = clt._replicate_chunk, threading.Thread.start

        class RecordingWorkspace(clt.CoupledWorkspace):
            def __init__(self, *args):
                built.append(threading.get_ident())
                super().__init__(*args)

        def recording_chunk(*args):
            chunks.append(threading.get_ident())
            return chunk(*args)

        def recording_start(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(clt, "CoupledWorkspace", RecordingWorkspace)
        monkeypatch.setattr(clt, "_replicate_chunk", recording_chunk)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        code, files = _outputs(tmp_path, "blocks", threads, f"t{threads}")
        assert code in (0, 2) and "report.json" in files
        points = len(json.loads((tmp_path / f"t{threads}" / "blocks" / "manifest.json").read_text())["plan"]["points"])
        # one workspace per chunk, every one made on the calling thread
        assert built == [caller] * threads * points
        # one chunk per grid point on the calling thread, and at two threads one on another
        assert chunks.count(caller) == points and len(chunks) == threads * points
        assert len(started) == (threads - 1) * points


@st.composite
def _generation_case(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value={1: 40, 2: 12, 3: 5}[d]))
    M = draw(st.integers(min_value=1, max_value={1: 9, 2: 5, 3: 3}[d]))
    m = draw(st.integers(min_value=1, max_value=M))
    family = draw(st.sampled_from(["geometric", "power_decay"]))
    model = (
        CoefficientModel(d=d, family="geometric", ratio=0.6)
        if family == "geometric"
        else CoefficientModel(d=d, family="power_decay", q=4.0)
    )
    innov = draw(st.sampled_from([InnovationModel("gaussian"), InnovationModel("uniform"),
                                  InnovationModel("student_t", nu=5.0)]))
    method = draw(st.sampled_from(["direct", "fourier"]))
    replicates = draw(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=5))
    return model, innov, n, m, M, method, replicates


class TestBatchedGeneration:
    @given(_generation_case())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_one_at_a_time_and_coupling_holds(self, case):
        model, innov, n, m, M, method, replicates = case
        plan = plan_truncation(model, m=m, policy="fixed", M=M)
        spectra = coupled_spectra(model, planned(model, n, m, plan, method))
        seeds = [SeedSpec(11, 3, r) for r in replicates]
        x, x_m = generate_coupled_fields(innov, Seeds(11, 3, replicates), spectra)
        assert x.shape == x_m.shape == (len(seeds),) + (n,) * model.d
        a = coeff_box(model, M)
        tail = a.copy()
        tail[(slice(0, m),) * model.d] = 0.0
        for i, seed in enumerate(seeds):
            one_x, one_x_m = generate_coupled_fields(innov, Seeds.of(seed), spectra)
            assert np.array_equal(x[i], one_x[0]) and np.array_equal(x_m[i], one_x_m[0])
            # X - X_m is the residual, which is the lattice convolved with the weights off [0, m)^d
            eps = draw_lattice(innov, Seeds.of(seed)[0], (n + M - 1,) * model.d)
            residual = lattice_convolve(eps, tail, "direct")
            scale = max(float(np.max(np.abs(one_x))), 1.0)
            assert np.max(np.abs(one_x[0] - one_x_m[0] - residual)) <= 1e-12 * scale

    def test_m_equal_M_shares_the_field(self, geometric_half):
        plan = plan_truncation(geometric_half, m=4, policy="fixed", M=4)
        for method in ("direct", "fourier"):
            spectra = coupled_spectra(geometric_half, planned(geometric_half, 32, 4, plan, method))
            x, x_m = generate_coupled_fields(InnovationModel("gaussian"), Seeds(5, 0, range(3)), spectra)
            assert x_m is x


INNOVATIONS = [InnovationModel("gaussian"), InnovationModel("uniform"), InnovationModel("student_t", nu=5.0)]


class TestChunkWorkspace:
    """One workspace per chunk gives the bits of a fresh generation per seed."""

    @pytest.mark.parametrize("innov", INNOVATIONS, ids=lambda i: i.name)
    @pytest.mark.parametrize("method", ["fourier", "direct"])
    @pytest.mark.parametrize("d,n", [(1, 30), (2, 9), (3, 4)])
    @pytest.mark.parametrize("m,M", [(2, 3), (3, 3)], ids=["m<M", "m=M"])
    def test_chunk_equals_one_generation_per_seed(self, innov, method, d, n, m, M):
        model = CoefficientModel(d=d, family="power_decay", q=4.0)
        plan = plan_truncation(model, m=m, policy="fixed", M=M)
        config = ExperimentConfig(
            model=model, innovations=innov, kernel=kernel_by_name("gaussian"),
            bandwidth=BandwidthSchedule(d=d, gamma=0.5), n_grid=(n,), replicates=5, master_seed=11,
        )
        start, stop, stream = 3, 8, 4
        point = replace(planned(model, n, m, plan, method, replicates=5, stream=stream), batch=2)
        seen = []

        def fields(x, x_m, scratch):
            seen.append((x, x_m, x.copy(), x_m.copy()))
            for buf in scratch:  # buffers apart from the fields, which the next batch writes anew
                buf.fill(np.nan)
            return x, x_m

        spectra = coupled_spectra(model, point)
        batches = clt._replicate_chunk(config, point, fields, clt.CoupledWorkspace(spectra, 2), start, stop)
        assert [len(x) for x, _ in batches] == [2, 2, 1]  # batches of 2, 2 and 1
        # the next batch overwrites the fields of the last, so only the copies outlive it
        assert not np.array_equal(seen[0][0], seen[0][2])
        got_x, got_x_m = (np.concatenate(parts) for parts in zip(*batches))
        for i, r in enumerate(range(start, stop)):
            want_x, want_x_m = generate_coupled_fields(innov, Seeds(11, stream, [r]), spectra)
            assert np.array_equal(got_x[i].view(np.int64), want_x[0].view(np.int64))
            assert np.array_equal(got_x_m[i].view(np.int64), want_x_m[0].view(np.int64))
        assert all((x_m is x) == (m == M) for x, x_m, _, _ in seen)
        for (x, x_m), (_, _, x_copy, x_m_copy) in zip(batches, seen):
            assert x.base is None and np.array_equal(x.view(np.int64), x_copy.view(np.int64))
            assert np.array_equal(x_m.view(np.int64), x_m_copy.view(np.int64))


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="counts minor faults of glibc's heap"
)
def test_replicates_fault_in_no_fresh_pages(tmp_path):
    """clt-run at n = 256 faults in fewer than 100 pages per extra replicate.

    A fresh array per replicate, which glibc trims back to the system when
    it is freed, faults its pages in anew every time: about 1,000 a replicate.
    """
    src = Path(clt.__file__).resolve().parents[1]

    def minor_faults(replicates):
        argv = [sys.executable, "-m", "fieldkde", "clt-run", "--config", str(CONFIGS / "power_decay_d2.json"),
                "--set", "clt.n_grid=[256]", "--set", f"clt.replicates={replicates}", "--threads", "1",
                "--out", str(tmp_path / str(replicates))]
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run(argv, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    assert (minor_faults(24) - minor_faults(8)) / 16 < 100


class TestNumpyBatchPins:
    """Batched numpy calls equal per-row calls bit for bit, at the engine's sizes."""

    CASES = [(1, 259, 8), (1, 4099, 3), (1, 16384, 2), (2, 79, 4), (2, 47, 3), (3, 12, 3)]

    @pytest.mark.parametrize("d,side,batch", CASES)
    def test_row_sums_over_lattice_axes(self, d, side, batch):
        rng = np.random.default_rng(side)
        values = rng.standard_normal((batch,) + (side + 3,) * d)
        view = values[(slice(None),) + (slice(3, None),) * d]  # fields are views like this
        axes = tuple(range(1, d + 1))
        for arr in (values, view, view - 0.25):
            sums, means = arr.sum(axis=axes), np.mean(arr, axis=axes)
            for i in range(batch):
                assert sums[i] == arr[i].sum() and means[i] == np.mean(arr[i])

    @pytest.mark.parametrize("d,side,batch", CASES)
    def test_batched_rfftn_and_irfftn(self, d, side, batch):
        rng = np.random.default_rng(side + 1)
        lattices = rng.standard_normal((batch,) + (side,) * d)
        shape = (next_fast_len(side),) * d
        coeff = rfftn(rng.standard_normal((5,) * d), shape)
        spectra = rfftn(lattices, shape)
        inverse = irfftn(spectra * coeff, shape)
        for i in range(batch):
            one = rfftn(lattices[i], shape)
            assert np.array_equal(spectra[i], one)
            assert np.array_equal(inverse[i], irfftn(one * coeff, shape))

    @pytest.mark.parametrize("d,side,batch", CASES)
    def test_transforms_into_used_buffers(self, d, side, batch):
        rng = np.random.default_rng(side + 2)
        lattices = rng.standard_normal((batch,) + (side,) * d)
        shape = (next_fast_len(side),) * d
        coeff = rfftn(rng.standard_normal((5,) * d), shape)
        spectra = rfftn(lattices, shape)
        inverse = irfftn(spectra * coeff, shape)
        # buffers that hold another lattice's transforms, padding included
        used = rfftn(rng.standard_normal(lattices.shape), shape)
        out = irfftn(used * coeff, shape)
        assert rfftn(lattices, shape, used) is used
        assert np.array_equal(used.view(np.int64), spectra.view(np.int64))
        assert irfftn(np.multiply(used, coeff, out=used), shape, out) is out
        assert np.array_equal(out.view(np.int64), inverse.view(np.int64))

    @pytest.mark.parametrize("d,side,batch", CASES)
    def test_staged_rows_equal_padding_in_the_transform(self, d, side, batch):
        rng = np.random.default_rng(side + 3)
        lattices = rng.standard_normal((batch,) + (side,) * d)
        shape = (next_fast_len(side),) * d
        half = (batch,) + shape[:-1] + (shape[-1] // 2 + 1,)
        # a used product buffer, padding and the rows past the lattice's included
        stage = (rng.standard_normal(half) + 1j * rng.standard_normal(half)).view(float)
        used = rfftn(rng.standard_normal(lattices.shape), shape)
        assert rfftn(lattices, shape, used, stage) is used
        assert np.array_equal(used.view(np.int64), rfftn(lattices, shape).view(np.int64))

    @pytest.mark.parametrize("d,side,batch", CASES)
    def test_valid_rows_inverse_equals_the_full_one(self, d, side, batch):
        rng = np.random.default_rng(side + 4)
        shape = (next_fast_len(side),) * d
        c = 5
        coeff = rfftn(rng.standard_normal((c,) * d), shape)
        product = rfftn(rng.standard_normal((batch,) + (side,) * d), shape) * coeff
        valid = (...,) + (slice(c - 1, side),) * d
        full = irfftn(product.copy(), shape)
        out = np.full((batch,) + shape, np.nan)
        assert irfftn(product, shape, out, valid[1:-1]) is out
        assert np.array_equal(out[valid].view(np.int64), full[valid].view(np.int64))
        assert np.isnan(out[(...,) + (slice(c - 1),) + (slice(None),) * (d - 1)]).all() == (d > 1)
