import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldkde import (
    CoefficientModel,
    InnovationModel,
    LatticeField,
    ParameterError,
    Seeds,
    generate_coupled_fields,
    lattice_convolve,
    plan_truncation,
)
from fieldkde.clt import check_cap
from fieldkde.field import (
    DEFAULT_MAX_FIELD_BYTES,
    _direct_valid,
    coupled_spectra,
    estimate_field_bytes,
    read_field_binary,
    write_field_binary,
    write_field_csv,
)
from fieldkde.coefficients import coeff_box
from fieldkde.innovations import draw_lattice

from conftest import MASTER_SEED, coupled_pair, generator, planned


def _coupled(model, n, m, M, seed=MASTER_SEED, stream=0):
    """(X, X_m) of one seed under a fixed plan of radius M."""
    plan = plan_truncation(model, m=m, policy="fixed", M=M)
    return coupled_pair(model, n, m, plan, Seeds(seed, stream, [0]))


def _field(values):
    """An exported field as gen-field writes it, with a stand-in provenance."""
    return LatticeField(values.ndim, values.shape[0], values, {"component": "full"})


class TestConvolution:
    def test_hand_example(self):
        out = lattice_convolve(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0]), "direct")
        assert out == pytest.approx([3.0, 5.0, 7.0])

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        lat = rng.standard_normal((9, 9))
        out = lattice_convolve(lat, np.array([[1.0]]), "auto")
        assert np.array_equal(out, lat)

    def test_fourier_matches_direct_2d(self):
        rng = np.random.default_rng(2)
        lat = rng.standard_normal((32, 32))
        coeffs = rng.standard_normal((8, 8))
        a = lattice_convolve(lat, coeffs, "direct")
        b = lattice_convolve(lat, coeffs, "fourier")
        assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(a))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_fourier_matches_direct_random_shapes(self, data):
        d = data.draw(st.integers(min_value=1, max_value=3))
        side = data.draw(st.integers(min_value=4, max_value=24 if d < 3 else 10))
        ms = data.draw(st.integers(min_value=1, max_value=side))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
        lat = rng.standard_normal((side,) * d)
        coeffs = rng.standard_normal((ms,) * d)
        a = lattice_convolve(lat, coeffs, "direct")
        b = lattice_convolve(lat, coeffs, "fourier")
        assert np.max(np.abs(a - b)) <= 1e-8 * max(np.max(np.abs(a)), 1e-12)

    @pytest.mark.parametrize(
        "coeffs",
        [np.array([0.5, 0.0, -2.0, 1.0]), np.array([[0.0, 3.0], [0.0, 0.25]]), np.array([1.0]),
         np.zeros((2, 3)), np.zeros(1)],
        ids=["d1", "d2_leading_zero", "one_tap", "all_zero_d2", "all_zero_one_tap"],
    )
    def test_direct_taps_equal_a_sum_from_zero(self, coeffs):
        # the first nonzero tap is written into the output, not added to a 0.0 fill; only the sign of an
        # exact zero may differ, which adding 0.0 undoes
        rng = np.random.default_rng(MASTER_SEED)
        lattice = rng.standard_normal((9,) * coeffs.ndim)
        lattice.flat[::3] = 0.0
        lattice.flat[1::7] = -0.0
        out_shape = tuple(s - c + 1 for s, c in zip(lattice.shape, coeffs.shape))
        reference = np.zeros(out_shape)
        for k in np.ndindex(coeffs.shape):
            if coeffs[k] != 0.0:
                sl = tuple(slice(c - 1 - t, c - 1 - t + o) for t, c, o in zip(k, coeffs.shape, out_shape))
                reference += lattice[sl] * coeffs[k]
        out = np.full(out_shape, np.nan)
        got = _direct_valid(lattice, coeffs, out, np.empty(out_shape))
        assert got is out
        assert np.array_equal((got + 0.0).view(np.int64), reference.view(np.int64))
        if not coeffs.any():
            assert np.array_equal(got.view(np.int64), np.zeros(out_shape).view(np.int64))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lattice_convolve(np.zeros((4, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            lattice_convolve(np.zeros(4), np.zeros(6))


class TestCoupledGeneration:
    def test_identity_weights_reproduce_innovations(self, identity_weights):
        x, x_m = _coupled(identity_weights, 50, 1, 1)
        eps = draw_lattice(InnovationModel("gaussian"), generator(MASTER_SEED, 0), (50,))
        assert np.array_equal(x, eps)
        assert np.max(np.abs(x - x_m)) == 0.0

    def test_coupling_identity_exact(self, geometric_half, power_d2):
        # X - X_m is the residual: the same innovations convolved with the weights off [0, m)^d
        for model, n, m, M in ((geometric_half, 300, 3, 32), (power_d2, 24, 2, 8)):
            x, x_m = _coupled(model, n, m, M)
            tail = coeff_box(model, M)
            tail[(slice(0, m),) * model.d] = 0.0
            eps = draw_lattice(InnovationModel("gaussian"), generator(MASTER_SEED, 0), (n + M - 1,) * model.d)
            residual = lattice_convolve(eps, tail, "direct")
            assert np.max(np.abs(x - x_m - residual)) <= 1e-12 * np.max(np.abs(x))

    def test_geometric_moments(self, geometric_half):
        x, _ = _coupled(geometric_half, 100_000, 1, 64, stream=1)
        assert x.var() == pytest.approx(4.0 / 3.0, rel=0.02)
        lag1 = np.mean((x[:-1] - x.mean()) * (x[1:] - x.mean()))
        assert lag1 == pytest.approx(2.0 / 3.0, rel=0.03)

    def test_truncated_field_variance(self, geometric_half):
        x, x_m = _coupled(geometric_half, 100_000, 2, 64, stream=2)
        # truncated variance = 1 + 1/4
        assert x_m.var() == pytest.approx(1.25, rel=0.02)
        # residual variance = B_2^2 = 4^-2 * 4/3
        assert (x - x_m).var() == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_identical_inputs_identical_output(self, geometric_half):
        a = _coupled(geometric_half, 64, 2, 16, stream=7)
        b = _coupled(geometric_half, 64, 2, 16, stream=7)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_rejects_m_above_M(self, geometric_half):
        plan = plan_truncation(geometric_half, m=2, policy="fixed", M=8)
        with pytest.raises(ValueError):
            planned(geometric_half, 16, 9, plan)

    def test_memory_cap_message_carries_estimate(self, power_d2):
        plan = plan_truncation(power_d2, m=2, policy="fixed", M=64)
        with pytest.raises(ParameterError) as err:
            check_cap([planned(power_d2, 40_000, 2, plan)], DEFAULT_MAX_FIELD_BYTES)
        assert str(estimate_field_bytes(2, 40_000, 64)) in str(err.value)

    def test_cap_just_below_estimate_raises(self, power_d2):
        plan = plan_truncation(power_d2, m=2, policy="fixed", M=9)
        need = estimate_field_bytes(2, 30, 9)
        with pytest.raises(ParameterError):
            check_cap([planned(power_d2, 30, 2, plan, max_bytes=need - 1)], need - 1)
        check_cap([planned(power_d2, 30, 2, plan, max_bytes=need)], need)

    def test_estimate_bounds_traced_peak(self, power_d2):
        import tracemalloc

        plan = plan_truncation(power_d2, m=6, policy="fixed", M=15)
        tracemalloc.start()
        try:
            coupled_pair(power_d2, 64, 6, plan, Seeds(1, 0, [0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate_field_bytes(2, 64, 15)

    @pytest.mark.parametrize("n,batch", [(64, 1), (64, 21), (128, 3)])
    def test_generation_into_a_used_workspace_allocates_little(self, power_d2, n, batch):
        import tracemalloc

        from fieldkde.field import CoupledWorkspace

        plan = plan_truncation(power_d2, m=6, policy="fixed", M=15)
        spectra = coupled_spectra(power_d2, planned(power_d2, n, 6, plan))
        assert spectra.method == "fourier"
        work = CoupledWorkspace(spectra, batch)
        seeds = Seeds(MASTER_SEED, 0, range(batch))
        generate_coupled_fields(InnovationModel("gaussian"), seeds, spectra, work)
        tracemalloc.start()
        try:
            generate_coupled_fields(InnovationModel("gaussian"), seeds, spectra, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the lattices are padded in the product buffer and the fields scaled in
        # place: nothing the size of a lattice or a field is allocated
        assert peak < 8 * 1024

    def test_stationarity_across_subboxes(self, geometric_half):
        x, _ = _coupled(geometric_half, 80_000, 1, 48, stream=3)
        quarters = np.array_split(x, 4)
        vs = [q.var() for q in quarters]
        se = math.sqrt(2.0 / len(quarters[0])) * np.mean(vs) * math.sqrt(2)
        for v in vs[1:]:
            assert abs(v - vs[0]) < 4 * se

    def test_gaussian_site_moments(self, geometric_half):
        from scipy import stats

        x, _ = _coupled(geometric_half, 100_000, 1, 48, stream=4)
        z = x / x.std()
        n = z.size
        assert abs(stats.skew(z)) < 4.0 / math.sqrt(n)
        assert abs(stats.kurtosis(z, fisher=True)) < 8.0 / math.sqrt(n)


def _lag_products(values, h):
    """Centered products x_i x_{i+h} of a d=1 field: the lag-h autocovariance sample."""
    c = values - values.mean()
    return c[: c.size - h] * c[h:]


class TestDiagnostics:
    def test_iid_lag_is_noise(self, identity_weights):
        x, _ = _coupled(identity_weights, 40_000, 1, 1, stream=5)
        prods = _lag_products(x, 1)
        assert abs(prods.mean()) < 4.0 / math.sqrt(prods.size)

    def test_geometric_lags_match_weight_sums(self, geometric_half):
        # sum_k 2^-k 2^-(k+h) = (4/3) 2^-h: 4/3 at lag 0 and 1/3 at lag 2
        x, _ = _coupled(geometric_half, 100_000, 1, 64, stream=6)
        for h, cov in ((0, 4.0 / 3.0), (2, 1.0 / 3.0)):
            prods = _lag_products(x, h)
            se = prods.std() / math.sqrt(prods.size)
            assert abs(prods.mean() - cov) < 4.0 * se


class TestPlans:
    def test_bandwidth_relative_minimal(self, geometric_half):
        plan = plan_truncation(geometric_half, m=3, policy="bandwidth_relative", b=0.05, eta=0.01)
        target = 0.01 * 0.05
        from fieldkde.coefficients import residual_sqrt_mass

        assert plan.B_M <= target
        assert residual_sqrt_mass(geometric_half, plan.M - 1) > target

    def test_plan_respects_m(self, geometric_half):
        plan = plan_truncation(geometric_half, m=40, policy="bandwidth_relative", b=0.5, eta=0.5)
        assert plan.M >= 40

    def test_finite_support_plan(self, identity_weights):
        plan = plan_truncation(identity_weights, m=1, policy="bandwidth_relative", b=0.01)
        assert plan.M == 1 and plan.B_M == 0.0


class TestExport:
    def test_binary_round_trip(self, geometric_half, tmp_path):
        full = _field(_coupled(geometric_half, 40, 2, 16)[0])
        path = tmp_path / "field.bin"
        write_field_binary(full, path)
        back = read_field_binary(path)
        assert back.d == full.d and back.n == full.n
        assert np.array_equal(back.values, full.values)
        assert back.provenance == full.provenance

    def test_binary_payload_length_checked(self, geometric_half, tmp_path):
        full = _field(_coupled(geometric_half, 40, 2, 16)[0])
        path = tmp_path / "field.bin"
        write_field_binary(full, path)
        blob = path.read_bytes()
        for bad in (blob[:-8], blob + b"\0"):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="payload"):
                read_field_binary(path)

    @given(
        d=st.integers(1, 3),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        provenance=st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_binary_round_trip_and_truncation(self, d, n, seed, provenance):
        field = LatticeField(
            d=d, n=n, values=np.random.default_rng(seed).standard_normal((n,) * d),
            provenance=provenance,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "field.bin"
            write_field_binary(field, path)
            back = read_field_binary(path)
            assert (back.d, back.n, back.provenance) == (d, n, provenance)
            assert np.array_equal(back.values, field.values)
            blob = path.read_bytes()
            for cut in range(len(blob)):
                path.write_bytes(blob[:cut])
                with pytest.raises(ValueError):
                    read_field_binary(path)

    def test_csv_export_small_only(self, power_d2, tmp_path):
        full = _field(_coupled(power_d2, 8, 1, 4)[0])
        p = tmp_path / "f.csv"
        write_field_csv(full, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "i1,i2,value"
        assert len(lines) == 1 + 64
        big = _field(_coupled(power_d2, 65, 1, 4)[0])
        with pytest.raises(ValueError):
            write_field_csv(big, tmp_path / "g.csv")


class TestSharedSpectrum:
    # n + M - 1 is 67, 37 and 17, none of them a fast FFT length, so the
    # padded side P exceeds n + M - 1
    @pytest.mark.parametrize("d, n, M", [(1, 60, 8), (2, 30, 8), (3, 12, 6)])
    @pytest.mark.parametrize("full_m", [False, True])
    def test_fourier_fields_match_direct(self, d, n, M, full_m):
        model = CoefficientModel(d=d, family="power_decay", q=4.0)
        m = M if full_m else 1
        plan = plan_truncation(model, m=m, policy="fixed", M=M)
        spectra = coupled_spectra(model, planned(model, n, m, plan, "fourier"))
        assert spectra.shape[0] > n + M - 1
        seeds = Seeds(MASTER_SEED, 11, [0])
        x_got, x_m_got = generate_coupled_fields(InnovationModel("gaussian"), seeds, spectra)
        eps = draw_lattice(InnovationModel("gaussian"), seeds[0], (n + M - 1,) * d)
        a = coeff_box(model, M)
        x = lattice_convolve(eps, a, "direct")
        x_m = lattice_convolve(eps[(slice(M - m, None),) * d], a[(slice(0, m),) * d], "direct")
        for got, want in ((x_got[0], x), (x_m_got[0], x_m)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_direct_path_is_lattice_convolve(self, geometric_half):
        plan = plan_truncation(geometric_half, m=2, policy="fixed", M=5)
        spectra = coupled_spectra(geometric_half, planned(geometric_half, 40, 2, plan, "direct"))
        seeds = Seeds(MASTER_SEED, 12, [0])
        x, _ = generate_coupled_fields(InnovationModel("gaussian"), seeds, spectra)
        eps = draw_lattice(InnovationModel("gaussian"), seeds[0], (44,))
        assert np.array_equal(x[0], lattice_convolve(eps, coeff_box(geometric_half, 5), "direct"))

    def test_auto_keeps_direct_for_short_d1_kernels(self, geometric_half):
        plan = plan_truncation(geometric_half, m=4, policy="fixed", M=4)
        assert planned(geometric_half, 4096, 4, plan).method == "direct"
