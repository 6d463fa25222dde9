import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldkde import (
    CoefficientModel,
    FieldSizeError,
    InnovationModel,
    SeedSpec,
    field_moment_diagnostics,
    generate_coupled_fields,
    lattice_convolve,
    plan_truncation,
)
from fieldkde.field import (
    estimate_field_bytes,
    read_field_binary,
    write_field_binary,
    write_field_csv,
)
from fieldkde.innovations import draw_lattice

from conftest import MASTER_SEED


def _coupled(model, n, m, M, seed=MASTER_SEED, stream=0):
    plan = plan_truncation(model, m=m, policy="fixed", M=M)
    return generate_coupled_fields(
        model, InnovationModel("gaussian"), n, m, plan, SeedSpec(seed, stream)
    )


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

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lattice_convolve(np.zeros((4, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            lattice_convolve(np.zeros(4), np.zeros(6))


class TestCoupledGeneration:
    def test_identity_weights_reproduce_innovations(self, identity_weights):
        cf = _coupled(identity_weights, 50, 1, 1)
        eps = draw_lattice(InnovationModel("gaussian"), SeedSpec(MASTER_SEED, 0), (50,))
        assert np.array_equal(cf.full.values, eps)
        assert np.max(np.abs(cf.residual.values)) == 0.0

    def test_coupling_identity_exact(self, geometric_half, power_d2):
        for model, n, m, M in ((geometric_half, 300, 3, 32), (power_d2, 24, 2, 8)):
            cf = _coupled(model, n, m, M)
            gap = np.abs(cf.full.values - cf.truncated.values - cf.residual.values)
            scale = np.max(np.abs(cf.full.values))
            assert np.max(gap) <= 1e-12 * scale

    def test_geometric_moments(self, geometric_half):
        cf = _coupled(geometric_half, 100_000, 1, 64, stream=1)
        x = cf.full.values
        assert x.var() == pytest.approx(4.0 / 3.0, rel=0.02)
        lag1 = np.mean((x[:-1] - x.mean()) * (x[1:] - x.mean()))
        assert lag1 == pytest.approx(2.0 / 3.0, rel=0.03)

    def test_truncated_field_variance(self, geometric_half):
        cf = _coupled(geometric_half, 100_000, 2, 64, stream=2)
        # truncated variance = 1 + 1/4
        assert cf.truncated.values.var() == pytest.approx(1.25, rel=0.02)
        # residual variance = B_2^2 = 4^-2 * 4/3
        assert cf.residual.values.var() == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_identical_inputs_identical_output(self, geometric_half):
        a = _coupled(geometric_half, 64, 2, 16, stream=7)
        b = _coupled(geometric_half, 64, 2, 16, stream=7)
        assert np.array_equal(a.full.values, b.full.values)
        assert np.array_equal(a.truncated.values, b.truncated.values)

    def test_rejects_m_above_M(self, geometric_half):
        plan = plan_truncation(geometric_half, m=2, policy="fixed", M=8)
        with pytest.raises(ValueError):
            generate_coupled_fields(
                geometric_half, InnovationModel("gaussian"), 16, 9, plan, SeedSpec(1)
            )

    def test_memory_cap_message_carries_estimate(self, power_d2):
        plan = plan_truncation(power_d2, m=2, policy="fixed", M=64)
        with pytest.raises(FieldSizeError) as err:
            generate_coupled_fields(
                power_d2, InnovationModel("gaussian"), 40_000, 2, plan, SeedSpec(1)
            )
        assert str(estimate_field_bytes(2, 40_000, 64)) in str(err.value)

    def test_stationarity_across_subboxes(self, geometric_half):
        cf = _coupled(geometric_half, 80_000, 1, 48, stream=3)
        x = cf.full.values
        quarters = np.array_split(x, 4)
        vs = [q.var() for q in quarters]
        se = math.sqrt(2.0 / len(quarters[0])) * np.mean(vs) * math.sqrt(2)
        for v in vs[1:]:
            assert abs(v - vs[0]) < 4 * se

    def test_gaussian_site_moments(self, geometric_half):
        from scipy import stats

        cf = _coupled(geometric_half, 100_000, 1, 48, stream=4)
        z = cf.full.values / cf.full.values.std()
        n = z.size
        assert abs(stats.skew(z)) < 4.0 / math.sqrt(n)
        assert abs(stats.kurtosis(z, fisher=True)) < 8.0 / math.sqrt(n)


class TestDiagnostics:
    def test_iid_lag_is_noise(self, identity_weights):
        cf = _coupled(identity_weights, 40_000, 1, 1, stream=5)
        rep = field_moment_diagnostics(cf.full, identity_weights, [(1,)])
        row = rep["autocovariance"][0]
        assert row["oracle"] == 0.0
        assert abs(row["sample"]) < 4.0 / math.sqrt(row["pairs"])

    def test_geometric_lags_match_weight_sums(self, geometric_half):
        cf = _coupled(geometric_half, 100_000, 1, 64, stream=6)
        rep = field_moment_diagnostics(cf.full, geometric_half, [(0,), (2,)])
        lag0, lag2 = rep["autocovariance"]
        assert lag0["oracle"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert lag2["oracle"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        for row in (lag0, lag2):
            assert abs(row["standardized"]) < 4.0

    def test_rejects_far_lags(self, identity_weights):
        cf = _coupled(identity_weights, 100, 1, 1)
        with pytest.raises(ValueError):
            field_moment_diagnostics(cf.full, identity_weights, [(80,)])


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
        cf = _coupled(geometric_half, 40, 2, 16)
        path = tmp_path / "field.bin"
        write_field_binary(cf.full, path)
        back = read_field_binary(path)
        assert back.d == cf.full.d and back.n == cf.full.n
        assert np.array_equal(back.values, cf.full.values)
        assert back.provenance == cf.full.provenance

    def test_binary_payload_length_checked(self, geometric_half, tmp_path):
        cf = _coupled(geometric_half, 40, 2, 16)
        path = tmp_path / "field.bin"
        write_field_binary(cf.full, path)
        blob = path.read_bytes()
        for bad in (blob[:-8], blob + b"\0"):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="payload"):
                read_field_binary(path)

    def test_csv_export_small_only(self, power_d2, tmp_path):
        cf = _coupled(power_d2, 8, 1, 4)
        p = tmp_path / "f.csv"
        write_field_csv(cf.full, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "i1,i2,value"
        assert len(lines) == 1 + 64
        big = _coupled(power_d2, 65, 1, 4)
        with pytest.raises(ValueError):
            write_field_csv(big.full, tmp_path / "g.csv")
