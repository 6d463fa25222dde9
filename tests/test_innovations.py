import math

import numpy as np
import pytest
from scipy import stats

from fieldkde import InnovationModel, SeedSpec, innovation_density, innovation_stream

from conftest import MASTER_SEED
from quadrature_reference import adaptive_simpson


def test_same_seed_bit_identical():
    m = InnovationModel("gaussian")
    a = innovation_stream(m, SeedSpec(MASTER_SEED, 3, 9), 1000)
    b = innovation_stream(m, SeedSpec(MASTER_SEED, 3, 9), 1000)
    assert np.array_equal(a, b)


def test_distinct_streams_uncorrelated():
    m = InnovationModel("gaussian")
    a = innovation_stream(m, SeedSpec(MASTER_SEED, 0, 0), 100_000)
    b = innovation_stream(m, SeedSpec(MASTER_SEED, 1, 0), 100_000)
    c = innovation_stream(m, SeedSpec(MASTER_SEED, 0, 1), 100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.02


@pytest.mark.parametrize("name,nu", [("gaussian", None), ("uniform", None), ("student_t", 5.0)])
def test_unit_variance(name, nu):
    m = InnovationModel(name, nu=nu)
    x = innovation_stream(m, SeedSpec(MASTER_SEED, 11), 10**6)
    assert abs(x.mean()) < 0.005
    assert x.var() == pytest.approx(1.0, abs=0.01)


def test_student_t_kurtosis():
    # kurtosis of unit-variance t(5) is 3 + 6/(nu-4) = 9
    m = InnovationModel("student_t", nu=5.0)
    x = innovation_stream(m, SeedSpec(MASTER_SEED, 7), 10**6)
    assert stats.kurtosis(x, fisher=False) == pytest.approx(9.0, abs=1.5)


def test_density_values():
    assert innovation_density(InnovationModel("gaussian"), 0.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), abs=1e-15
    )
    assert innovation_density(InnovationModel("uniform"), 0.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(3.0)), abs=1e-15
    )


@pytest.mark.parametrize("name,nu,lim", [("gaussian", None, 10), ("uniform", None, 2), ("student_t", 6.0, 200)])
def test_density_integrates_to_one(name, nu, lim):
    m = InnovationModel(name, nu=nu)
    val = adaptive_simpson(lambda x: float(innovation_density(m, x)), -lim, lim, 1e-10)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_density_nonnegative():
    xs = np.linspace(-8, 8, 2001)
    for m in (InnovationModel("gaussian"), InnovationModel("uniform"), InnovationModel("student_t", nu=3.0)):
        assert np.all(innovation_density(m, xs) >= 0.0)


def test_rejects_infinite_variance_student():
    with pytest.raises(ValueError):
        InnovationModel("student_t", nu=2.0)


def test_uniform_density_not_certified_lipschitz():
    assert not InnovationModel("uniform").lipschitz_density
    assert InnovationModel("gaussian").lipschitz_density


def test_moment_orders():
    assert InnovationModel("gaussian").max_moment_order == math.inf
    assert InnovationModel("student_t", nu=4.5).max_moment_order == 4.5


def test_count_validation():
    with pytest.raises(ValueError):
        innovation_stream(InnovationModel("gaussian"), SeedSpec(1), 0)
