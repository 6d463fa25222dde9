import math

import numpy as np
import pytest
from scipy import stats

from fieldkde import InnovationModel, SeedSpec
from fieldkde.innovations import draw_lattice

from conftest import MASTER_SEED


def test_same_seed_bit_identical():
    m = InnovationModel("gaussian")
    a = draw_lattice(m, SeedSpec(MASTER_SEED, 3, 9), (1000,))
    b = draw_lattice(m, SeedSpec(MASTER_SEED, 3, 9), (1000,))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name,nu", [("gaussian", None), ("uniform", None), ("student_t", 5.0)])
def test_draw_into_a_slot_keeps_the_bits(name, nu):
    m = InnovationModel(name, nu)
    fresh = draw_lattice(m, SeedSpec(MASTER_SEED, 2, 7), (6, 5))
    stack = np.full((3, 6, 5), np.nan)
    slot = stack[1]
    assert draw_lattice(m, SeedSpec(MASTER_SEED, 2, 7), (6, 5), slot) is slot
    assert np.array_equal(slot.view(np.int64), fresh.view(np.int64))
    assert np.isnan(stack[[0, 2]]).all()


def test_distinct_streams_uncorrelated():
    m = InnovationModel("gaussian")
    a = draw_lattice(m, SeedSpec(MASTER_SEED, 0, 0), (100_000,))
    b = draw_lattice(m, SeedSpec(MASTER_SEED, 1, 0), (100_000,))
    c = draw_lattice(m, SeedSpec(MASTER_SEED, 0, 1), (100_000,))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.02


@pytest.mark.parametrize("name,nu", [("gaussian", None), ("uniform", None), ("student_t", 5.0)])
def test_unit_variance(name, nu):
    m = InnovationModel(name, nu=nu)
    x = draw_lattice(m, SeedSpec(MASTER_SEED, 11), (10**6,))
    assert abs(x.mean()) < 0.005
    assert x.var() == pytest.approx(1.0, abs=0.01)


def test_student_t_kurtosis():
    # kurtosis of unit-variance t(5) is 3 + 6/(nu-4) = 9
    m = InnovationModel("student_t", nu=5.0)
    x = draw_lattice(m, SeedSpec(MASTER_SEED, 7), (10**6,))
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
