import numpy as np
import pytest

from fieldkde import CoefficientModel, InnovationModel, Seeds, kernel_by_name

MASTER_SEED = 20260810


@pytest.fixture(scope="session")
def geometric_half():
    return CoefficientModel(d=1, family="geometric", ratio=0.5)


@pytest.fixture(scope="session")
def identity_weights():
    return CoefficientModel(d=1, family="finite_support", table=np.array([1.0]))


@pytest.fixture(scope="session")
def power_d2():
    return CoefficientModel(d=2, family="power_decay", q=4.0)


@pytest.fixture(scope="session")
def gaussian_innov():
    return InnovationModel("gaussian")


@pytest.fixture(scope="session")
def epanechnikov():
    return kernel_by_name("epanechnikov")


def generator(master, stream=0, replicate=0):
    """The generator of replicate ``replicate`` of (master, stream), keyed as the engine keys it."""
    return Seeds(master, stream, [replicate])[0]


def coupled_pair(model, n, m, plan, seed, innovations=InnovationModel("gaussian")):
    """(X, X_m) of one seed, generated as a batch of one with its own spectra."""
    from fieldkde import coupled_spectra, generate_coupled_fields

    spectra = coupled_spectra(model, n, m, plan)
    x, x_m = generate_coupled_fields(model, innovations, n, m, plan, Seeds.of(seed), spectra)
    return x[0], x_m[0]
