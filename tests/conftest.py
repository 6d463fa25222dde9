import json
from dataclasses import replace

import numpy as np
import pytest

import fieldkde.innovations as innovations
from fieldkde import CoefficientModel, InnovationModel, Seeds, kernel_by_name
from fieldkde.field import DEFAULT_MAX_FIELD_BYTES

MASTER_SEED = 20260810


@pytest.fixture
def no_draw(monkeypatch):
    """Fails the test at the first innovation value drawn, so a refusal must come before any draw."""

    def refuse(*args, **kw):
        raise AssertionError("a value was drawn before the run was refused")

    monkeypatch.setattr(innovations, "_draw", refuse)


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


def refusal(capsys, out, sub) -> str:
    """The message of the refusal that ended the run of ``sub`` into ``out``: its one stderr line is
    ``error: <message>``, and its manifest, the only file it wrote, is at error with that message."""
    err = capsys.readouterr().err
    message = err.removeprefix("error: ").removesuffix("\n")
    assert err == f"error: {message}\n" and "\n" not in message, err
    run = out / sub.replace("-", "_")
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"] == message, manifest["error"]
    assert [p.name for p in run.iterdir()] == ["manifest.json"]
    return message


def generator(master, stream=0, replicate=0):
    """The generator of replicate ``replicate`` of (master, stream), keyed as the engine keys it."""
    return Seeds(master, stream, [replicate])[0]


def planned(model, n, m, plan, method=None, replicates=1, stream=0, max_bytes=DEFAULT_MAX_FIELD_BYTES):
    """``plan_point``'s GridPoint of ``replicates`` at (n, m) under ``plan``, moved to ``method`` when given,
    with the bytes of its batch under that method."""
    from fieldkde.clt import plan_point
    from fieldkde.field import estimate_field_bytes
    from fieldkde.fourier import next_fast_len

    point = plan_point(model, n, m, 0.5, plan, stream, replicates, max_bytes)
    if method is None:
        return point
    return replace(point, method=method, P=next_fast_len(n + plan.M - 1) if method == "fourier" else None,
                   bytes=estimate_field_bytes(model.d, n, plan.M, m, method, point.batch))


def coupled_pair(model, n, m, plan, seeds, innovations=InnovationModel("gaussian")):
    """(X, X_m) of the one replicate of ``seeds``, generated as a batch of one with its own spectra."""
    from fieldkde import coupled_spectra, generate_coupled_fields

    x, x_m = generate_coupled_fields(innovations, seeds, coupled_spectra(model, planned(model, n, m, plan)))
    return x[0], x_m[0]
