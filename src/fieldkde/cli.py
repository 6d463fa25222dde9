"""Config-driven command line entry point.

Subcommands: check-conditions, gen-field, kde, clt-run, blocks, moment-check,
fixed-m-gap.  A single JSON config document carries per-subcommand sections;
``--set key=value`` overrides win over file values, and the whole document is
checked against ``CONFIG_KEYS`` as it loads.  Exit code 0 means the
run completed and every verdict passed (or was inconclusive), 2 means a
method verdict failed, 1 means a tool error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import operator
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .clt import (
    ExperimentConfig,
    GridPoint,
    MAX_GRID_POINTS,
    MomentError,
    block_decomposition_check,
    _block_samples,
    check_cap,
    fixed_m_gap,
    grid_points,
    lindeberg_estimate,
    plan_point,
    rectangle_moment_check,
    result_bytes,
    run_clt_experiment,
    truncation_at,
    wu_inequality_check,
)
from .coefficients import (
    FAMILIES,
    ParameterError,
    check_condition_c,
    check_decay_window,
    check_hallin,
    check_machkouri_qsum,
    coeff_box,
    model_from_config,
)
from .field import (
    DEFAULT_MAX_FIELD_BYTES,
    MAX_CSV_SIDE,
    FieldSizeError,
    LatticeField,
    TruncationError,
    coupled_spectra,
    generate_coupled_fields,
    lattice_convolve,
    write_field_binary,
    write_field_csv,
)
from .innovations import InnovationModel, Seeds, SeedSpec, draw_lattice
from .innovations import _NAMES as INNOVATION_NAMES
from .kde import BandwidthSchedule, asymptotic_variance, density_oracle, expected_kde, kde_estimate, kernel_by_name
from .kde import _KERNEL_MODELS
from .reporting import RunManifest, table_columns, write_csv, write_report

__all__ = ["main", "run_script", "plan_run", "RunPlan", "EXPERIMENTS", "CONFIG_KEYS", "DEFAULT_CONFIG"]

OUT_ENV = "FIELDKDE_OUT"


@dataclass(frozen=True)
class Key:
    """One config key: its default, its kind (see ``_KINDS``) and its bounds.

    An integral float counts as an integer, and every number must be finite.
    ``optional`` admits null.  A ``family`` key is a parameter of one
    coefficient family or innovation law: it may be null or absent, and the
    model checks the rest.  The bounds hold for each number of the value;
    ``gt`` and ``lt`` may name the key "section.key" that holds the bound,
    which a null there lifts.  ``fits`` names the key of the section whose
    least entry bounds every side, ``increasing`` asks a list for at least
    that many entries, each above the one before, ``most`` for at most that
    many, and ``only_if`` = (key, value) admits null exactly when that key
    of the section does not hold that value.
    """

    kind: str
    default: object = None
    ge: float | None = None
    gt: float | str | None = None
    lt: float | str | None = None
    choices: tuple = ()
    optional: bool = False
    family: bool = False
    fits: str | None = None
    increasing: int | None = None
    most: int | None = None
    only_if: tuple | None = None


# every key the lab reads, each section's keys in the order the handlers read them,
# so a section replaced whole names the first key it misses
CONFIG_KEYS = {
    "coefficient": {
        "family": Key("name", "geometric", choices=FAMILIES),
        # a batch of fields has d + 1 axes, and a numpy array at most 64
        "d": Key("int", 1, ge=1, lt=64),
        "ratio": Key("num", 0.5, family=True),
        "q": Key("num", family=True),
        "scale": Key("num", family=True),
        "table": Key("table", family=True),
        "beta": Key("num", family=True),
    },
    "innovations": {"name": Key("name", "gaussian", choices=INNOVATION_NAMES), "nu": Key("num", family=True)},
    "kernel": Key("name", "epanechnikov", choices=tuple(_KERNEL_MODELS)),
    "bandwidth": {"gamma": Key("num", 0.2, gt=0, lt="coefficient.d"), "c2": Key("num", 1.0, gt=0)},
    # m_n = round(n^delta) is 1 at every n for delta <= 0
    "schedule": {"delta": Key("num", optional=True, gt=0)},
    "truncation": {
        "policy": Key("name", "bandwidth_relative", choices=("bandwidth_relative", "fixed")),
        "eta": Key("num", 0.01, gt=0),
        "M": Key("int", optional=True, ge=1, only_if=("policy", "fixed")),
    },
    "seed": Key("int", 20260810, ge=0, lt=1 << 64),
    "threads": Key("int", 1, ge=1),
    "limits": {"max_field_bytes": Key("int", DEFAULT_MAX_FIELD_BYTES, ge=1)},
    "conditions": {
        # the trend verdicts read the last half of the grid
        "n_grid": Key("ints", [16, 32, 64, 128], ge=1, increasing=3),
        "hallin_q": Key("num", optional=True, gt=0),
        "qsum_q": Key("num", optional=True, ge=0),
    },
    "gen_field": {"n": Key("int", 64, ge=1), "m": Key("int", 2, ge=1), "write_csv": Key("bool", False)},
    "kde": {"n": Key("int", 1024, ge=1), "m": Key("int", 2, ge=1), "x_grid": Key("nums", [-2.0, -1.0, 0.0, 1.0, 2.0])},
    "clt": {
        "n_grid": Key("ints", [1024], ge=1, most=MAX_GRID_POINTS),
        "x_points": Key("nums", [0.0], optional=True),
        "replicates": Key("int", 200, ge=1),
        "variance_band": Key("num", 0.10, gt=0),
    },
    "blocks": {
        "n_grid": Key("ints", [256, 1024, 4096], ge=1, most=MAX_GRID_POINTS),
        "x_points": Key("nums", optional=True),
        # var_delta is a sample variance, which one replicate cannot give
        "replicates": Key("int", 400, ge=2),
        # a fixed gap m, or the schedule's m_n where null, and blocks wider than the gap
        "m": Key("int", 4, optional=True, ge=1),
        "l": Key("int", optional=True, ge=1, gt="blocks.m"),
        "eps": Key("nums", [0.5, 1.0, 2.0], gt=0),
    },
    "moment_check": {
        "n_grid": Key("ints", [1024], ge=1, most=MAX_GRID_POINTS),
        "x_points": Key("nums", optional=True),
        "replicates": Key("int", 400, ge=1),
        "wu_p": Key("orders", [1, 2], choices=(1, 2)),
        "rectangles": Key("sides", [4, 16, 64, 256, 1024], fits="n_grid"),
        # the max/min ratio of the rectangle norms is at least 1
        "ratio_cap": Key("num", 3.0, gt=1),
    },
    "gap": {
        "n_grid": Key("ints", [1024, 4096], ge=1, most=MAX_GRID_POINTS),
        "x_points": Key("nums", optional=True),
        "replicates": Key("int", 100, ge=1),
        # a fixed m, or the schedule's growing m_n where null
        "m": Key("int", 2, optional=True, ge=1),
    },
}

DEFAULT_CONFIG = {
    name: keys.default if isinstance(keys, Key)
    else {key: k.default for key, k in keys.items() if not (k.family and k.default is None)}
    for name, keys in CONFIG_KEYS.items()
}


class ToolError(RuntimeError):
    pass


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ToolError(f"--set needs key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ToolError(f"cannot descend into {part!r} of --set {key!r}")
    node[parts[-1]] = value


def load_config(path: str | None, sets, seed=None, threads=None) -> dict:
    """The config document with every key of CONFIG_KEYS checked and read, or a ToolError or ParameterError
    naming the key."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ToolError(f"config file {path!r} must hold a JSON object, not {type(doc).__name__}")
            if "coefficient" in doc:
                # replaced whole, not merged: the default's ratio belongs to the geometric family only
                del cfg["coefficient"]
            cfg = _deep_merge(cfg, doc)
        except FileNotFoundError:
            raise ToolError(f"config file {path!r} not found")
        except json.JSONDecodeError as exc:
            raise ToolError(f"config file {path!r} is not valid JSON: {exc}")
    for assignment in sets or []:
        _apply_set(cfg, assignment)
    if seed is not None:
        cfg["seed"] = seed
    if threads is not None:
        cfg["threads"] = threads
    unknown = []
    for name, value in cfg.items():
        if name not in CONFIG_KEYS:
            unknown.append(name)
        elif isinstance(CONFIG_KEYS[name], dict):
            if not isinstance(value, dict):
                raise ToolError(f"config section {name!r} must be an object")
            unknown.extend(f"{name}.{key}" for key in value if key not in CONFIG_KEYS[name])
    if unknown:
        raise ToolError(f"unknown config key(s): {', '.join(unknown)}")
    out = {}
    for name, keys in CONFIG_KEYS.items():
        if isinstance(keys, Key):
            out[name] = _read(keys, cfg[name], name, out, out)
            continue
        section = out[name] = {}
        for key, k in keys.items():
            if key in cfg[name]:
                section[key] = _read(k, cfg[name][key], f"{name}.{key}", section, out)
            elif not k.family:
                raise ToolError(f"missing config key {name}.{key}")
        if name in _MODELS:  # the model checks what the table leaves to it, raising ParameterError
            _MODELS[name](section)
    return out


def _number(value, integer: bool):
    """``value`` as an int or a float, or None unless it is a finite JSON number, integral for ``integer``."""
    if type(value) is int:  # of any size, where a float overflows
        return value if integer else float(value) if abs(value) <= sys.float_info.max else None
    if type(value) is float and math.isfinite(value) and (value.is_integer() or not integer):
        return int(value) if integer else value
    return None


def _parse(k: Key, value, d: int | None):
    """``value`` read as the kind of ``k``, or None when it is not of that kind."""
    if k.kind in ("int", "num"):
        return _number(value, k.kind == "int")
    if k.kind == "bool":
        return value if type(value) is bool else None
    if k.kind == "name":
        return value if type(value) is str and value in k.choices else None
    if not isinstance(value, list) or not (value or k.kind == "orders"):
        return None
    if k.kind == "table":
        ok = all(_parse(k, v, d) is not None if isinstance(v, list) else _number(v, False) is not None for v in value)
        return value if ok else None
    if k.kind == "sides":  # a side alone stands for the cube of that side
        rects = [tuple(_number(t, True) for t in r) if isinstance(r, list) and len(r) == d else _number(r, True)
                 for r in value]
        sides = [t for r in rects for t in (r if isinstance(r, tuple) else [r])]
        return rects if None not in sides and min(sides) >= 1 else None
    values = tuple(_number(v, k.kind != "nums") for v in value)
    if None in values or (k.choices and not all(v in k.choices for v in values)):
        return None
    return values


# the sections whose model is built as they are read, so its refusal comes before a later section's
_MODELS = {"coefficient": model_from_config, "innovations": InnovationModel.from_config}
_KINDS = {
    "int": "an integer", "num": "a number", "ints": "a nonempty list of integers",
    "nums": "a nonempty list of numbers", "orders": "a list of orders, each one of {choices}",
    "bool": "true or false", "name": "one of {choices}", "table": "a list of numbers, or of such lists",
    "sides": "a nonempty list of integer sides >= 1, or of lists of d = {d} of them",
}
_BOUNDS = (("ge", "at least", operator.ge), ("gt", "greater than", operator.gt), ("lt", "below", operator.lt))


def _read(k: Key, value, path: str, section: dict, cfg: dict):
    """``value`` of the key at ``path`` as the handlers read it, checked against ``k``.

    ``section`` and ``cfg`` hold what was read before it, of its section and of the whole config.
    """
    null = value is None and (k.optional or k.family)
    d = cfg["coefficient"].get("d")  # the first section read
    bare = _KINDS[k.kind].format(choices=", ".join(map(str, k.choices)), d=d)
    kind = ("null or " if k.optional else "") + bare
    got = None if null else _parse(k, value, d)
    if got is None and not null:
        raise ToolError(f"config key {path} must be {kind}, got {json.dumps(value)}")
    if k.only_if and null == (section[k.only_if[0]] == k.only_if[1]):
        other = f"{path.rsplit('.', 1)[0]}.{k.only_if[0]}"
        rule = f"{bare} when" if null else "null unless"
        raise ToolError(f"config key {path} must be {rule} {other} is {json.dumps(k.only_if[1])}, got {json.dumps(value)}")
    if null:
        return None
    listed = k.kind in ("ints", "nums")
    for name, words, holds in _BOUNDS:
        limit = getattr(k, name)
        if isinstance(limit, str):
            holder, key = limit.split(".")
            words, limit = f"{words} {limit} =", cfg[holder][key]
        if limit is not None and not all(holds(v, limit) for v in (got if listed else [got])):
            bound = f"{kind} {words} {limit}, got {json.dumps(value)}" if listed else f"{words} {limit}, got {got}"
            raise ToolError(f"config key {path} must be {bound}")
    if k.increasing and (len(got) < k.increasing or any(b <= a for a, b in zip(got, got[1:]))):
        raise ToolError(f"config key {path} must be {kind}, strictly increasing with at least "
                        f"{k.increasing} entries, got {json.dumps(value)}")
    if k.most and len(got) > k.most:
        raise ToolError(f"config key {path} must be {kind} of at most {k.most} entries, got {len(got)}")
    if k.fits:
        n = min(section[k.fits])
        too_big = [r for r in value if max(r if isinstance(r, list) else [r]) > n]
        if too_big:
            raise ToolError(f"config key {path} must fit inside every grid point: {json.dumps(too_big)} exceed n = {n}")
    return got


def _bandwidth(cfg: dict) -> BandwidthSchedule:
    return BandwidthSchedule(d=cfg["coefficient"]["d"], **cfg["bandwidth"])


def _experiment(cfg: dict, section: str) -> ExperimentConfig:
    sec = cfg[section]
    return ExperimentConfig(
        model=model_from_config(cfg["coefficient"]),
        innovations=InnovationModel.from_config(cfg["innovations"]),
        kernel=kernel_by_name(cfg["kernel"]),
        bandwidth=_bandwidth(cfg),
        n_grid=sec["n_grid"],
        replicates=sec["replicates"],
        master_seed=cfg["seed"],
        threads=cfg["threads"],
        max_field_bytes=cfg["limits"]["max_field_bytes"],
    )


@dataclass(frozen=True)
class RunPlan:
    """What a run draws, holds and writes, planned before its first draw.

    One ``GridPoint`` per grid point (one for ``gen-field`` and ``kde``),
    every innovation value the run draws, and the bytes of the replicate
    results of ``clt-run`` (``clt.result_bytes``) and of ``blocks``.
    """

    subcommand: str
    points: tuple = ()
    draws: int = 0
    result_bytes: int = 0


def plan_run(cfg: dict, subcommand: str) -> RunPlan:
    """The plan of ``subcommand`` at every grid point, with every check that needs no draw but the cap.

    A truncation no radius meets, a block plan that does not fit and a field
    too large for CSV raise, naming their key, and an x where the density is
    0 raises ``MomentError``; the grid points' cap is ``check_cap``'s and
    that of the replicate results ``main``'s, so a plan exists to record
    when either exceeds it.
    """
    experiment = EXPERIMENTS[subcommand]
    points, rows, results = experiment.plan(cfg, experiment.section) if experiment.plan else ((), 0, 0)
    points = tuple(replace(p, rows=rows) for p in points)
    return RunPlan(subcommand, points, sum(p.draws for p in points), results)


def _plan_field(cfg: dict, section: str):
    """The one point of ``gen-field`` or ``kde``: kde reports X alone, so it generates with m = M;
    gen-field writes three fields and draws its lattice once more for the coupling check."""
    sec, model, kde = cfg[section], model_from_config(cfg["coefficient"]), section == "kde"
    n, m = sec["n"], sec["m"]
    if not kde and sec["write_csv"] and n > MAX_CSV_SIDE:
        raise ToolError(f"config key gen_field.write_csv: CSV export limited to side <= {MAX_CSV_SIDE}, at n = {n}")
    b = _bandwidth(cfg).b(n)
    plan = truncation_at(n, model, m=m, b=b, **cfg["truncation"])
    point = plan_point(model, n, plan.M if kde else m, b, plan, 0, 1, cfg["limits"]["max_field_bytes"])
    if kde:
        return (point,), len(sec["x_grid"]), 0
    return (replace(point, draws=2 * point.draws),), 3 * n**model.d, 0


def _points(cfg: dict, section: str, experiment: str, **kw) -> tuple:
    """``grid_points`` of ``experiment`` with the x's of ``section`` and the schedule's delta."""
    return grid_points(_experiment(cfg, section), experiment, x_points=cfg[section]["x_points"],
                       delta=cfg["schedule"]["delta"], **kw)


def _plan_clt(cfg: dict, section: str):
    # the replicate rows and one summary row per x
    points, R = _points(cfg, section, "clt", **cfg["truncation"]), cfg[section]["replicates"]
    xs = len(points[0].xs)
    return points, (R + 1) * xs, result_bytes(len(points), xs, R)


def _plan_blocks(cfg: dict, section: str):
    sec, d = cfg[section], cfg["coefficient"]["d"]
    points = _points(cfg, section, "blocks", m=sec["m"], l=sec["l"])
    # the total and q^d big-block sums of each replicate at every point, held twice at the join
    return points, 1 + len(sec["eps"]), 16 * sec["replicates"] * sum(1 + p.q**d for p in points)


def _plan_moment_check(cfg: dict, section: str):
    return _points(cfg, section, "rectangles", **cfg["truncation"]), len(cfg[section]["rectangles"]), 0


def _plan_gap(cfg: dict, section: str):
    return _points(cfg, section, "gap", m=cfg[section]["m"], **cfg["truncation"]), 1, 0


def _stated(cfg: dict, section: str, run: RunPlan) -> dict:
    """A report's ``config``: what the run's points ran, and the keys its subcommand read, each once.

    ``delta`` is stated only where the points follow the schedule, ``truncation`` where they run under
    it (``blocks`` runs at M = m_n) and ``variance_band`` by ``clt-run`` alone; ``threads`` changes wall
    time only, never numbers, so the manifest records it instead.
    """
    sec, model, bw = cfg[section], model_from_config(cfg["coefficient"]), _bandwidth(cfg)
    window = check_decay_window(model.d, model.decay_exponent(), bw.gamma)
    stated = {
        "model": model.to_config(), "innovations": InnovationModel.from_config(cfg["innovations"]).to_config(),
        "kernel": cfg["kernel"], "bandwidth": bw.to_config(), "n_grid": [p.n for p in run.points],
        "x_points": list(run.points[0].xs), "decay_window": window, "replicates": sec["replicates"],
        "master_seed": cfg["seed"],
    }
    if sec.get("m") is None:
        stated["delta"] = window.delta_star if cfg["schedule"]["delta"] is None else cfg["schedule"]["delta"]
    if section != "blocks":
        stated["truncation"] = cfg["truncation"]
    if section == "clt":
        stated["variance_band"] = sec["variance_band"]
    return stated


def _coupled_draw(cfg: dict, point: GridPoint):
    """(model, innovations, X, X_m) of one seed at ``point``, drawn as the engine draws."""
    model = model_from_config(cfg["coefficient"])
    innov = InnovationModel.from_config(cfg["innovations"])
    x, x_m = generate_coupled_fields(innov, Seeds.of(SeedSpec(cfg["seed"])), coupled_spectra(model, point))
    return model, innov, x[0], x_m[0]


# ---------------------------------------------------------------------------
# subcommands: each takes (cfg, section, run plan, out_dir) and returns (verdict_ok, report, tables);
# tables: name -> dict of columns, in CSV order, for each table with rows

CLT_SUMMARY_COLUMNS = [
    "n", "x", "b", "m", "M", "replicates", "mean", "variance", "skewness",
    "excess_kurtosis", "ks_distance", "ks_crit_05", "ks_crit_01", "sigma2_target",
    "remainder_second_moment", "verdict",
]


def cmd_check_conditions(cfg: dict, section: str, run: RunPlan, out_dir: Path):
    sec = cfg[section]
    model = model_from_config(cfg["coefficient"])
    bw = _bandwidth(cfg)
    window = check_decay_window(model.d, model.decay_exponent(), bw.gamma)
    delta = cfg["schedule"]["delta"]
    if delta is None:
        delta = window.delta_star
    reports = {"decay_window": window}
    ok = window.passed
    if sec["hallin_q"] is not None:
        reports["hallin"] = check_hallin(model.d, sec["hallin_q"], bw.gamma)
    if sec["qsum_q"] is not None:
        reports["qsum"] = check_machkouri_qsum(model, sec["qsum_q"])
    tables = {}
    if delta is not None:
        cond = check_condition_c(model, bw, delta, sec["n_grid"])
        reports["schedule_limits"] = cond
        tables["condition_grid"] = table_columns(cond.grid_rows)
        ok = ok and cond.passed
    report = {"model": model.to_config(), "bandwidth": bw.to_config(), "delta": delta, "checks": reports}
    return ok, report, tables


def cmd_gen_field(cfg: dict, section: str, run: RunPlan, out_dir: Path):
    sec, (point,) = cfg[section], run.points
    model, innov, x, x_m = _coupled_draw(cfg, point)
    n, m, plan = sec["n"], sec["m"], point.truncation
    seed = SeedSpec(cfg["seed"])
    provenance = {"coefficients": model.label(), "innovations": innov.label(), "truncation_radius": plan.M,
                  "seed": seed.to_config()}
    fields = {
        tag: LatticeField(model.d, n, values, {**provenance, "component": tag})
        for tag, values in (("full", x), ("truncated", x_m), ("residual", x - x_m))
    }
    exts = ("bin", "csv") if sec["write_csv"] else ("bin",)
    names = [f"field_{tag}.{ext}" for tag in fields for ext in exts]
    for tag, f in fields.items():
        write_field_binary(f, out_dir / f"field_{tag}.bin")
        if sec["write_csv"]:
            write_field_csv(f, out_dir / f"field_{tag}.csv")
    # the same seed's lattice convolved with the weights off [0, m)^d, computed apart from the generator
    tail = coeff_box(model, plan.M)
    tail[(slice(0, m),) * model.d] = 0.0
    eps = draw_lattice(innov, Seeds.of(seed)[0], (n + plan.M - 1,) * model.d)
    coupling = float(np.max(np.abs(x - x_m - lattice_convolve(eps, tail))))
    # report carries names only so it regenerates byte-identically into any
    # output directory; the manifest records absolute paths
    return True, {"n": n, "m": m, "plan": plan, "coupling_max_abs_gap": coupling, "files": names}, {}


def cmd_kde(cfg: dict, section: str, run: RunPlan, out_dir: Path):
    sec, (point,) = cfg[section], run.points
    kern = kernel_by_name(cfg["kernel"])
    n, m, xs, b, plan = sec["n"], sec["m"], sec["x_grid"], point.b, point.truncation
    model, innov = model_from_config(cfg["coefficient"]), InnovationModel.from_config(cfg["innovations"])
    try:  # before the draw
        oracle = density_oracle(model, innov, m)
    except ValueError as exc:
        raise MomentError(str(exc), "m") from None
    _, _, values, _ = _coupled_draw(cfg, point)
    est = kde_estimate(values, np.array(xs), b, kern)
    rows = [{"x": x, "estimate": float(e), "b": b, "oracle_density": float(px), "expected_estimate": float(ex),
             "sigma2_x": asymptotic_variance(float(px), kern)}
            for x, e, px, ex in zip(xs, est, oracle.p(np.array(xs)), expected_kde(oracle, kern, b, xs))]
    report = {"n": n, "m": m, "plan": plan, "b": b, "kernel": kern.name, "curve": rows}
    return True, report, {"kde_curve": table_columns(rows)}


def cmd_clt_run(cfg: dict, section: str, run: RunPlan, out_dir: Path):
    report, replicates = run_clt_experiment(_experiment(cfg, section), run.points, cfg[section]["variance_band"])
    report["config"] = _stated(cfg, section, run)
    summary = [{**point, **{f"ks_{k}": v for k, v in point.get("ks", {}).items()},
                "verdict": point["verdicts"]["overall"]} for point in report["points"]]
    tables = {"clt_replicates": replicates, "clt_summary": table_columns(summary, CLT_SUMMARY_COLUMNS)}
    return report["overall"] != "fail", report, tables


def cmd_blocks(cfg: dict, section: str, run: RunPlan, out_dir: Path):
    config = _experiment(cfg, section)
    samples = _block_samples(config, run.points)
    decomposition = block_decomposition_check(config, samples)
    lf = lindeberg_estimate(config, samples, cfg[section]["eps"])
    report = {"config": _stated(cfg, section, run), "decomposition": decomposition, "lindeberg": lf}
    # one row per eps, its lf2 after it
    lf_rows = [{**{k: v for k, v in row.items() if k != "lf2"}, "eps": e, "lf2": lf2}
               for row in lf["rows"] for e, lf2 in row["lf2"].items()]
    tables = {"block_gap": table_columns(decomposition["rows"]), "lindeberg": table_columns(lf_rows)}
    return decomposition["passed"] and lf["passed"], report, tables


def cmd_moment_check(cfg: dict, section: str, run: RunPlan, out_dir: Path):
    sec = cfg[section]
    config = _experiment(cfg, section)
    # before the rectangles' draws, so innovations without the moments fail first
    wu_reports = wu_inequality_check(config.model, config.innovations, sec["wu_p"])
    rect = rectangle_moment_check(config, sec["rectangles"], run.points, ratio_cap=sec["ratio_cap"])
    report = {"config": _stated(cfg, section, run), "wu": wu_reports, "rectangles": rect}
    return rect["passed"], report, {"rectangle_moments": table_columns(rect["rows"])}


def cmd_fixed_m_gap(cfg: dict, section: str, run: RunPlan, out_dir: Path):
    rep = fixed_m_gap(_experiment(cfg, section), run.points, "growing" if cfg[section]["m"] is None else "fixed")
    report = {"config": _stated(cfg, section, run), "gap": rep}
    return rep["passed"], report, {"gap": table_columns(rep["rows"])}


@dataclass(frozen=True)
class Experiment:
    """A subcommand: its config section, its handler and its planner.

    ``run(cfg, section, run plan, out_dir)`` returns (verdict passed,
    report dict, tables); ``main`` adds the ``subcommand`` and ``passed``
    keys to the report.  ``plan(cfg, section)`` returns (grid points, table
    rows per point, replicate result bytes), and is None where nothing is
    drawn.
    """

    section: str
    run: Callable
    plan: Callable | None = None


EXPERIMENTS = {
    "check-conditions": Experiment("conditions", cmd_check_conditions),
    "gen-field": Experiment("gen_field", cmd_gen_field, _plan_field),
    "kde": Experiment("kde", cmd_kde, _plan_field),
    "clt-run": Experiment("clt", cmd_clt_run, _plan_clt),
    "blocks": Experiment("blocks", cmd_blocks, _plan_blocks),
    "moment-check": Experiment("moment_check", cmd_moment_check, _plan_moment_check),
    "fixed-m-gap": Experiment("gap", cmd_fixed_m_gap, _plan_gap),
}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldkde",
        description="Simulation lab for kernel density estimation on causal linear random fields",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # every subcommand takes the same options, before or after its name
    parser.add_argument("subcommand", choices=tuple(EXPERIMENTS))
    parser.add_argument("--config", default=None, help="JSON config document")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (repeatable, dotted keys)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--threads", type=int, default=None, help="replicate thread count")
    parser.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or ./runs)")
    return parser


def _message(exc: Exception, section: str) -> str:
    """The message of a tool error, naming the config key that decides a truncation, a moment or the memory cap.

    ``section`` is the config section of the subcommand, which holds the key of a ``MomentError``.
    """
    if isinstance(exc, MomentError):
        return f"config key {exc.key if '.' in exc.key else f'{section}.{exc.key}'}: {exc}"
    if isinstance(exc, ParameterError):
        return f"config key {exc.key}: {exc}"
    if isinstance(exc, TruncationError):
        return f"config key truncation.{exc.key}: {exc}"
    if isinstance(exc, FieldSizeError):
        return f"config key limits.max_field_bytes: {exc}"
    return str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out or os.environ.get(OUT_ENV) or "runs") / args.subcommand.replace("-", "_")
    out_dir.mkdir(parents=True, exist_ok=True)
    # opened before the config loads, so a rejected config leaves a manifest at "error" too
    manifest = RunManifest(
        subcommand=args.subcommand,
        config=None,
        master_seed=None,
        tool_version=__version__,
        started=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    code, experiment = 1, EXPERIMENTS[args.subcommand]
    try:
        cfg = load_config(args.config, args.set, seed=args.seed, threads=args.threads)
        manifest.config, manifest.master_seed = cfg, cfg["seed"]
        manifest.plan = run = plan_run(cfg, args.subcommand)
        check_cap(run.points, cfg["limits"]["max_field_bytes"])
        if run.result_bytes > cfg["limits"]["max_field_bytes"]:
            raise ToolError(f"config key {experiment.section}.replicates: the replicate results hold {run.result_bytes} "
                            f"bytes (> cap {cfg['limits']['max_field_bytes']} of limits.max_field_bytes)")
        manifest.write(out_dir / "manifest.json")
        ok, report, tables = experiment.run(cfg, experiment.section, run, out_dir)
        report.update(subcommand=args.subcommand, passed=bool(ok))
        manifest.outputs.extend(str(out_dir / name) for name in report.get("files", ()))
        # the report first: it refuses a non-finite value, so no table of its values is written with one
        manifest.outputs.append(write_report(report, out_dir / "report.json"))
        for name, columns in tables.items():
            manifest.outputs.append(write_csv(columns, out_dir / f"{name}.csv"))
        manifest.verdicts = {"passed": bool(ok)}
        manifest.status = "complete"
        code = 0 if ok else 2
    except (ToolError, FieldSizeError, ValueError) as exc:
        message = _message(exc, experiment.section)
        manifest.status, manifest.error = "error", message
        print(f"error: {message}", file=sys.stderr)
    except BaseException as exc:
        # a fault of the lab, not of the config: recorded, then raised with its traceback
        manifest.status, manifest.error = "error", f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.write(out_dir / "manifest.json")
    return code


def run_script(name: str, config, subcommands, argv) -> int:
    """Run ready-made experiment ``name``: each subcommand with ``config`` and ``argv``.

    Outputs go to OUT/<name>/<subcommand_name>/, so experiments that share a
    subcommand do not overwrite each other.  Stops at the first tool error
    (exit 1); otherwise returns the largest exit code.
    """
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    base = out.parse_known_args(argv)[0].out or os.environ.get(OUT_ENV) or "runs"
    code = 0
    for sub in subcommands:
        code = max(code, main([sub, "--config", str(config), *argv, "--out", str(Path(base) / name)]))
        if code == 1:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
