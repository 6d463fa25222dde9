"""Config-driven command line entry point.

Subcommands: check-conditions, gen-field, kde, clt-run, blocks, moment-check,
fixed-m-gap.  A single JSON config document carries per-subcommand sections;
``--set key=value`` overrides win over file values.  Exit code 0 means the
run completed and every verdict passed (or was inconclusive), 2 means a
method verdict failed, 1 means a tool error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .clt import (
    BlockPlan,
    ExperimentConfig,
    MomentError,
    block_decomposition_check,
    _block_samples,
    fixed_m_gap,
    lindeberg_estimate,
    rectangle_moment_check,
    run_clt_experiment,
    worker_pool,
    wu_inequality_check,
)
from .coefficients import (
    check_condition_c,
    check_decay_window,
    check_hallin,
    check_machkouri_qsum,
    coeff_box,
    model_from_config,
)
from .field import (
    FieldSizeError,
    LatticeField,
    coupled_spectra,
    generate_coupled_fields,
    lattice_convolve,
    plan_truncation,
    write_field_binary,
    write_field_csv,
)
from .innovations import InnovationModel, Seeds, SeedSpec, draw_lattice
from .kde import BandwidthSchedule, asymptotic_variance, density_oracle, expected_kde, kde_estimate, kernel_by_name
from .reporting import RunManifest, write_csv, write_report

__all__ = ["main", "run_script", "DEFAULT_CONFIG"]

OUT_ENV = "FIELDKDE_OUT"

DEFAULT_CONFIG = {
    "coefficient": {"family": "geometric", "d": 1, "ratio": 0.5},
    "innovations": {"name": "gaussian"},
    "kernel": "epanechnikov",
    "bandwidth": {"gamma": 0.2, "c2": 1.0},
    "schedule": {"delta": None},
    "truncation": {"policy": "bandwidth_relative", "eta": 0.01, "M": None},
    "seed": 20260810,
    "threads": 1,
    "limits": {"max_field_bytes": 1 << 30},
    "conditions": {
        "hallin_q": None,
        "qsum_q": None,
        "n_grid": [16, 32, 64, 128],
    },
    "gen_field": {"n": 64, "m": 2, "write_csv": False},
    "kde": {"n": 1024, "m": 2, "x_grid": [-2.0, -1.0, 0.0, 1.0, 2.0]},
    "clt": {
        "n_grid": [1024],
        "x_points": [0.0],
        "replicates": 200,
        "variance_band": 0.10,
    },
    "blocks": {
        "m": 4,
        "l": None,
        "delta": None,
        "n_grid": [256, 1024, 4096],
        "replicates": 400,
        "eps": [0.5, 1.0, 2.0],
        "x_points": None,
    },
    "moment_check": {
        "wu_p": [1, 2],
        "wu_sample": 200000,
        "rectangles": [4, 16, 64, 256, 1024],
        "n_grid": [1024],
        "replicates": 400,
        "ratio_cap": 3.0,
        "x_points": None,
    },
    "gap": {"m": 2, "mode": "fixed", "n_grid": [1024, 4096], "replicates": 100, "x_points": None},
}


# parameters of one coefficient family or innovation law, which DEFAULT_CONFIG leaves unset
_OPTIONAL_KEYS = {
    "coefficient": ("q", "scale", "table", "beta"),
    "innovations": ("nu",),
}
# keys that select a model, law or plan; a section replaced as a whole must keep them
_REQUIRED_KEYS = {
    "coefficient": ("family", "d"),
    "innovations": ("name",),
    "truncation": ("policy",),
}


class ToolError(RuntimeError):
    pass


def _is_number(value, integer: bool) -> bool:
    """A JSON number, not a bool, and integral when ``integer``."""
    return type(value) in (int, float) and not (integer and type(value) is float and not value.is_integer())


class _Section(dict):
    """A config section (the name "" is the top level) that reads keys as tool errors, not tracebacks.

    A key a subcommand reads with ``[]`` is one it needs, so a section
    replaced as a whole without it exits 1 naming the key, and so does a
    value that ``number`` or ``numbers`` cannot read.
    """

    def __init__(self, name: str, values: dict):
        super().__init__(values)
        self.name = name

    def path(self, key: str) -> str:
        return f"{self.name}.{key}" if self.name else key

    def __missing__(self, key):
        raise ToolError(f"missing config key {self.path(key)}")

    def number(self, key: str, integer: bool = False, optional: bool = False):
        """``self[key]`` as an int or a float, or None when ``optional`` allows it."""
        value = self[key]
        if value is None and optional:
            return None
        if not _is_number(value, integer):
            kind = "an integer" if integer else "a number"
            raise ToolError(f"config key {self.path(key)} must be {kind}, got {json.dumps(value)}")
        return int(value) if integer else float(value)

    def numbers(self, key: str, integer: bool = False) -> tuple:
        """``self[key]`` as a tuple of ints or floats; it must be a nonempty list of them."""
        values = self[key]
        if not (isinstance(values, list) and values and all(_is_number(v, integer) for v in values)):
            kind = "integers" if integer else "numbers"
            raise ToolError(
                f"config key {self.path(key)} must be a nonempty list of {kind}, got {json.dumps(values)}"
            )
        return tuple(int(v) if integer else float(v) for v in values)


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
    _check_keys(cfg)
    cfg = _Section("", {key: _Section(key, v) if isinstance(v, dict) else v for key, v in cfg.items()})
    # read before any handler runs: the manifest's seed and the model's dimension
    cfg.number("seed", integer=True)
    cfg.number("threads", integer=True)
    cfg["coefficient"].number("d", integer=True)
    return cfg


def _check_keys(cfg: dict) -> None:
    """Reject every key the lab does not read and every missing required key, by dotted path."""
    unknown, missing = [], []
    for key, value in cfg.items():
        if key not in DEFAULT_CONFIG:
            unknown.append(key)
        elif isinstance(DEFAULT_CONFIG[key], dict):
            if not isinstance(value, dict):
                raise ToolError(f"config section {key!r} must be an object")
            known = {*DEFAULT_CONFIG[key], *_OPTIONAL_KEYS.get(key, ())}
            unknown.extend(f"{key}.{sub}" for sub in value if sub not in known)
            required = _REQUIRED_KEYS.get(key, ())
            missing.extend(f"{key}.{sub}" for sub in required if value.get(sub) is None)
    if unknown:
        raise ToolError(f"unknown config key(s): {', '.join(unknown)}")
    if missing:
        raise ToolError(f"missing config key(s): {', '.join(missing)}")
    # the manifest echoes the config, and reports hold finite numbers only
    nonfinite = list(dict.fromkeys(_nonfinite_keys(cfg)))
    if nonfinite:
        raise ToolError(f"config key(s) must hold finite numbers: {', '.join(nonfinite)}")
    try:
        kernel_by_name(cfg["kernel"])
    except (TypeError, ValueError):  # TypeError: an unhashable value such as an object
        raise ToolError(f"config key 'kernel' must be a kernel name, got {cfg['kernel']!r}") from None


def _nonfinite_keys(node, path=""):
    """Dotted paths of every NaN or infinite number in ``node``, a list's elements under the list's key."""
    if isinstance(node, float):
        return [] if math.isfinite(node) else [path]
    if isinstance(node, dict):
        return [bad for key, value in node.items() for bad in _nonfinite_keys(value, f"{path}.{key}" if path else key)]
    if isinstance(node, list):
        return [bad for value in node for bad in _nonfinite_keys(value, path)]
    return []


def _bandwidth(cfg: dict) -> BandwidthSchedule:
    bw = cfg["bandwidth"]
    return BandwidthSchedule(
        d=cfg["coefficient"].number("d", integer=True), gamma=bw.number("gamma"), c2=bw.number("c2")
    )


def _experiment(cfg: dict, section: str) -> ExperimentConfig:
    sec = cfg[section]
    truncation = _truncation(cfg)
    return ExperimentConfig(
        model=model_from_config(cfg["coefficient"]),
        innovations=InnovationModel.from_config(cfg["innovations"]),
        kernel=kernel_by_name(cfg["kernel"]),
        bandwidth=_bandwidth(cfg),
        n_grid=sec.numbers("n_grid", integer=True),
        x_points=None if sec["x_points"] is None else sec.numbers("x_points"),
        delta=cfg["schedule"].number("delta", optional=True),
        truncation_policy=truncation["policy"],
        truncation_eta=truncation["eta"],
        truncation_M=truncation["M"],
        replicates=sec.number("replicates", integer=True),
        master_seed=cfg.number("seed", integer=True),
        threads=cfg.number("threads", integer=True),
        max_field_bytes=_max_field_bytes(cfg),
    )


def _truncation(cfg: dict) -> dict:
    """The truncation section as ``plan_truncation`` keyword arguments."""
    tr = cfg["truncation"]
    return {"policy": tr["policy"], "eta": tr.number("eta"), "M": tr.number("M", integer=True, optional=True)}


def _max_field_bytes(cfg: dict) -> int:
    return cfg["limits"].number("max_field_bytes", integer=True)


def _coupled_draw(cfg: dict, sec: dict):
    """(model, innovations, plan, b, X, X_m) of one seed at the section's n and m, drawn as the engine draws."""
    model = model_from_config(cfg["coefficient"])
    innov = InnovationModel.from_config(cfg["innovations"])
    n, m = sec.number("n", integer=True), sec.number("m", integer=True)
    b = _bandwidth(cfg).b(n)
    plan = plan_truncation(model, m=m, b=b, **_truncation(cfg))
    spectra = coupled_spectra(model, n, m, plan, max_bytes=_max_field_bytes(cfg))
    seeds = Seeds.of(SeedSpec(cfg.number("seed", integer=True)))
    x, x_m = generate_coupled_fields(model, innov, n, m, plan, seeds, spectra)
    return model, innov, plan, b, x[0], x_m[0]


# ---------------------------------------------------------------------------
# subcommands: each returns (verdict_ok, report_dict, tables)
# tables: name -> (rows, columns)

CONDITION_GRID_COLUMNS = [
    "n", "m_n", "b_n", "sqrt_b_delta", "residual_over_b", "m_vol_times_b", "m_logs_over_nb",
]
CLT_REPLICATE_COLUMNS = ["n", "x", "replicate", "T", "T_zeta", "T_remainder"]
CLT_SUMMARY_COLUMNS = [
    "n", "x", "b", "m", "M", "replicates", "mean", "variance", "skewness",
    "excess_kurtosis", "ks_distance", "ks_crit_05", "ks_crit_01", "sigma2_target",
    "remainder_second_moment", "verdict",
]
BLOCK_COLUMNS = [
    "n", "m", "l", "blocks_per_axis", "var_delta", "rate_proxy", "adjacent_corr",
    "corr_threshold",
]
LF_COLUMNS = ["n", "m", "l", "block_samples", "lf1", "eps", "lf2"]
RECT_COLUMNS = ["n", "rectangle", "zeta_normalized_l2", "remainder_normalized_l2", "remainder_fitted_c"]
GAP_COLUMNS = ["n", "m", "b", "gap", "se", "residual_ratio"]


def cmd_check_conditions(cfg: dict):
    sec = cfg["conditions"]
    n_grid = list(sec.numbers("n_grid", integer=True))
    model = model_from_config(cfg["coefficient"])
    bw = _bandwidth(cfg)
    window = check_decay_window(model.d, model.decay_exponent(), bw.gamma)
    delta = cfg["schedule"].number("delta", optional=True)
    if delta is None:
        delta = window.delta_star
    reports = {"decay_window": window.to_dict()}
    ok = window.passed
    hallin_q, qsum_q = sec.number("hallin_q", optional=True), sec.number("qsum_q", optional=True)
    if hallin_q is not None:
        hallin = check_hallin(model.d, hallin_q, bw.gamma)
        reports["hallin"] = hallin.to_dict()
    if qsum_q is not None:
        try:
            qs = check_machkouri_qsum(model, qsum_q)
        except ValueError as exc:
            raise ToolError(f"conditions.qsum_q: {exc}") from None
        reports["qsum"] = qs.to_dict()
    rows = []
    if delta is not None:
        cond = check_condition_c(model, bw, delta, n_grid)
        reports["schedule_limits"] = cond.to_dict()
        rows = cond.grid_rows
        ok = ok and cond.passed
    report = {
        "subcommand": "check-conditions",
        "model": model.to_config(),
        "bandwidth": bw.to_config(),
        "delta": delta,
        "checks": reports,
        "passed": bool(ok),
    }
    return ok, report, {"condition_grid": (rows, CONDITION_GRID_COLUMNS)}


def cmd_gen_field(cfg: dict, out_dir: Path):
    sec = cfg["gen_field"]
    model, innov, plan, _, x, x_m = _coupled_draw(cfg, sec)
    n, m = sec.number("n", integer=True), sec.number("m", integer=True)
    seed = SeedSpec(cfg.number("seed", integer=True))
    provenance = {"coefficients": model.label(), "innovations": innov.label(), "truncation_radius": plan.M,
                  "seed": seed.to_config()}
    fields = {
        tag: LatticeField(model.d, n, values, {**provenance, "component": tag})
        for tag, values in (("full", x), ("truncated", x_m), ("residual", x - x_m))
    }
    if sec["write_csv"]:
        # first, so a side beyond write_field_csv's limit fails before any file is written
        try:
            for tag, f in fields.items():
                write_field_csv(f, out_dir / f"field_{tag}.csv")
        except ValueError as exc:
            raise ToolError(f"gen_field.write_csv: {exc}") from None
    for tag, f in fields.items():
        write_field_binary(f, out_dir / f"field_{tag}.bin")
    exts = ("bin", "csv") if sec["write_csv"] else ("bin",)
    names = [f"field_{tag}.{ext}" for tag in fields for ext in exts]
    # the same seed's lattice convolved with the weights off [0, m)^d, computed apart from the generator
    tail = coeff_box(model, plan.M)
    tail[(slice(0, m),) * model.d] = 0.0
    eps = draw_lattice(innov, Seeds.of(seed)[0], (n + plan.M - 1,) * model.d)
    coupling = float(np.max(np.abs(x - x_m - lattice_convolve(eps, tail))))
    # report carries names only so it regenerates byte-identically into any
    # output directory; the manifest records absolute paths
    report = {
        "subcommand": "gen-field",
        "n": n,
        "m": m,
        "plan": plan.to_config(),
        "coupling_max_abs_gap": coupling,
        "files": names,
        "passed": True,
    }
    return True, report, {}


def cmd_kde(cfg: dict):
    sec = cfg["kde"]
    kern = kernel_by_name(cfg["kernel"])
    n, m = sec.number("n", integer=True), sec.number("m", integer=True)
    xs = sec.numbers("x_grid")
    model, innov, plan, b, values, _ = _coupled_draw(cfg, sec)
    est = kde_estimate(values, np.array(xs), b, kern)
    rows = []
    oracle = density_oracle(model, innov, m)
    for x, e, ex in zip(xs, np.atleast_1d(est), expected_kde(oracle, kern, b, xs)):
        px = float(oracle.p(x))
        rows.append({"x": x, "estimate": float(e), "b": b, "oracle_density": px,
                     "expected_estimate": float(ex), "sigma2_x": asymptotic_variance(px, kern)})
    report = {
        "subcommand": "kde",
        "n": n,
        "m": m,
        "plan": plan.to_config(),
        "b": b,
        "kernel": kern.name,
        "curve": rows,
        "passed": True,
    }
    cols = ["x", "estimate", "b", "oracle_density", "expected_estimate", "sigma2_x"]
    return True, report, {"kde_curve": (rows, cols)}


def cmd_clt_run(cfg: dict):
    # only clt-run has a variance verdict
    config = replace(_experiment(cfg, "clt"), variance_band=cfg["clt"].number("variance_band"))
    report = run_clt_experiment(config)
    rows = []
    summary = []
    for point in report.points:
        for r, (t, tz, tr) in enumerate(
            zip(point["T"], point["T_zeta"], point["T_remainder"])
        ):
            rows.append(
                {"n": point["n"], "x": point["x"], "replicate": r, "T": t, "T_zeta": tz,
                 "T_remainder": tr}
            )
        ks = point.get("ks", {})
        summary.append(
            {
                "n": point["n"], "x": point["x"], "b": point["b"], "m": point["m"],
                "M": point["M"], "replicates": point["replicates"], "mean": point["mean"],
                "variance": point["variance"], "skewness": point["skewness"],
                "excess_kurtosis": point["excess_kurtosis"],
                "ks_distance": ks.get("distance"), "ks_crit_05": ks.get("crit_05"),
                "ks_crit_01": ks.get("crit_01"), "sigma2_target": point["sigma2_target"],
                "remainder_second_moment": point["remainder_second_moment"],
                "verdict": point["verdicts"]["overall"],
            }
        )
    ok = report.overall != "fail"
    return ok, report.to_dict(), {
        "clt_replicates": (rows, CLT_REPLICATE_COLUMNS),
        "clt_summary": (summary, CLT_SUMMARY_COLUMNS),
    }


def cmd_blocks(cfg: dict):
    sec = cfg["blocks"]
    config = _experiment(cfg, "blocks")
    if config.replicates < 2:
        # var_delta is a sample variance, which one replicate cannot give
        raise ToolError(f"config key {sec.path('replicates')} must be at least 2, got {config.replicates}")
    plan = BlockPlan(
        m=sec.number("m", integer=True, optional=True),
        delta=sec.number("delta", optional=True),
        l=sec.number("l", integer=True, optional=True),
    )
    samples = _block_samples(config, plan)
    decomposition = block_decomposition_check(config, samples)
    lf = lindeberg_estimate(config, samples, sec.numbers("eps"))
    ok = decomposition["passed"] and lf["passed"]
    report = {
        "subcommand": "blocks",
        "config": config.resolved(),
        "decomposition": decomposition,
        "lindeberg": lf,
        "passed": bool(ok),
    }
    lf_rows = []
    for row in lf["rows"]:
        for e, v in row["lf2"].items():
            lf_rows.append(
                {"n": row["n"], "m": row["m"], "l": row["l"],
                 "block_samples": row["block_samples"], "lf1": row["lf1"], "eps": e, "lf2": v}
            )
    return ok, report, {
        "block_gap": (decomposition["rows"], BLOCK_COLUMNS),
        "lindeberg": (lf_rows, LF_COLUMNS),
    }


def _wu_orders(sec: _Section) -> list:
    """moment_check.wu_p: a list of orders 1 and 2, empty to leave the moment inequality out."""
    orders = sec["wu_p"]
    if not (isinstance(orders, list) and all(_is_number(p, True) and p in (1, 2) for p in orders)):
        raise ToolError(f"config key {sec.path('wu_p')} must be a list of orders 1 or 2, got {json.dumps(orders)}")
    return [int(p) for p in orders]


def _rectangles(sec: _Section, d: int, n_grid) -> list:
    """moment_check.rectangles: a nonempty list of integer sides >= 1, or of lists of d of them,
    each side at most the smallest grid point's n."""
    rects = sec["rectangles"]

    def sides(rect):
        return rect if isinstance(rect, list) else [rect] * d

    if not (
        isinstance(rects, list) and rects
        and all(len(sides(r)) == d and all(_is_number(t, True) and t >= 1 for t in sides(r)) for r in rects)
    ):
        raise ToolError(
            f"config key {sec.path('rectangles')} must be a nonempty list of integer sides >= 1, "
            f"or of lists of d = {d} of them, got {json.dumps(rects)}"
        )
    too_big = [r for r in rects if max(sides(r)) > min(n_grid)]
    if too_big:
        raise ToolError(
            f"config key {sec.path('rectangles')} must fit inside every grid point: "
            f"{json.dumps(too_big)} exceed n = {min(n_grid)}"
        )
    return [tuple(int(t) for t in sides(r)) for r in rects]


def cmd_moment_check(cfg: dict):
    sec = cfg["moment_check"]
    config = _experiment(cfg, "moment_check")
    orders, rects = _wu_orders(sec), _rectangles(sec, config.model.d, config.n_grid)
    try:
        wu_reports = wu_inequality_check(
            config.model, config.innovations, orders,
            sec.number("wu_sample", integer=True), master_seed=config.master_seed,
            max_bytes=config.max_field_bytes, threads=config.threads,
        )
    except FieldSizeError as exc:
        raise ToolError(f"limits.max_field_bytes: {exc}") from None
    try:
        rect = rectangle_moment_check(config, rects, ratio_cap=sec.number("ratio_cap"))
    except MomentError as exc:
        raise ToolError(f"config key {sec.path('x_points')}: {exc}") from None
    ok = rect["passed"]
    report = {
        "subcommand": "moment-check",
        "config": config.resolved(),
        "wu": wu_reports,
        "rectangles": rect,
        "passed": bool(ok),
    }
    return ok, report, {"rectangle_moments": (rect["rows"], RECT_COLUMNS)}


def cmd_fixed_m_gap(cfg: dict):
    sec = cfg["gap"]
    config = _experiment(cfg, "gap")
    rep = fixed_m_gap(
        config,
        m=sec.number("m", integer=True, optional=True),
        mode=sec["mode"],
    )
    report = {
        "subcommand": "fixed-m-gap",
        "config": config.resolved(),
        "gap": rep,
        "passed": bool(rep["passed"]),
    }
    return rep["passed"], report, {"gap": (rep["rows"], GAP_COLUMNS)}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldkde",
        description="Simulation lab for kernel density estimation on causal linear random fields",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = [
        "check-conditions", "gen-field", "kde", "clt-run", "blocks", "moment-check",
        "fixed-m-gap",
    ]
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config document")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable, dotted keys)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=None, help="replicate worker count")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or ./runs)")
        p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    return parser


_HANDLERS = {
    "check-conditions": lambda cfg, out: cmd_check_conditions(cfg),
    "kde": lambda cfg, out: cmd_kde(cfg),
    "clt-run": lambda cfg, out: cmd_clt_run(cfg),
    "blocks": lambda cfg, out: cmd_blocks(cfg),
    "moment-check": lambda cfg, out: cmd_moment_check(cfg),
    "fixed-m-gap": lambda cfg, out: cmd_fixed_m_gap(cfg),
    "gen-field": cmd_gen_field,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out or os.environ.get(OUT_ENV) or "runs") / args.subcommand.replace("-", "_")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(args.config, args.set, seed=args.seed, threads=args.threads)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = RunManifest(
        subcommand=args.subcommand,
        config=cfg,
        master_seed=cfg.number("seed", integer=True),
        tool_version=__version__,
        started=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    code = 0
    try:
        with worker_pool():
            ok, report, tables = _HANDLERS[args.subcommand](cfg, out_dir)
        if isinstance(report, dict) and report.get("files"):
            manifest.outputs.extend(str(out_dir / name) for name in report["files"])
        if args.format in ("json", "both"):
            manifest.outputs.append(write_report(report, out_dir / "report.json"))
        if args.format in ("csv", "both"):
            for name, (rows, columns) in tables.items():
                if rows:
                    manifest.outputs.append(write_csv(rows, out_dir / f"{name}.csv", columns))
        manifest.verdicts = {"passed": bool(ok)}
        manifest.status = "complete"
        code = 0 if ok else 2
    except (ToolError, FieldSizeError, ValueError) as exc:
        manifest.status = "error"
        manifest.error = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    finally:
        manifest.write(out_dir / "manifest.json")
    return code


def run_script(name: str, config, subcommands, argv) -> int:
    """Run ready-made experiment ``name``: each subcommand with ``config`` and ``argv``.

    Outputs go to OUT/<name>/<subcommand_name>/, so experiments that share a
    subcommand do not overwrite each other.  Stops at the first tool error
    (exit 1); otherwise returns the largest exit code.  The subcommands
    share one worker pool.
    """
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    base = out.parse_known_args(argv)[0].out or os.environ.get(OUT_ENV) or "runs"
    code = 0
    with worker_pool():
        for sub in subcommands:
            code = max(code, main([sub, "--config", str(config), *argv, "--out", str(Path(base) / name)]))
            if code == 1:
                break
    return code


if __name__ == "__main__":
    sys.exit(main())
