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
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .clt import (
    BlockPlan,
    ExperimentConfig,
    block_decomposition_check,
    _block_samples,
    fixed_m_gap,
    lindeberg_estimate,
    rectangle_moment_check,
    run_clt_experiment,
    wu_inequality_check,
)
from .coefficients import (
    check_condition_c,
    check_decay_window,
    check_hallin,
    check_machkouri_qsum,
    model_from_config,
)
from .field import (
    FieldSizeError,
    generate_coupled_fields,
    plan_truncation,
    write_field_binary,
    write_field_csv,
)
from .innovations import InnovationModel, SeedSpec
from .kde import BandwidthSchedule, OracleError, asymptotic_variance, density_oracle, expected_kde, kde_estimate, kernel_by_name
from .reporting import RunManifest, write_csv, write_report

__all__ = ["main", "DEFAULT_CONFIG"]

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
        "beta": None,
        "gamma": None,
        "hallin_q": None,
        "qsum_q": None,
        "qsum_radius": 256,
        "n_grid": [16, 32, 64, 128],
        "delta": None,
    },
    "gen_field": {"n": 64, "m": 2, "write_csv": False},
    "kde": {"n": 1024, "m": 2, "x_grid": [-2.0, -1.0, 0.0, 1.0, 2.0]},
    "clt": {
        "n_grid": [1024],
        "x_points": [0.0],
        "replicates": 200,
        "centering": "oracle",
        "variance_band": 0.10,
    },
    "blocks": {
        "m": 4,
        "l": None,
        "delta": None,
        "n_grid": [256, 1024, 4096],
        "replicates": 400,
        "eps": [0.5, 1.0, 2.0],
    },
    "moment_check": {
        "wu_p": [1, 2],
        "wu_sample": 200000,
        "rectangles": [4, 16, 64, 256, 1024],
        "n_grid": [1024],
        "replicates": 400,
        "ratio_cap": 3.0,
    },
    "gap": {"m": 2, "mode": "fixed", "n_grid": [1024, 4096], "replicates": 100},
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
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = _deep_merge(cfg, json.load(fh))
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
    return cfg


def _bandwidth(cfg: dict) -> BandwidthSchedule:
    d = int(cfg["coefficient"]["d"])
    bw = cfg["bandwidth"]
    return BandwidthSchedule(d=d, gamma=float(bw["gamma"]), c2=float(bw.get("c2", 1.0)))


def _experiment(cfg: dict, section: str) -> ExperimentConfig:
    sec = cfg[section]
    return ExperimentConfig(
        model=model_from_config(cfg["coefficient"]),
        innovations=InnovationModel.from_config(cfg["innovations"]),
        kernel=kernel_by_name(cfg["kernel"]),
        bandwidth=_bandwidth(cfg),
        n_grid=tuple(sec["n_grid"]),
        x_points=tuple(sec["x_points"]) if sec.get("x_points") is not None else None,
        delta=cfg["schedule"].get("delta"),
        truncation_policy=cfg["truncation"]["policy"],
        truncation_eta=float(cfg["truncation"].get("eta", 0.01)),
        truncation_M=cfg["truncation"].get("M"),
        replicates=int(sec.get("replicates", 200)),
        master_seed=int(cfg["seed"]),
        centering=sec.get("centering", "oracle"),
        variance_band=float(sec.get("variance_band", 0.10)),
        threads=int(cfg.get("threads", 1)),
        max_field_bytes=int(cfg.get("limits", {}).get("max_field_bytes", 1 << 30)),
    )


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
    model = model_from_config(cfg["coefficient"])
    bw = _bandwidth(cfg)
    gamma = sec.get("gamma")
    gamma = float(gamma) if gamma is not None else bw.gamma
    beta = sec.get("beta")
    beta = float(beta) if beta is not None else model.decay_exponent()
    window = check_decay_window(model.d, beta, gamma)
    choices = (sec.get("delta"), cfg["schedule"].get("delta"), window.delta_star)
    delta = next((v for v in choices if v is not None), None)
    reports = {"decay_window": window.to_dict()}
    ok = window.passed
    if sec.get("hallin_q") is not None:
        hallin = check_hallin(model.d, float(sec["hallin_q"]), gamma)
        reports["hallin"] = hallin.to_dict()
    if sec.get("qsum_q") is not None:
        qs = check_machkouri_qsum(model, float(sec["qsum_q"]), int(sec["qsum_radius"]))
        reports["qsum"] = qs.to_dict()
    rows = []
    if delta is not None:
        cond = check_condition_c(model, bw, float(delta), [int(n) for n in sec["n_grid"]])
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
    model = model_from_config(cfg["coefficient"])
    innov = InnovationModel.from_config(cfg["innovations"])
    bw = _bandwidth(cfg)
    n, m = int(sec["n"]), int(sec["m"])
    plan = plan_truncation(
        model,
        m=m,
        policy=cfg["truncation"]["policy"],
        b=bw.b(n),
        eta=float(cfg["truncation"].get("eta", 0.01)),
        M=cfg["truncation"].get("M"),
    )
    fields = generate_coupled_fields(
        model,
        innov,
        n,
        m,
        plan,
        SeedSpec(int(cfg["seed"])),
        max_bytes=int(cfg.get("limits", {}).get("max_field_bytes", 1 << 30)),
    )
    names = []
    for tag, f in (("full", fields.full), ("truncated", fields.truncated), ("residual", fields.residual)):
        p = out_dir / f"field_{tag}.bin"
        write_field_binary(f, p)
        names.append(p.name)
        if sec.get("write_csv") and n <= 64:
            pc = out_dir / f"field_{tag}.csv"
            write_field_csv(f, pc)
            names.append(pc.name)
    coupling = float(
        np.max(np.abs(fields.full.values - fields.truncated.values - fields.residual.values))
    )
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
    model = model_from_config(cfg["coefficient"])
    innov = InnovationModel.from_config(cfg["innovations"])
    kern = kernel_by_name(cfg["kernel"])
    bw = _bandwidth(cfg)
    n, m = int(sec["n"]), int(sec["m"])
    b = bw.b(n)
    plan = plan_truncation(model, m=m, policy="bandwidth_relative", b=b,
                           eta=float(cfg["truncation"].get("eta", 0.01)))
    fields = generate_coupled_fields(model, innov, n, m, plan, SeedSpec(int(cfg["seed"])))
    xs = [float(x) for x in sec["x_grid"]]
    est = kde_estimate(fields.full, np.array(xs), b, kern)
    rows = []
    oracle = density_oracle(model, innov, m)
    for x, e in zip(xs, np.atleast_1d(est)):
        row = {"x": x, "estimate": float(e), "b": b}
        row["oracle_density"] = float(oracle.p(x))
        if oracle.exact:
            row["expected_estimate"] = expected_kde(oracle, kern, b, x)
        row["sigma2_x"] = asymptotic_variance(float(oracle.p(x)), kern)
        rows.append(row)
    report = {
        "subcommand": "kde",
        "n": n,
        "b": b,
        "kernel": kern.name,
        "oracle_exact": oracle.exact,
        "curve": rows,
        "passed": True,
    }
    cols = ["x", "estimate", "b", "oracle_density", "expected_estimate", "sigma2_x"]
    return True, report, {"kde_curve": (rows, cols)}


def cmd_clt_run(cfg: dict):
    config = _experiment(cfg, "clt")
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
    plan = BlockPlan(m=sec.get("m"), delta=sec.get("delta"), l=sec.get("l"))
    samples = _block_samples(config, plan)
    decomposition = block_decomposition_check(config, plan, samples=samples)
    lf = lindeberg_estimate(config, plan, sec.get("eps", [0.5, 1.0, 2.0]), samples=samples)
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


def cmd_moment_check(cfg: dict):
    sec = cfg["moment_check"]
    config = _experiment(cfg, "moment_check")
    wu_reports = []
    ok = True
    for p in sec.get("wu_p", [1, 2]):
        try:
            wu = wu_inequality_check(
                config.model, config.innovations, p, int(sec.get("wu_sample", 200000)),
                master_seed=config.master_seed,
            )
            wu_reports.append(wu)
        except (ValueError,) as exc:
            raise ToolError(str(exc))
    rect = rectangle_moment_check(config, sec["rectangles"], ratio_cap=float(sec.get("ratio_cap", 3.0)))
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
        m=sec.get("m"),
        n_grid=sec.get("n_grid"),
        mode=sec.get("mode", "fixed"),
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
        master_seed=int(cfg["seed"]),
        tool_version=__version__,
        started=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    code = 0
    try:
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
    except (ToolError, FieldSizeError, OracleError, ValueError) as exc:
        manifest.status = "error"
        manifest.error = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    finally:
        manifest.write(out_dir / "manifest.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
