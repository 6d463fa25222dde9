"""The three benchmark workloads and the checks on their outputs.

Each workload is a fixed sequence of ``fieldkde`` subcommands run in-process
through ``fieldkde.cli.main``. They are chosen so that each of the lab's three
user-visible costs dominates one of them:

* ``clt_d2`` -- replicate generation on the FFT path (d=2, M = 15 and 24),
  single-threaded, so batched or shared-spectrum generation shows without
  scheduler noise.
* ``blocks_d1`` -- replicate scheduling: about 5,000 tiny d=1 replicates on the
  direct convolution path at ``--threads 2``, where per-replicate seeding,
  draws, pickled tasks and prefix sums dominate and FFT changes do nothing.
* ``kde_curve`` -- the deterministic layers: 101 quadrature centerings, tail
  certification and one kernel density estimate over 65,536 sites, with
  almost no Monte Carlo work, so only closed-form centering moves it.

Only config keys documented in the README are overridden, so schema
validation of the config sections cannot break a workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CLT_N_GRID = (64, 256)
CLT_REPLICATES = 200
CLT_X = (0.0,)
KDE_N = 256
KDE_M = 10
KDE_X_GRID = tuple(round(-2.5 + 0.05 * i, 10) for i in range(101))
DECOMPOSITION_TOL = 1e-9
CENTERING_TOL = 1e-9


# ---------------------------------------------------------------------------
# output checks


@dataclass
class StepOutput:
    """What one CLI invocation left behind."""

    subcommand: str
    code: int | None  # None when main raised
    digests: dict = field(default_factory=dict)  # file name -> sha256, manifest excluded
    problems: list = field(default_factory=list)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def _finite_json(path: Path):
    """Parse a report, refusing NaN and infinities anywhere in it."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _nonfinite_csv_cells(path: Path) -> int:
    bad = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                bad += not math.isfinite(value)
    return bad


def inspect_outputs(step_dir: Path, out: StepOutput) -> dict | None:
    """Digest every output file and flag non-finite values; return the parsed report."""
    report = None
    for path in sorted(step_dir.iterdir()):
        if path.name == "manifest.json" or not path.is_file():
            continue
        out.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".csv":
            bad = _nonfinite_csv_cells(path)
            if bad:
                out.problems.append(f"{path.name}: {bad} non-finite cells")
    report_path = step_dir / "report.json"
    if not report_path.is_file():
        out.problems.append("no report.json written")
        return None
    try:
        report = _finite_json(report_path)
    except ValueError as exc:
        out.problems.append(f"report.json: {exc}")
    return report


def check_clt(step_dir: Path, report: dict, out: StepOutput, root: Path) -> None:
    """Row count R*|n_grid|*|x| and the exact split T = T_zeta + T_remainder."""
    expected = CLT_REPLICATES * len(CLT_N_GRID) * len(CLT_X)
    path = step_dir / "clt_replicates.csv"
    if not path.is_file():
        out.problems.append("clt_replicates.csv missing")
        return
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected:
        out.problems.append(f"clt_replicates.csv has {len(rows)} rows, expected {expected}")
    worst = 0.0
    for row in rows:
        gap = abs(float(row["T"]) - float(row["T_zeta"]) - float(row["T_remainder"]))
        worst = max(worst, gap if math.isfinite(gap) else math.inf)
    if worst > DECOMPOSITION_TOL:
        out.problems.append(f"|T - T_zeta - T_remainder| reaches {worst:.3g}")


def check_kde(step_dir: Path, report: dict, out: StepOutput, root: Path) -> None:
    """Gaussian kernel, Gaussian field: E f_n(x) is the N(0, v + b^2) density at x."""
    from fieldkde.coefficients import model_from_config, total_sq_mass

    config = json.loads((root / "configs" / "power_decay_d2.json").read_text(encoding="utf-8"))
    v = total_sq_mass(model_from_config(config["coefficient"]))
    curve = report.get("curve", [])
    if len(curve) != len(KDE_X_GRID):
        out.problems.append(f"kde curve has {len(curve)} points, expected {len(KDE_X_GRID)}")
    worst = 0.0
    for row in curve:
        s2 = v + row["b"] ** 2
        closed = math.exp(-0.5 * row["x"] ** 2 / s2) / math.sqrt(2.0 * math.pi * s2)
        expected = row.get("expected_estimate")
        gap = math.inf if expected is None else abs(expected - closed)
        worst = max(worst, gap)
    if worst > CENTERING_TOL:
        out.problems.append(f"expected_estimate is {worst:.3g} from the closed form")


def check_step(step: "Step", step_dir: Path, out: StepOutput, root: Path) -> None:
    if out.code not in (0, 2):
        out.problems.append(f"exit code {out.code}")
    if not step_dir.is_dir():
        out.problems.append("no output directory")
        return
    report = inspect_outputs(step_dir, out)
    if report is None:
        return
    if step.check is not None:
        step.check(step_dir, report, out, root)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Step:
    """One CLI invocation: a subcommand and its ``--set`` overrides."""

    subcommand: str
    sets: tuple = ()
    check: Callable | None = None  # workload-specific output check


@dataclass(frozen=True)
class SetupPoint:
    """One (n, m) whose truncation plan, oracle and coefficient box are set-up work."""

    n: int
    m: int
    policy: str = "bandwidth_relative"
    M: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the checkout root
    steps: tuple
    threads: int
    items: int  # replicates, or curve points, per pass
    item_unit: str
    setup_points: tuple

    def argv(self, step: Step, root: Path, seed: int, threads: int, out: Path) -> list:
        args = [step.subcommand, "--config", str(root / self.config)]
        for assignment in step.sets:
            args += ["--set", assignment]
        return args + ["--seed", str(seed), "--threads", str(threads), "--out", str(out)]


def _m_schedule(n: int, delta: float) -> int:
    return max(1, math.floor(float(n) ** delta))


# power_decay_d2.json: schedule.delta = 5/12; blocks_d1.json: blocks.m = 4 and
# moment_check follows m_n = floor(n^0.15) at n = 1024
_D2_DELTA = 0.4166666666666667
_BLOCKS_N_GRID = (256, 1024, 4096)
_BLOCKS_REPLICATES = 1500
_MOMENT_N_GRID = (1024,)
_MOMENT_REPLICATES = 400

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clt_d2",
            config="configs/power_decay_d2.json",
            steps=(
                Step(
                    "clt-run",
                    (
                        f"clt.n_grid={json.dumps(list(CLT_N_GRID))}",
                        f"clt.replicates={CLT_REPLICATES}",
                        f"clt.x_points={json.dumps(list(CLT_X))}",
                    ),
                    check_clt,
                ),
            ),
            threads=1,
            items=CLT_REPLICATES * len(CLT_N_GRID),
            item_unit="replicates",
            setup_points=tuple(SetupPoint(n, _m_schedule(n, _D2_DELTA)) for n in CLT_N_GRID),
        ),
        Workload(
            name="blocks_d1",
            config="configs/blocks_d1.json",
            steps=(Step("blocks"), Step("moment-check")),
            threads=2,
            items=_BLOCKS_REPLICATES * len(_BLOCKS_N_GRID) + _MOMENT_REPLICATES * len(_MOMENT_N_GRID),
            item_unit="replicates",
            setup_points=tuple(SetupPoint(n, 4, "fixed", 4) for n in _BLOCKS_N_GRID)
            + tuple(SetupPoint(n, _m_schedule(n, 0.15)) for n in _MOMENT_N_GRID),
        ),
        Workload(
            name="kde_curve",
            config="configs/power_decay_d2.json",
            steps=(
                Step("check-conditions"),
                Step(
                    "kde",
                    (
                        f"kde.n={KDE_N}",
                        f"kde.m={KDE_M}",
                        f"kde.x_grid={json.dumps(list(KDE_X_GRID))}",
                    ),
                    check_kde,
                ),
            ),
            threads=1,
            items=len(KDE_X_GRID),
            item_unit="curve points",
            setup_points=(SetupPoint(KDE_N, KDE_M),),
        ),
    )
}
