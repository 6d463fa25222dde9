"""fieldkde benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, the
benchmark puts ``src`` on the path itself. Each pass runs the workload's
subcommands in-process through ``fieldkde.cli.main`` with ``--seed N`` and
``--out`` in a temporary directory under ``.perfbench_work/``, then checks
the outputs (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with tracing off: one warm-up
pass, then passes for ``--seconds`` seconds (at least three), reporting
medians. Pass times are divided by the median host-speed factor of probes
taken after each pass (``hostspeed.py``), so they read in fast-state seconds;
the raw quartiles are printed beside them. On a workload run at more than one
thread a last pass at one thread checks that the reports are byte-identical
for any worker count.

``--trace 1`` gives the per-layer metrics: rounds of an untraced pass at one
thread, an untraced pass at two threads and a traced pass at one thread
(spans made in pool workers would be lost), for ``--seconds`` seconds. Spans
are written to ``.perfbench_work/trace-<workload>-<seed>.json`` at the end.

Set-up time (``--trace 0`` only) is the median of five fresh interpreters
running ``setup_probe.py``; it is measured apart from the passes, which run
warm.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics for reading. A failed operation is a CLI invocation
that raised, exited 1, wrote a non-finite value, failed its workload check,
or wrote reports whose digests differ from the first pass of the run. Exit
code 2 is a statistical verdict and is only counted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 5
MIN_PASSES = 3

sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from spans import PER_LAYER, ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, StepOutput, Workload, check_step  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


@dataclass
class PassResult:
    threads: int
    wall: float = 0.0
    cpu: float = 0.0
    steps: list = field(default_factory=list)  # StepOutput per step


class Runner:
    """Runs passes of one workload and keeps the failure accounting."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.exit2 = 0
        self.reference = None  # digests of the first pass
        self.problems: list = []

    def run_pass(self, threads: int, tracer: Tracer | None = None, label: str = "") -> PassResult:
        import fieldkde.cli as cli

        result = PassResult(threads)
        with tempfile.TemporaryDirectory(dir=self.work) as tmp:
            for i, step in enumerate(self.workload.steps):
                out_root = Path(tmp) / str(i)
                argv = self.workload.argv(step, self.root, self.seed, threads, out_root)
                out = StepOutput(step.subcommand, None)
                c0 = os.times()
                t0 = time.perf_counter()
                span = tracer.open(ROOT_SPAN) if tracer else None
                try:
                    with contextlib.redirect_stdout(sys.stderr):
                        out.code = cli.main(argv)
                except SystemExit as exc:  # the CLI rejected its arguments
                    out.code = exc.code
                    out.problems.append(f"CLI exited with {exc.code!r} before running")
                except Exception:  # a crash is a failed operation, not a benchmark error
                    traceback.print_exc()
                    out.problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
                finally:
                    if span is not None:
                        tracer.close(span)
                t1 = time.perf_counter()
                c1 = os.times()
                result.wall += t1 - t0
                result.cpu += sum(c1[k] - c0[k] for k in range(4))
                check_step(step, out_root / step.subcommand.replace("-", "_"), out, self.root)
                result.steps.append(out)
        self._account(result, label)
        return result

    def _account(self, result: PassResult, label: str) -> None:
        digests = [s.digests for s in result.steps]
        if self.reference is None:
            self.reference = digests
        for out, ref in zip(result.steps, self.reference):
            if out.digests != ref:
                out.problems.append(
                    f"report digests differ from the first pass ({label or 'repeat pass'}, "
                    f"threads {result.threads})"
                )
            self.attempted += 1
            self.exit2 += out.code == 2
            if out.problems:
                self.failed += 1
                self.problems.extend(f"{out.subcommand}: {p}" for p in out.problems)


def measure_setup(root: Path, workload: Workload, probes: int) -> list:
    points = json.dumps([[p.n, p.m, p.policy, p.M] for p in workload.setup_points])
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(root / "src"), str(root / workload.config), points]
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g} n={len(values)}"


def timed_run(runner: Runner, seconds: float, setup: list, host: HostSpeed) -> dict:
    wl = runner.workload
    runner.run_pass(wl.threads, label="warm-up")
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(wl.threads))
        host.probe(wl.threads)
    if wl.threads != 1:
        runner.run_pass(1, label="worker-count invariance")
    walls = [p.wall for p in passes]
    rates = [wl.items / p.wall for p in passes]
    cpus = [p.cpu for p in passes]
    ok = 1.0 - runner.failed / runner.attempted
    slow = statistics.median(host.samples)
    values = {
        "wall_s": statistics.median(walls) / slow,
        "work_per_s": statistics.median(rates) * slow,
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus) / slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok,
    }
    print(f"host slowdown {slow:.4g} (median of {len(host.samples)} probes, {_quartiles(host.samples)}); "
          "pass times below are raw / slowdown")
    notes = {
        "wall_s": f"median pass, raw {_quartiles(walls)}, threads {wl.threads}",
        "work_per_s": f"{wl.item_unit} per second ({wl.items} per pass), raw {_quartiles(rates)}",
        "setup_s": f"median of {len(setup)} fresh interpreters (not rescaled), {_quartiles(setup)}",
        "cpu_s": f"user+sys incl. pool workers per pass, raw {_quartiles(cpus)}",
        "peak_rss_mb": "max resident set of the benchmark process",
        "ok_frac": f"1 - failed_frac; failed_frac = {1.0 - ok:.6g} ({runner.failed}/{runner.attempted})",
    }
    for name, unit in END_TO_END:
        print(f"{name:<14} {values[name]:>14.6g} {unit:<6} {notes[name]}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> dict:
    runner.run_pass(1, label="warm-up")
    tracer = Tracer()
    untraced1, untraced2, traced, per_pass, recorded = [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced1.append(runner.run_pass(1, label="untraced"))
        untraced2.append(runner.run_pass(2, label="worker-count invariance"))
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(1, tracer, label="traced"))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.pass_values())
        recorded.append({"spans": tracer.spans, "calls": dict(tracer.calls), "amounts": dict(tracer.amounts)})
    wall1 = statistics.median(p.wall for p in untraced1)
    wall2 = statistics.median(p.wall for p in untraced2)
    derived = {
        "clt.speedup_t2": wall1 / wall2,
        "clt.cpu_per_wall": statistics.median(p.cpu / p.wall for p in untraced2),
        "trace.overhead_frac": statistics.median(p.wall for p in traced) / wall1 - 1.0,
    }
    absent = tracer.absent_bindings()
    metrics = {}
    for m in PER_LAYER:
        if m.kind == "derived":
            value, state = derived[m.name], ""
        else:
            value = statistics.median(v[m.name] for v in per_pass)
            state = "" if tracer.layer_present(m.layer) else "ABSENT "
            if math.isnan(value):  # the amount hook lost an entry point it reads
                value, state = 0.0, "ABSENT "
        if m.in_result:
            metrics[m.name] = {"value": value, "unit": m.unit}
        else:
            state += "(printed only) "
        print(f"{m.name:<26} {value:>14.6g} {m.unit:<6} {state}-> {m.moves}")
    print(f"traced passes {len(traced)}; untraced wall {wall1:.4g} s at 1 thread, {wall2:.4g} s at 2 threads")
    if absent:
        print("absent entry points: " + ", ".join(absent))
    trace_path.write_text(
        json.dumps(
            {
                "workload": runner.workload.name,
                "seed": runner.seed,
                "span_fields": ["name", "start", "end", "parent"],
                "absent": absent,
                "passes": recorded,
            }
        ),
        encoding="utf-8",
    )
    print(f"spans written to {trace_path.relative_to(runner.root)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "fieldkde" / "cli.py", ROOT / workload.config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a fieldkde source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    seed = args.seed % (1 << 64)  # the CLI takes any 64-bit unsigned master seed
    sys.path.insert(0, str(ROOT / "src"))
    runner = Runner(ROOT, workload, seed, work)
    print(f"workload {workload.name}, seed {seed}, trace {args.trace}")
    if args.trace:
        metrics = traced_run(runner, args.seconds, work / f"trace-{workload.name}-{seed}.json")
    else:
        metrics = timed_run(runner, args.seconds, measure_setup(ROOT, workload, SETUP_PROBES), HostSpeed())
    print(f"attempted {runner.attempted}, failed {runner.failed}, exit-2 verdicts {runner.exit2}")
    for problem in runner.problems:
        print("FAILED " + problem)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
