#!/usr/bin/env python3
"""Every CI gate of the repository, one function each: ``python scripts/gates.py [--base DIR]``.

Each run is a fresh child process on this checkout's ``src`` and writes under one temporary directory. One line
per gate, PASS or FAIL, goes to stdout and, when ``GITHUB_STEP_SUMMARY`` is set, to that file; the exit code is 1
when a gating gate fails. ``--base DIR`` adds a report, which gates nothing, against the checkout at DIR.
"""

import argparse
import csv
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("run_iid_baseline", "run_power_decay_d2", "run_truncation_gap", "run_block_construction")
ACCEPTED = (0, 2)  # exit 2 is a failed statistical verdict, whose reports count all the same
GAP = "geometric_truncation_gap"
T5 = 'innovations={"name":"student_t","nu":5.0}'
UNIFORM = 'innovations={"name":"uniform"}'


def need(ok, message):
    """Fail the gate with ``message`` unless ``ok``."""
    if not ok:
        raise AssertionError(message)


def cli(sub, config, *sets):
    """The arguments of ``python -m fieldkde sub`` on configs/<config>.json with each of ``sets`` as a ``--set``."""
    return ["-m", "fieldkde", sub, "--config", ROOT / "configs" / f"{config}.json",
            *(arg for key in sets for arg in ("--set", key))]


def spawn(argv, tree=ROOT, timeout=None, accepted=ACCEPTED):
    """Run ``python *argv`` as a fresh child on ``tree``'s package, under coreutils ``timeout`` if one is given: its
    exit code, which must be in ``accepted`` unless that is None, peak RSS in MB (``ru_maxrss``), stdout and stderr."""
    cmd = [*(["timeout", str(timeout)] if timeout else []), sys.executable, *map(str, argv)]
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.posix_spawnp(cmd[0], cmd, env, file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                                              (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
        out.seek(0)
        err.seek(0)
        code, stdout, stderr = os.waitstatus_to_exitcode(status), out.read().decode(), err.read().decode()
    need(accepted is None or code in accepted, f"{' '.join(map(str, argv))} exits {code}: {stderr.strip()}")
    return code, usage.ru_maxrss / 1024, stdout, stderr


def tree_diff(a, b):
    """What ``diff -rq -x manifest.json a b`` prints: the files whose bytes differ, those on one side only and any
    directory that is missing."""
    done = subprocess.run(["diff", "-rq", "-x", "manifest.json", a, b], capture_output=True, text=True, check=False)
    return (done.stdout + done.stderr).splitlines()


def same_trees(a, b):
    differences = tree_diff(a, b)
    need(not differences, "; ".join(differences))


def at_both_thread_counts(runs, out):
    """Each (subdirectory, argv) of ``runs`` at ``--threads`` 1, then 2, into out/t1 and out/t2, which must match."""
    for threads in (1, 2):
        for sub, argv in runs:
            spawn([*argv, "--threads", threads, "--out", out / f"t{threads}" / sub])
    same_trees(out / "t1", out / "t2")


def src_lines(tree, *names):
    """What ``cat src/fieldkde/*.py | wc -l`` counts, or over ``names`` alone."""
    files = (tree / "src" / "fieldkde").glob("*.py")
    return sum(p.read_text().count("\n") for p in files if p.name in names or not names)


def counts(tmp):
    """The source size and every value that can be set, which are tracked design metrics."""
    sys.path.insert(0, str(ROOT / "src"))
    import fieldkde
    from fieldkde.cli import CONFIG_KEYS
    from fieldkde.clt import ExperimentConfig

    mods = [importlib.import_module(f"fieldkde.{m.name}") for m in pkgutil.iter_modules(fieldkde.__path__)
            if m.name != "__main__"]
    errors = [c for m in mods for c in vars(m).values()
              if inspect.isclass(c) and issubclass(c, Exception) and c.__module__ == m.__name__]
    # ParameterError, which carries a config key, should be the one exception class and define its own __init__
    inits = sum("__init__" in vars(c) for c in errors)
    keys = sum(len(k) if isinstance(k, dict) else 1 for k in CONFIG_KEYS.values())
    return (f"src/fieldkde {src_lines(ROOT)} lines, cli.py {src_lines(ROOT, 'cli.py')}, clt.py "
            f"{src_lines(ROOT, 'clt.py')}, cli.py + clt.py {src_lines(ROOT, 'cli.py', 'clt.py')}; ExperimentConfig "
            f"{len(dataclasses.fields(ExperimentConfig))} fields, CONFIG_KEYS {keys} keys, exception classes "
            f"{len(errors)}, with their own __init__ {inits}")


# Each worker reduces in its workspace's idle buffers and holds one batch of an even split; in the three-point
# runs each point's results are freed before the next and the keys hash 4,096 replicates at a time.
GRID = ("moment_check.replicates=100000", "moment_check.n_grid=[16,32,64]", "moment_check.rectangles=[2,4,8,16]")
GAP_GRID = ("gap.replicates=100000", "gap.n_grid=[16,32,64]")
MEMORY_RUNS = (  # subcommand, config, threads, gate in MB, --set values
    ("moment-check", "blocks_d1", 1, 80, ()), ("blocks", "blocks_d1", 1, 50, ()),
    ("moment-check", "blocks_d1", 2, 60, ()), ("blocks", "blocks_d1", 2, 60, ()),
    ("fixed-m-gap", GAP, 1, 48, ()), ("fixed-m-gap", GAP, 2, 51, ()),
    ("moment-check", "blocks_d1", 1, 61, GRID), ("fixed-m-gap", GAP, 1, 48, GAP_GRID),
)


def memory(tmp, runs=MEMORY_RUNS, out="memory", **kw):
    """Each (subcommand, config, threads, gate in MB, --set values) of ``runs`` as a fresh child, which must peak
    within its gate: every peak."""
    figures, over = [], False
    for sub, config, threads, gate, sets in runs:
        mb = spawn([*cli(sub, config, *sets), "--threads", threads, "--out", tmp / out], **kw)[1]
        figures.append(f"{sub} --threads {threads} on {' '.join([config, *sets])}: {mb:.1f} MB (gate {gate})")
        over |= mb > gate
    need(not over, "; ".join(figures))
    return f"numpy {numpy.__version__}; " + "; ".join(figures)


def replicate_table_memory(tmp):
    """A fresh clt-run at R = 40,000 within 70 MB and 60 s: its replicate table travels as float columns and is
    written 1,024 rows at a time (52-54 MB on a 2-vCPU host, against 102 MB when each row was a dict)."""
    sets = ("clt.n_grid=[8]", "clt.x_points=[0.0,0.5]", "clt.replicates=40000")
    return memory(tmp, [("clt-run", "iid_baseline", 1, 70, sets)], "table", timeout=60)


# the CLI with every draw refused, exit 3: a refusal must come from the plan, before any draw
NO_DRAW = ("import sys; from fieldkde import cli, innovations; "
           "innovations._draw = lambda *args, **kw: sys.exit(3); sys.exit(cli.main(sys.argv[1:]))")


def late_cap(tmp):
    """A cap that only the last grid point exceeds, or that the results of 10^8 replicates exceed, exits 1 within
    30 s, before any draw: it names its key, writes no report, and the manifest holds the error and the plan."""
    for sub, config, sets, key in (  # subcommand, config, --set values, the key its refusal names
        ("clt-run", "power_decay_d2", ("clt.n_grid=[64,256,2048]", "limits.max_field_bytes=20000000"),
         "limits.max_field_bytes"),
        # 10^8 replicates fit every point's batch in the cap, but not their results and keys
        ("moment-check", "blocks_d1", ("moment_check.replicates=100000000",), "moment_check.replicates"),
        ("fixed-m-gap", GAP, ("gap.replicates=100000000",), "gap.replicates"),
    ):
        argv = ["-c", NO_DRAW, *cli(sub, config, *sets)[2:], "--out", tmp / "late_cap"]  # cli's argv after -m fieldkde
        err = spawn(argv, timeout=30, accepted=(1,))[3]
        out = tmp / "late_cap" / sub.replace("-", "_")
        manifest = json.loads((out / "manifest.json").read_text())
        need(f"config key {key}" in err and manifest["status"] == "error" and key in manifest["error"]
             and not (out / "report.json").exists(), f"{sub}: {err.strip()}")
        need(sub != "clt-run" or ("n = 2048" in manifest["error"]
                                  and [p["n"] for p in manifest["plan"]["points"]] == [64, 256, 2048]),
             f"clt-run refuses other than at n = 2048 with the whole plan: {err.strip()}")
    return "clt-run, moment-check and fixed-m-gap exit 1 naming their key, with no report"


SCRIPT_RUNS = [("", [ROOT / "scripts" / f"{name}.py"]) for name in SCRIPTS]


def thread_invariance(tmp):
    """Full-size reports are the same at 1 and 2 threads, and the block script's in three more runs."""
    at_both_thread_counts([
        *SCRIPT_RUNS,
        # the truncation gap with m growing on the schedule
        ("growing", [ROOT / "scripts" / "run_truncation_gap.py", "--set", "gap.m=null"]),
        # at n = 64 the compact kernels are evaluated at the sites in reach alone, over batches the chunking sets
        *((name, cli("clt-run", "power_decay_d2", f'kernel="{name}"')) for name in ("epanechnikov", "triangular")),
        # big blocks and corner rectangles at d = 2, each summed over two lattice axes, with a strip past the
        # last block at both n
        ("d2", cli("blocks", "power_decay_d2", "blocks.n_grid=[64,128]")),
        ("d2", cli("moment-check", "power_decay_d2", "moment_check.n_grid=[64]", "moment_check.rectangles=[4,16,64]")),
    ], tmp / "invariance")
    # the workers take a grid point's batches from one queue, so which thread reduces which batch changes from
    # run to run: three more runs at two threads, each against the run at one
    for again in ("again1", "again2", "again3"):
        spawn([ROOT / "scripts" / "run_block_construction.py", "--threads", 2, "--out", tmp / again])
        same_trees(tmp / "invariance" / "t1" / "block_construction", tmp / again / "block_construction")
    return "the four scripts, growing m, compact kernels and d = 2 blocks, and the block script in three more runs"


def separate_processes(tmp):
    """The block script's reports equal those of blocks and moment-check, each run in its own process."""
    for sub in ("blocks", "moment-check"):
        spawn([*cli(sub, "blocks_d1"), "--threads", 2, "--out", tmp / "apart"])
    same_trees(tmp / "invariance" / "t2" / "block_construction", tmp / "apart")
    return "blocks and moment-check apart equal the block script"


def oracle_threads(tmp):
    """Student t and uniform innovations take the density oracle's Fourier-inversion path; uniform draws are made
    in the reused lattice stack and Student t draws copied into it. Their reports are the same at 1 and 2 threads."""
    at_both_thread_counts([
        ("student_t", cli("clt-run", "power_decay_d2", T5, "clt.n_grid=[32]")),
        ("student_t", cli("fixed-m-gap", GAP, T5, "gap.n_grid=[1024,4096]")),
        ("student_t", cli("moment-check", "blocks_d1", T5)),
        ("uniform", cli("clt-run", "power_decay_d2", UNIFORM, "clt.n_grid=[64,256]", "clt.replicates=120")),
        ("uniform", cli("moment-check", "blocks_d1", UNIFORM)),
    ], tmp / "oracle")
    return "Student t and uniform reports equal at 1 and 2 threads"


def strict_json(tmp):
    """Every report and manifest the gates before wrote loads as strict JSON: json.loads refuses a raw control
    character, and NaN and infinities are refused too, so an emitter that writes what JSON has no form for fails."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    paths = sorted(p for name in ("report.json", "manifest.json") for p in tmp.rglob(name))
    for path in paths:
        try:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
        except ValueError as exc:
            raise AssertionError(f"{path.relative_to(tmp)}: {exc}") from exc
    need(paths, "no reports")
    return f"{len(paths)} reports and manifests load"


def workloads(tmp):
    """Each benchmark workload passes its output checks, which its last stdout line states: kde against its closed
    form, the clt decomposition and the report digests across passes."""
    for workload in ("clt_d2", "blocks_d1", "kde_curve"):
        out = spawn([ROOT / "perfbench" / "run.py", "--workload", workload, "--seed", 1, "--seconds", 0],
                    accepted=(0,))[2]
        lines = out.strip().splitlines()
        failures = "; ".join(line for line in lines if line.startswith("FAILED"))
        need(json.loads(lines[-1])["correct"] is True, f"{workload}: {failures}")
    return "clt_d2, blocks_d1 and kde_curve pass their output checks"


def parse(path):
    """A report's JSON, or a CSV's rows with each float cell, though not an integer one, as a float."""
    def cell(c):
        try:
            return c if c.lstrip("-").isdigit() else float(c)
        except ValueError:
            return c

    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as f:
        return [[cell(c) for c in row] for row in csv.reader(f)]


def compare(a, b, moves):
    """Append the (a, b) pairs of floats to moves; True when anything else differs."""
    if isinstance(a, float) and isinstance(b, float):
        moves.append((a, b))
        return False
    if isinstance(a, dict) and isinstance(b, dict):
        # the shared keys' floats count where the key sets differ too
        return any([compare(a[k], b[k], moves) for k in a.keys() & b.keys()]) or a.keys() != b.keys()
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any([compare(x, y, moves) for x, y in zip(a, b)])
    return type(a) is not type(b) or a != b


def against_base(tmp, base):
    """How this tree's reports differ from those of the tree at ``base``: files, float moves, other tokens and run
    plans, and the net change in lines. Uniform innovations make moment-check's Wu constant read its kurtosis term."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as w

    kde = [f"kde.n={w.KDE_N}", f"kde.m={w.KDE_M}", f"kde.x_grid={json.dumps(list(w.KDE_X_GRID))}"]
    base_out, head_out = tmp / "reports" / "base", tmp / "reports" / "head"
    for tree, out in ((base, base_out), (ROOT, head_out)):
        for name in SCRIPTS:
            spawn([tree / "scripts" / f"{name}.py", "--out", out], tree, accepted=None)
        for sub in ("check-conditions", "kde", "gen-field"):
            spawn([*cli(sub, "power_decay_d2", *(kde if sub == "kde" else [])), "--out", out / "subcommands"], tree,
                  accepted=None)
        spawn([*cli("moment-check", "blocks_d1", UNIFORM), "--out", out / "uniform"], tree, accepted=None)
    lines = tree_diff(base_out, head_out) or ["no differing files"]
    for path in sorted(base_out.rglob("*")):
        other = head_out / path.relative_to(base_out)
        if path.suffix not in (".json", ".csv") or not other.is_file():
            continue
        if path.name == "manifest.json":  # the run plan, which the manifest holds beside its timestamps
            a, b = (json.loads(p.read_text())["plan"] or {} for p in (path, other))
            outer = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
            keys = sorted({k for p, q in zip(a.get("points", []), b.get("points", [])) for k in p.keys() | q.keys()
                           if p.get(k) != q.get(k)})
            lines.append(f"{path.relative_to(base_out)}: plan " + (f"differs in {', '.join(outer)}; point keys "
                         f"that differ: {', '.join(keys) or 'none'}" if outer else "identical"))
        elif path.read_bytes() != other.read_bytes():
            moves = []
            other_differs = compare(parse(path), parse(other), moves)
            moved = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) for x, y in moves
                     if x != y and not (math.isnan(x) and math.isnan(y))]
            lines.append(f"{path.relative_to(base_out)}: {len(moved)} of {len(moves)} floats moved, largest "
                         f"absolute {max((m[0] for m in moved), default=0.0):.3g}, largest relative "
                         f"{max((m[1] for m in moved), default=0.0):.3g}; other tokens "
                         f"{'differ' if other_differs else 'identical'}")
    for label, names in (("src/fieldkde", ()), ("cli.py + clt.py", ("cli.py", "clt.py"))):
        before, after = src_lines(base, *names), src_lines(ROOT, *names)
        lines.append(f"{label}: {before} -> {after} lines ({after - before:+d} net)")
    return "\n  ".join(["report files that differ from the base commit's (manifests excluded):", *lines])


GATES = (memory, replicate_table_memory, late_cap, thread_invariance, separate_processes, oracle_threads,
         strict_json, workloads)


def report(line):
    """Print ``line`` and append it to the step summary, when there is one."""
    print(line, flush=True)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
            summary.write(line + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="a checkout of the base commit to compare reports with")
    base = parser.parse_args(argv).base
    # counts and against_base gate nothing; the base runs come after strict_json, which reads the others' outputs
    runs = [(counts, False, ()), *((gate, True, ()) for gate in GATES)]
    if base:
        runs.append((against_base, False, (base.resolve(),)))
    failed = False
    with tempfile.TemporaryDirectory(prefix="gates-") as tmp:
        for gate, gating, extra in runs:
            start, verdict = time.monotonic(), "PASS"
            try:
                detail = gate(Path(tmp), *extra)
            except Exception as exc:  # a gate that breaks fails; the others still run
                if not isinstance(exc, AssertionError):
                    traceback.print_exc()
                verdict, detail, failed = "FAIL", f"{type(exc).__name__}: {exc}", failed or gating
            report(f"{verdict} {gate.__name__}{'' if gating else ' (reports only)'} "
                   f"[{time.monotonic() - start:.1f} s]: {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
