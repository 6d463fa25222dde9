"""A report's ``config`` states what the run read: each entry names a config key, and changing that key changes
the run."""

import json
from pathlib import Path

import pytest

from fieldkde.cli import CONFIG_KEYS, EXPERIMENTS, load_config, main
from fieldkde.reporting import canonical_json

REPO = Path(__file__).resolve().parents[1]
EXPERIMENT_SECTIONS = {e.section for e in EXPERIMENTS.values()}

BASE = ['coefficient={"family":"geometric","d":1,"ratio":0.5}', 'innovations={"name":"gaussian"}',
        'kernel="epanechnikov"', "bandwidth.gamma=0.5", "schedule.delta=0.3"]
# small runs of the four experiments, each with two x's; a band of 1e-9 fails clt-run's variance verdict, so a
# wide one flips it
RUNS = {
    "clt-run": ["clt.n_grid=[16,32]", "clt.x_points=[0.0,0.5]", "clt.replicates=100", "clt.variance_band=1e-9"],
    "blocks": ["blocks.n_grid=[64,128]", "blocks.x_points=[0.0,0.5]", "blocks.replicates=5", "blocks.m=2"],
    "blocks on the schedule": ["blocks.n_grid=[64,128]", "blocks.x_points=[0.0,0.5]", "blocks.replicates=5",
                               "blocks.m=null"],
    "moment-check": ["moment_check.n_grid=[64]", "moment_check.x_points=[0.0,0.5]", "moment_check.replicates=5",
                     "moment_check.rectangles=[4,16]"],
    "fixed-m-gap": ["gap.n_grid=[64,128]", "gap.x_points=[0.0,0.5]", "gap.replicates=5", "gap.m=2"],
    "fixed-m-gap on the schedule": ["gap.n_grid=[64,128]", "gap.x_points=[0.0,0.5]", "gap.replicates=5",
                                    "gap.m=null"],
    "moment-check at a fixed radius": ["moment_check.n_grid=[64]", "moment_check.x_points=[0.0,0.5]",
                                       "moment_check.replicates=5", "moment_check.rectangles=[4,16]",
                                       'truncation.policy="fixed"', "truncation.M=20"],
}
# the config key of each report entry named otherwise; an entry of a subcommand's section takes its name
NAMES = {"model": "coefficient", "master_seed": "seed", "delta": "schedule.delta"}
SECTION_KEYS = ("n_grid", "x_points", "replicates", "variance_band")
# another valid value of each shared key, as --set assignments
OTHER = {
    "coefficient.family": ['coefficient={"family":"power_decay","d":1,"q":4.0}'],
    "coefficient.d": ["coefficient.d=2"],
    "coefficient.ratio": ["coefficient.ratio=0.6"],
    "innovations.name": ['innovations={"name":"uniform"}'],
    "kernel": ['kernel="gaussian"'],
    "bandwidth.gamma": ["bandwidth.gamma=0.4"],
    "bandwidth.c2": ["bandwidth.c2=1.5"],
    "schedule.delta": ["schedule.delta=0.4"],
    "truncation.eta": ["truncation.eta=0.3"],
    "truncation.M": ["truncation.M=24"],
    "seed": ["seed=7"],
}
# entries no one key sets, with the reason
NOT_VARIED = {
    "decay_window": "derived from the model's decay exponent and bandwidth.gamma, which are varied",
}


def _leaves(value, path=""):
    """(dotted path, value) of every leaf of ``value``, a list entry's path ending in its index."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else None
    if items is None:
        return [(path, value)]
    return [leaf for k, v in items for leaf in _leaves(v, f"{path}.{k}" if path else str(k))]


def _key(section, entry):
    """The config key of report entry ``entry``: (its dotted path, the index within its list or None)."""
    head, _, rest = entry.partition(".")
    key = NAMES.get(head, f"{section}.{head}" if head in SECTION_KEYS else head)
    if rest.isdigit():
        return key, int(rest)
    return (f"{key}.{rest}" if rest else key), None


def _run(out, sub, sets):
    """(report config, manifest plan, the rest of the report) of one run."""
    assert main([sub, "--out", str(out), *(arg for s in sets for arg in ("--set", s))]) in (0, 2)
    run = out / sub.replace("-", "_")
    report = json.loads((run / "report.json").read_text())
    return report.pop("config"), json.loads((run / "manifest.json").read_text())["plan"], canonical_json(report)


def _other(sets, key, index):
    """``sets`` with config key ``key``, or entry ``index`` of its list, set to another valid value."""
    if key == "truncation.policy":
        # the other policy, with the radius M it needs or without the one it refuses
        fixed = load_config(None, sets)["truncation"]["policy"] == "fixed"
        return sets + (['truncation.policy="bandwidth_relative"', "truncation.M=null"] if fixed
                       else ['truncation.policy="fixed"', "truncation.M=20"])
    if key in OTHER:
        return sets + OTHER[key]
    section, name = key.split(".")
    value = load_config(None, sets)[section][name]
    if index is None:
        value = {"replicates": value + 1, "variance_band": 10.0}[name]
    else:
        value = list(value)
        value[index] += 16 if name == "n_grid" else 0.25
    return sets + [f"{key}={json.dumps(value)}"]


@pytest.mark.parametrize("run", RUNS)
def test_every_stated_entry_is_a_key_the_run_read(tmp_path, run):
    sub = run.split()[0]
    section = EXPERIMENTS[sub].section
    sets = BASE + RUNS[run]
    config, *base = _run(tmp_path / "base", sub, sets)
    for i, (entry, _) in enumerate(_leaves(config)):
        key, index = _key(section, entry)
        if entry.split(".")[0] in NOT_VARIED or entry in NOT_VARIED:
            continue
        holder, _, name = key.partition(".")
        assert holder not in EXPERIMENT_SECTIONS or holder == section, f"{entry} names {key}, of another section"
        keys = CONFIG_KEYS[holder]
        assert (name in keys) if name else not isinstance(keys, dict), f"{entry} names {key}, which is no key"
        assert _run(tmp_path / str(i), sub, _other(sets, key, index))[1:] != tuple(base), \
            f"{entry} is stated, but setting {key} to another value changes neither the plan nor the report"


def _readme_entries():
    """README's table of the entries under a report's ``config``: subcommand -> entry -> its cell."""
    text = (REPO / "README.md").read_text(encoding="utf-8").split("### Report `config` block\n", 1)[1]
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in next(block for block in text.split("\n\n") if block.startswith("|")).splitlines()]
    subs = rows[0][2:]
    return {sub: {row[0]: row[2 + i] for row in rows[2:]} for i, sub in enumerate(subs)}


@pytest.mark.parametrize("run", RUNS)
def test_readme_lists_the_entries_of_a_report(tmp_path, run):
    sub = run.split()[0]
    section = EXPERIMENTS[sub].section
    cells = _readme_entries()[sub]
    scheduled = load_config(None, BASE + RUNS[run])[section].get("m") is None
    config = _run(tmp_path, sub, BASE + RUNS[run])[0]
    assert set(cells.values()) <= {"yes", "no", "m null"}
    assert set(config) == {entry for entry, cell in cells.items() if cell == "yes" or cell == "m null" and scheduled}
