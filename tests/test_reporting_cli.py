import csv
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fieldkde import CoefficientModel, InnovationModel, wu_inequality_check
from fieldkde.cli import CONFIG_KEYS, DEFAULT_CONFIG, EXPERIMENTS, _experiment, cmd_blocks, load_config, main, plan_run
from fieldkde.clt import KsResult
from fieldkde.coefficients import _FAMILY_OF, ConditionReport
from fieldkde.field import TruncationPlan
from fieldkde.reporting import CSV_CHUNK_ROWS, SCHEMA_VERSION, RunManifest, canonical_json, float_repr, write_csv

from conftest import MASTER_SEED, refusal
import json_reference

REPO = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ["check-conditions", "gen-field", "kde", "clt-run", "blocks", "moment-check", "fixed-m-gap"]
# every key of the table with its dotted path
TABLE_KEYS = [(name, k) for name, k in CONFIG_KEYS.items() if not isinstance(k, dict)] + [
    (f"{name}.{key}", k) for name, keys in CONFIG_KEYS.items() if isinstance(keys, dict) for key, k in keys.items()
]


def _default(path):
    section, _, key = path.partition(".")
    return DEFAULT_CONFIG[section][key] if key else DEFAULT_CONFIG[section]


def _bad_values(path, k):
    """Strategies for values of the wrong kind for the table key ``k`` at ``path``, and for values
    out of its bounds in the default config (None when it has no bounds)."""
    lists = ("ints", "nums", "orders", "sides", "table")
    bad = [st.sampled_from(["", "a", "1"]), st.just({"a": 1})]
    if not (k.optional or k.family):
        bad.append(st.none())
    if k.kind != "bool":
        bad.append(st.booleans())
    if k.kind in lists:
        bad += [st.integers(1, 9), st.lists(st.sampled_from(["a", None, True, math.nan]), min_size=1, max_size=3)]
        if k.kind != "orders":
            bad.append(st.just([]))
    else:
        bad.append(st.lists(st.integers(1, 9), min_size=1, max_size=2))
    if k.kind in ("int", "num", "ints", "nums"):
        non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
        bad.append(non_finite if k.kind in ("int", "num") else st.lists(non_finite, min_size=1, max_size=2))
    if k.kind in ("int", "ints"):
        fractional = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())
        bad.append(fractional if k.kind == "int" else st.lists(fractional, min_size=1, max_size=2))
    if k.kind == "bool":
        bad.append(st.integers())
    integer = k.kind in ("int", "ints")

    def beyond(edge, below):
        """``edge``, the first value out of bounds, and the values past it."""
        edge = edge if integer else float(edge)
        past = st.integers(**{"max_value" if below else "min_value": edge}) if integer else st.floats(
            **{"max_value" if below else "min_value": edge}, allow_infinity=False)
        return st.just(edge) | past

    outside = []
    if k.ge is not None:
        outside.append(beyond(k.ge - 1 if integer else math.nextafter(k.ge, -math.inf), below=True))
    if k.gt is not None:
        outside.append(beyond(_default(k.gt) if isinstance(k.gt, str) else k.gt, below=True))
    if k.lt is not None:
        outside.append(beyond(_default(k.lt) if isinstance(k.lt, str) else k.lt, below=False))
    if k.kind in ("ints", "nums"):
        outside = [st.lists(values, min_size=1, max_size=3) for values in outside]
    if k.kind == "orders":
        outside.append(st.lists(st.integers().filter(lambda v: v not in k.choices), min_size=1, max_size=2))
    if k.kind == "sides":
        grid = min(_default(f"{path.rsplit('.', 1)[0]}.{k.fits}"))
        outside.append(st.lists(beyond(0, below=True) | beyond(grid + 1, below=False), min_size=1, max_size=2))
    if k.increasing:
        short = st.lists(st.integers(1, 99), min_size=1, max_size=k.increasing - 1)
        unordered = st.lists(st.integers(1, 99), min_size=k.increasing, max_size=k.increasing + 2).filter(
            lambda v: any(b <= a for a, b in zip(v, v[1:])))
        outside += [short, unordered]
    if k.most:
        outside.append(st.lists(st.integers(1, 99), min_size=k.most + 1, max_size=k.most + 3))
    if k.only_if is not None:
        assert _default(f"{path.rsplit('.', 1)[0]}.{k.only_if[0]}") != k.only_if[1]
        outside.append(st.integers(1, 99))
    return st.one_of(*bad), st.one_of(*outside) if outside else None


# (path, key, "kind" or "bounds"): each key with a value of the wrong kind, and each bounded key out of bounds
BAD_VALUES = [(path, k, test) for path, k in TABLE_KEYS for test, values in zip(("kind", "bounds"), _bad_values(path, k))
              if values is not None]


# what reports refuse, and what JSON has no form for
_NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf), np.array([1.0, -math.inf])]
_NO_FORM = [np.bool_(True), {1, 2}, object(), frozenset(), b"x", 1j, np.complex128(1.0)]


class TestCanonicalJson:
    def test_serialisation_is_byte_stable(self):
        report = {"b": [1, 2.5, {"x": 0.1}], "a": "text", "z": None, "ok": True}
        assert canonical_json(report) == canonical_json(report)

    def test_round_trip_equality(self):
        report = {
            "values": [0.1, 1.0 / 3.0, 2.0**-52, 123456789.123456789],
            "count": 7,
            "tag": "run",
            "flag": False,
        }
        back = json.loads(canonical_json(report).decode())
        assert back == report

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_float_repr_round_trips(self, x):
        assert float(float_repr(x)) == x

    def test_keys_sorted(self):
        data = canonical_json({"zz": 1, "aa": 2}).decode()
        assert data.index('"aa"') < data.index('"zz"')

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_numpy_values_normalised(self):
        data = {"arr": np.array([1.0, 2.0]), "i": np.int64(3), "f": np.float64(0.5)}
        back = json.loads(canonical_json(data).decode())
        assert back == {"arr": [1.0, 2.0], "i": 3, "f": 0.5}

    def test_keys_become_strings_before_sorting_and_tuples_lists(self):
        assert canonical_json({10: (1, np.float32(0.5)), 9: [], "a": {2.5: None}}) == (
            b'{"10":[1,0.5],"9":[],"a":{"2.5":null}}\n')

    @pytest.mark.parametrize("value", _NO_FORM)
    def test_rejects_what_json_has_no_form_for(self, value):
        with pytest.raises(TypeError, match="cannot serialise"):
            canonical_json({"x": [value]})

    def test_control_characters_are_escaped_and_load_strictly(self):
        text = "".join(map(chr, range(32))) + '"\\\x7f é'
        data = canonical_json({text: [text]})
        assert json.loads(data.decode()) == {text: [text]}
        assert b"\t" not in data and b"\r" not in data
        assert data.startswith(b'{"\\u0000\\u0001') and b'\\b\\t\\n\\u000b\\f\\r' in data

    def test_a_manifest_under_a_directory_with_a_tab_loads_strictly(self, tmp_path):
        out = tmp_path / "tab\there\r"
        assert main(["check-conditions", "--config", str(REPO / "configs/iid_baseline.json"), "--out", str(out)]) == 0
        manifest = json.loads((out / "check_conditions" / "manifest.json").read_text(encoding="utf-8"))
        assert str(out / "check_conditions" / "report.json") in manifest["outputs"]


_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.225073858507201e-308, 1e308,
                              -1e308, 1.7976931348623157e308, 9999999999999998.0, 1e16, 1.0000000000000002e16,
                              -9999999999999998.0, -1e16, -1.0000000000000002e16])
           | st.integers(-2**62, 2**62).map(float))
# quotes, backslashes, newlines and non-ASCII; no other control character, which the reference writes raw
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from('"\\\n'), max_size=8)
_ARRAY_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FINITE, _TEXT,
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.integers(-2**31, 2**31 - 1).map(np.int32), _FINITE.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    hnp.arrays(np.float64, _ARRAY_SHAPES, elements=_FINITE), hnp.arrays(np.int64, _ARRAY_SHAPES),
    hnp.arrays(np.bool_, _ARRAY_SHAPES),
)
_KEYS = _TEXT | st.integers() | _FINITE


def _report_dataclasses(children):
    """The report dataclasses with ``children`` where a field takes any value."""
    finite_or_none = st.none() | _FINITE
    return st.one_of(
        st.builds(KsResult, _FINITE, _FINITE, _FINITE, st.integers(0, 10**6)),
        st.builds(TruncationPlan, M=st.integers(1, 99), B_M=_FINITE, policy=_TEXT, eta=finite_or_none),
        st.builds(ConditionReport, name=_TEXT, passed=st.booleans(), verdict=_TEXT,
                  details=st.dictionaries(_TEXT, children, max_size=3),
                  delta_interval=st.none() | st.tuples(_FINITE, _FINITE), delta_star=finite_or_none,
                  thresholds=st.dictionaries(_TEXT, _FINITE, max_size=2), grid_rows=st.lists(children, max_size=2)),
        st.builds(RunManifest, subcommand=_TEXT, config=st.none() | st.dictionaries(_TEXT, children, max_size=3),
                  master_seed=st.none() | st.integers(), tool_version=_TEXT, started=_TEXT, plan=children,
                  outputs=st.lists(_TEXT, max_size=2), verdicts=st.dictionaries(_TEXT, st.booleans(), max_size=2)),
    )


def _values(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4), _report_dataclasses(children)), max_leaves=16)


def _outcome(serialise, value):
    try:
        return serialise(value)
    except (ValueError, TypeError) as exc:
        return type(exc)


class TestCanonicalJsonAgainstReference:
    """``canonical_json`` writes the bytes of the per-token walk of ``json_reference``, and refuses what it refused."""

    @given(_values(_LEAVES))
    @settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    def test_bytes_equal_the_reference(self, value):
        assert canonical_json(value) == json_reference.canonical_json(value)

    @given(_values(_LEAVES | st.sampled_from(_NON_FINITE + _NO_FORM)))
    @settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    def test_refusals_equal_the_reference(self, value):
        assert _outcome(canonical_json, value) == _outcome(json_reference.canonical_json, value)

    @pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
    def test_each_non_finite_value_is_refused_at_depth(self, value):
        nested = {"a": [1, (2.5, {"b": value})], 3: "c"}
        assert _outcome(canonical_json, nested) is _outcome(json_reference.canonical_json, nested) is ValueError

    def test_a_run_plan_equals_the_reference(self):
        cfg = load_config(str(REPO / "configs/power_decay_d2.json"), [])
        plan = plan_run(cfg, _experiment(cfg), "clt-run")
        assert canonical_json(plan) == json_reference.canonical_json(plan)


class TestDataclassSerialisation:
    """A dataclass serialises as the dict of its fields: the bytes its hand-written dict gave."""

    def test_condition_report_with_a_delta_interval(self):
        rep = ConditionReport(name="schedule_limits", passed=True, verdict="pass (window)",
                              details={"delta": 0.4, "beta": "inf"}, delta_interval=(0.25, 0.5),
                              delta_star=0.375, thresholds={"strict_ratio": 0.1},
                              grid_rows=[{"n": 16, "m_n": 3, "b_n": 0.5}])
        assert canonical_json(rep) == canonical_json({
            "name": "schedule_limits", "passed": True, "verdict": "pass (window)",
            "details": {"delta": 0.4, "beta": "inf"}, "delta_interval": [0.25, 0.5], "delta_star": 0.375,
            "thresholds": {"strict_ratio": 0.1}, "grid_rows": [{"n": 16, "m_n": 3, "b_n": 0.5}],
        })

    def test_condition_report_without_a_delta_interval(self):
        rep = ConditionReport(name="hallin", passed=False, verdict="fail", details={"hallin_q_ok": False})
        assert canonical_json(rep) == canonical_json({
            "name": "hallin", "passed": False, "verdict": "fail", "details": {"hallin_q_ok": False},
            "delta_interval": None, "delta_star": None, "thresholds": {}, "grid_rows": [],
        })

    def test_ks_result(self):
        assert canonical_json(KsResult(0.0625, 0.1358, 0.1628, 100)) == canonical_json(
            {"distance": 0.0625, "crit_05": 0.1358, "crit_01": 0.1628, "n_samples": 100})

    def test_truncation_plan(self):
        assert canonical_json(TruncationPlan(M=12, B_M=3.5e-4, policy="bandwidth_relative", eta=0.01)) == (
            canonical_json({"M": 12, "B_M": 3.5e-4, "policy": "bandwidth_relative", "eta": 0.01}))
        assert canonical_json(TruncationPlan(M=4, B_M=0.125, policy="fixed")) == canonical_json(
            {"M": 4, "B_M": 0.125, "policy": "fixed", "eta": None})

    def test_run_manifest(self):
        manifest = RunManifest(subcommand="kde", config={"seed": 7}, master_seed=7, tool_version="0.1.0",
                               started="2026-01-02T03:04:05+0000")
        manifest.outputs.append("runs/kde/report.json")
        assert canonical_json(manifest) == canonical_json({
            "subcommand": "kde", "config": {"seed": 7}, "master_seed": 7, "tool_version": "0.1.0",
            "started": "2026-01-02T03:04:05+0000", "finished": "", "status": "running", "error": None,
            "plan": None, "outputs": ["runs/kde/report.json"], "verdicts": {}, "schema_version": SCHEMA_VERSION,
        })


def _row_cell(v) -> str:
    """A cell as the row-at-a-time writer of schema version 1 formatted it; it refused a non-finite float."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("reports must contain finite numbers only")
        return format(x, ".1f") if x == int(x) and abs(x) < 1e16 else format(x, ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    s = str(v)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _row_csv(columns) -> bytes:
    """The bytes of ``columns`` written one row at a time with ``_row_cell``."""
    lines = [",".join(columns)]
    lines += [",".join(map(_row_cell, row)) for row in zip(*columns.values())]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsv:
    def test_header_and_formatting(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv({"n": [4], "value": [1.0 / 3.0], "tag": ["a,b"]}, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "n,value,tag"
        assert lines[1].startswith("4,0.33333333333333331,")
        assert '"a,b"' in lines[1]

    FLOATS = [-0.0, 1e16, 9999999999999998.0, 5e-324, 1.0 / 3.0]
    FLOAT_CELLS = ["-0.0", "10000000000000000", "9999999999999998.0", "4.9406564584124654e-324", "0.33333333333333331"]

    @pytest.mark.parametrize("column", [FLOATS, np.array(FLOATS), [np.float64(v) for v in FLOATS]],
                             ids=["list", "array", "numpy scalars"])
    def test_float_cells(self, tmp_path, column):
        p = tmp_path / "t.csv"
        write_csv({"v": column}, p)
        assert p.read_bytes() == ("v\n" + "".join(c + "\n" for c in self.FLOAT_CELLS)).encode()
        assert p.read_bytes() == _row_csv({"v": self.FLOATS})

    def test_cells_of_other_types(self, tmp_path):
        values = [2**53 + 1, -(2**70), np.int64(-7), True, np.bool_(False), None, np.float32(0.5),
                  "a,b", 'say "hi"', "plain"]
        cells = ["9007199254740993", "-1180591620717411303424", "-7", "true", "false", "", "0.5",
                 '"a,b"', '"say ""hi"""', "plain"]
        p = tmp_path / "t.csv"
        write_csv({"v": values}, p)
        assert p.read_bytes() == ("v\n" + "".join(c + "\n" for c in cells)).encode()
        assert p.read_bytes() == _row_csv({"v": values})

    def test_non_finite_floats_give_empty_cells(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv({"i": np.arange(4), "v": np.array([math.nan, math.inf, -math.inf, 2.0])}, p)
        assert p.read_text() == "i,v\n0,\n1,\n2,\n3,2.0\n"

    @pytest.mark.parametrize("rows", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_tables_around_the_chunk_size(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = {"n": np.full(rows, 64), "replicate": np.arange(rows), "T": rng.normal(size=rows),
                   "whole": np.round(rng.normal(size=rows) * 1e3), "tag": [f"r{i},{i % 3}" for i in range(rows)]}
        p = tmp_path / "t.csv"
        write_csv(columns, p)
        assert p.read_bytes() == _row_csv(columns)
        assert len(p.read_text().splitlines()) == rows + 1

    def test_schema_version_exported(self):
        assert SCHEMA_VERSION == 1

    # small runs of every subcommand; gen-field writes field files, not tables
    SMALL_RUNS = {
        "check-conditions": [],
        "gen-field": ["gen_field.n=8"],
        "kde": ["kde.n=16"],
        "clt-run": ["clt.n_grid=[16]", "clt.replicates=5"],
        "blocks": ["blocks.n_grid=[64,128]", "blocks.replicates=5"],
        "moment-check": ["moment_check.n_grid=[64]", "moment_check.replicates=5", "moment_check.rectangles=[4,16]"],
        "fixed-m-gap": ["gap.n_grid=[128,256]", "gap.replicates=5"],
    }

    def test_every_table_header_is_the_readme_schema(self, tmp_path):
        readme = (REPO / "README.md").read_text(encoding="utf-8").split("## CSV schemas (version 1)\n", 1)[1]
        schema = {}
        for line in readme.strip().split("\n\n", 1)[0].splitlines()[2:]:
            name, columns = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            schema[name] = columns.replace(" ", "")
        assert len(schema) == 8
        headers = {}
        for sub in SUBCOMMANDS:
            argv = [sub]
            for assignment in self.SMALL_RUNS[sub]:
                argv += ["--set", assignment]
            assert _run(tmp_path, *argv) in (0, 2)
            for path in (tmp_path / sub.replace("-", "_")).glob("*.csv"):
                headers[path.stem] = path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert headers == schema


class TestConfigResolution:
    def test_set_overrides_file(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"seed": 5, "clt": {"replicates": 7}}))
        cfg = load_config(str(cfgfile), ["clt.replicates=9", 'coefficient={"family":"geometric","d":1,"ratio":0.25}'])
        assert cfg["seed"] == 5
        assert cfg["clt"]["replicates"] == 9
        assert cfg["coefficient"]["ratio"] == 0.25

    def test_flag_overrides_everything(self, tmp_path):
        cfg = load_config(None, [], seed=99, threads=3)
        assert cfg["seed"] == 99 and cfg["threads"] == 3

    def test_bad_set_rejected(self):
        # no one config key decides it, so it is a plain ValueError
        with pytest.raises(ValueError, match="--set needs key=value") as exc:
            load_config(None, ["oops"])
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        load_config(str(path), [])

    def test_readme_config_reference_loads_and_is_complete(self, tmp_path):
        text = (REPO / "README.md").read_text()
        block = text.split("## Config reference", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        reference = json.loads(block)
        cfgfile = tmp_path / "reference.json"
        # names are checked as the config loads, so load each listed choice of each
        # name, with every other name at its first choice
        names = {(section, key): value.split("|") for section, body in reference.items()
                 for key, value in (body.items() if isinstance(body, dict) else [(None, body)])
                 if isinstance(value, str) and "|" in value}
        assert ("kernel", None) in names and ("coefficient", "family") in names
        for (section, key), choices in names.items():
            for choice in choices:
                doc = json.loads(block)
                for (s, k), listed in names.items():
                    value = choice if (s, k) == (section, key) else listed[0]
                    doc[s] = value if k is None else {**doc[s], k: value}
                if doc["truncation"]["policy"] == "fixed":  # which needs its radius
                    doc["truncation"]["M"] = 8
                # the models check their parameters as the config loads, so each keeps its family's alone
                family = doc["coefficient"]["family"]
                doc["coefficient"] = {k: v for k, v in doc["coefficient"].items()
                                      if _FAMILY_OF.get(k, family) == family}
                if doc["innovations"]["name"] != "student_t":
                    del doc["innovations"]["nu"]
                cfgfile.write_text(json.dumps(doc))
                load_config(str(cfgfile), [])
        for section, default in DEFAULT_CONFIG.items():
            assert section in reference
            if isinstance(default, dict):
                assert set(reference[section]) == set(CONFIG_KEYS[section]), section

    def test_readme_quickstart_runs(self, capsys):
        text = (REPO / "README.md").read_text()
        block = text.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md quickstart", "exec"), {})
        assert "overall" in capsys.readouterr().out


THREAD_INVARIANCE_SETS = {
    "clt-run": ["clt.replicates=25", "clt.n_grid=[128]"],
    "blocks": ["blocks.replicates=25", "blocks.n_grid=[256,1024]"],
    "moment-check": [
        "moment_check.replicates=25", "moment_check.n_grid=[256]",
        "moment_check.rectangles=[4,16,64]",
    ],
    "fixed-m-gap": ["gap.replicates=25", "gap.n_grid=[512,2048]", "bandwidth.gamma=0.5"],
}


def _run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def _replicates(tmp_path):
    """The rows of clt-run's replicate table under ``tmp_path``, as dicts of their cells."""
    with open(tmp_path / "clt_run" / "clt_replicates.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestCli:
    def test_help_lists_the_subcommands_in_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_0(self, capsys, sub):
        with pytest.raises(SystemExit) as done:
            main([sub, "--help"])
        assert done.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--version"])
        assert done.value.code == 0 and capsys.readouterr().out.startswith("fieldkde ")

    def test_options_before_the_subcommand_parse_as_after_it(self):
        from fieldkde.cli import build_parser

        options = ["--config", "c.json", "--set", "a=1", "--seed", "3", "--threads", "2", "--out", "o",
                   "--set", "b=2"]
        after = build_parser().parse_args(["kde", *options])
        assert build_parser().parse_args([*options, "kde"]) == after
        assert build_parser().parse_args([*options[:6], "kde", *options[6:]]) == after
        assert after.subcommand == "kde" and after.set == ["a=1", "b=2"] and after.seed == 3

    @pytest.mark.parametrize(
        "script,argv,said",
        [
            (None, ["kde-run"], ["invalid choice: 'kde-run'", *(f"'{sub}'" for sub in SUBCOMMANDS)]),
            (None, ["clt-run", "--threads", "x"], ["argument --threads: invalid int value: 'x'"]),
            ("run_iid_baseline", ["--threads", "x"], ["argument --threads: invalid int value: 'x'"]),
        ],
    )
    def test_a_usage_error_exits_1_with_its_usage_line(self, tmp_path, capsys, monkeypatch, script, argv, said):
        # argparse ends a usage error with 2, which a gate or a script reads as a failed verdict
        with pytest.raises(SystemExit) as done:
            if script:
                monkeypatch.setattr(sys, "argv", [script, *argv, "--out", str(tmp_path)])
                runpy.run_path(str(REPO / "scripts" / f"{script}.py"), run_name="__main__")
            else:
                main(argv)
        assert done.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: fieldkde ") and all(words in err for words in said), err

    def test_check_conditions_pass(self, tmp_path):
        code = _run(
            tmp_path,
            "check-conditions",
            "--set", 'coefficient={"family":"power_decay","d":2,"q":4.0}',
            "--set", "bandwidth.gamma=1.0",
            "--set", "schedule.delta=0.4166666666666667",
        )
        assert code == 0
        report = json.loads((tmp_path / "check_conditions" / "report.json").read_text())
        window = report["checks"]["decay_window"]
        assert window["delta_interval"] == pytest.approx([1.0 / 3.0, 0.5])
        assert (tmp_path / "check_conditions" / "condition_grid.csv").exists()

    def test_check_conditions_fail_regime_exit_2(self, tmp_path):
        code = _run(
            tmp_path,
            "check-conditions",
            "--set", 'coefficient={"family":"power_decay","d":2,"q":4.0}',
            "--set", "bandwidth.gamma=1.3",
            "--set", "schedule.delta=0.4",
        )
        assert code == 2
        manifest = json.loads((tmp_path / "check_conditions" / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["verdicts"]["passed"] is False

    def test_clt_run_single_replicate_inconclusive(self, tmp_path):
        code = _run(
            tmp_path,
            "clt-run",
            "--set", "clt.replicates=1",
            "--set", "clt.n_grid=[128]",
        )
        assert code == 0
        report = json.loads((tmp_path / "clt_run" / "report.json").read_text())
        assert report["overall"] == "inconclusive"

    def test_gen_field_memory_cap_exit_1(self, tmp_path):
        code = _run(
            tmp_path,
            "gen-field",
            "--set", 'coefficient={"family":"power_decay","d":3,"q":4.0}',
            "--set", "bandwidth.gamma=1.5",
            "--set", "gen_field.n=4000",
        )
        assert code == 1
        manifest = json.loads((tmp_path / "gen_field" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "bytes" in manifest["error"]

    def test_gen_field_round_trip(self, tmp_path):
        code = _run(
            tmp_path,
            "gen-field",
            "--set", "gen_field.n=16",
            "--set", "gen_field.write_csv=true",
        )
        assert code == 0
        out = tmp_path / "gen_field"
        report = json.loads((out / "report.json").read_text())
        from fieldkde.field import read_field_binary

        f = read_field_binary(out / "field_full.bin")
        assert f.n == 16
        # X - X_m against the lattice convolved apart with the weights off [0, m)^d
        assert report["coupling_max_abs_gap"] <= 1e-12 * np.max(np.abs(f.values))

    def test_gen_field_coupling_check_sees_a_broken_truncation(self, tmp_path, monkeypatch):
        from fieldkde.field import CoupledWorkspace

        convolve = CoupledWorkspace.convolve

        def broken(self, count):
            x, x_m = convolve(self, count)
            return x, x_m + 1e-9

        monkeypatch.setattr(CoupledWorkspace, "convolve", broken)
        assert _run(tmp_path, "gen-field", "--set", "gen_field.n=16") == 0
        report = json.loads((tmp_path / "gen_field" / "report.json").read_text())
        assert report["coupling_max_abs_gap"] == pytest.approx(1e-9, rel=1e-3)

    @pytest.mark.parametrize("sub", list(THREAD_INVARIANCE_SETS))
    def test_reports_identical_across_thread_counts(self, tmp_path, sub):
        # an odd replicate count splits into batches of unequal sizes
        blobs = []
        for t in (1, 2):
            argv = [sub, "--threads", str(t), "--out", str(tmp_path / str(t))]
            for assignment in THREAD_INVARIANCE_SETS[sub]:
                argv += ["--set", assignment]
            assert main(argv) == 0
            blobs.append((tmp_path / str(t) / sub.replace("-", "_") / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("innovations", ['{"name":"gaussian"}', '{"name":"uniform"}',
                                             '{"name":"student_t","nu":5.0}'])
    def test_moment_check_keeps_the_bytes_over_workers(self, tmp_path, innovations):
        outputs = []
        for t in (1, 2):
            code = main(["moment-check", "--threads", str(t), "--out", str(tmp_path / str(t)),
                         "--set", f"innovations={innovations}", "--set", "moment_check.n_grid=[64]",
                         "--set", "moment_check.replicates=5", "--set", "moment_check.rectangles=[4,16]"])
            assert code in (0, 2)
            out = tmp_path / str(t) / "moment_check"
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "manifest.json"})
        assert outputs[0] == outputs[1] and "report.json" in outputs[0]
        wu = json.loads(outputs[0]["report.json"])["wu"]
        expected = wu_inequality_check(CoefficientModel(d=1, family="geometric", ratio=0.5),
                                       InnovationModel(**json.loads(innovations)), [1, 2])
        assert wu == expected

    @pytest.mark.parametrize(
        "argv,model",
        [
            # inside the decay window at d = 1, where a box of a fixed relative cut needed a side near 1e5
            (["--set", 'coefficient={"family":"power_decay","d":1,"q":1.8}'],
             CoefficientModel(d=1, family="power_decay", q=1.8)),
            (["--config", str(REPO / "configs" / "power_decay_d2.json")],
             CoefficientModel(d=2, family="power_decay", q=4.0)),
        ],
        ids=["power_decay_d1_q_1_8", "power_decay_d2"],
    )
    def test_moment_check_reports_the_closed_forms(self, tmp_path, argv, model):
        code = _run(tmp_path, "moment-check", *argv, "--set", "moment_check.n_grid=[64]",
                    "--set", "moment_check.rectangles=[4,16]")
        assert code == 0
        wu = json.loads((tmp_path / "moment_check" / "report.json").read_text())["wu"]
        assert [sorted(w) for w in wu] == [["name", "p", "reference_c", "weight_mass"]] * 2
        assert wu == wu_inequality_check(model, InnovationModel("gaussian"), [1, 2])

    def test_moment_check_draws_nothing_for_the_wu_constants(self, tmp_path, monkeypatch):
        import fieldkde.innovations as innovations

        draw, drawn = innovations._draw, []

        def counting(model, rng, shape, out=None):
            out = draw(model, rng, shape, out)
            drawn.append(out.size)
            return out

        monkeypatch.setattr(innovations, "_draw", counting)
        small = ["--set", "moment_check.n_grid=[64]", "--set", "moment_check.replicates=5",
                 "--set", "moment_check.rectangles=[4,16]"]
        counts, reports = [], []
        for orders in ("[1,2]", "[]"):
            out = tmp_path / str(len(counts))
            assert _run(out, "moment-check", *small, "--set", f"moment_check.wu_p={orders}") in (0, 2)
            counts.append(sum(drawn))
            drawn.clear()
            reports.append(json.loads((out / "moment_check" / "report.json").read_text()))
        assert counts[0] == counts[1] > 0
        assert [w["p"] for w in reports[0]["wu"]] == [1, 2] and reports[1]["wu"] == []
        assert reports[0]["rectangles"] == reports[1]["rectangles"]

    @pytest.mark.parametrize(
        "subcommand,sets,key",
        [
            ("kde", ["coefficient.d=1000000000"], "config key coefficient.d"),
            # (1 - r^2)^(-d) beyond the float range
            ("kde", ["coefficient.d=63", "coefficient.ratio=0.999999"], "coefficient.ratio"),
            ("kde", ["coefficient.d=63"], "cap"),
            ("moment-check", ["coefficient.d=63"], "limits.max_field_bytes"),
        ],
    )
    def test_geometric_weights_in_many_dimensions_exit_1_without_a_traceback(self, tmp_path, capsys, subcommand,
                                                                              sets, key):
        argv = [subcommand] + [part for assignment in sets for part in ("--set", assignment)]
        assert _run(tmp_path, *argv) == 1
        assert key in refusal(capsys, tmp_path, subcommand)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_1(self, tmp_path, threads):
        code = _run(tmp_path, "clt-run", "--set", "clt.replicates=2", "--set", "clt.n_grid=[64]",
                    "--threads", threads)
        assert code == 1
        manifest = json.loads((tmp_path / "clt_run" / "manifest.json").read_text())
        assert "threads" in manifest["error"]

    def test_check_conditions_explicit_zero_gamma_exit_1(self, tmp_path):
        code = _run(tmp_path, "check-conditions", "--set", "bandwidth.gamma=0")
        assert code == 1
        manifest = json.loads((tmp_path / "check_conditions" / "manifest.json").read_text())
        assert "gamma" in manifest["error"]

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIELDKDE_OUT", str(tmp_path / "envout"))
        code = main(["check-conditions", "--set", "schedule.delta=0.1"])
        assert code == 0
        assert (tmp_path / "envout" / "check_conditions" / "report.json").exists()

    @pytest.mark.parametrize(
        "assignment,key",
        [
            ("conditions.n_gird=[16]", "conditions.n_gird"),
            ("bogus=1", "bogus"),
            ("clt.replicate=5", "clt.replicate"),
            ("innovations.nuu=3", "innovations.nuu"),
            ("coefficient.ratoi=0.5", "coefficient.ratoi"),
            # read by no subcommand: only clt-run has a variance verdict, and
            # fixed-m-gap does not center
            ("blocks.variance_band=0.1", "blocks.variance_band"),
            ("moment_check.variance_band=0.1", "moment_check.variance_band"),
            ("gap.variance_band=0.1", "gap.variance_band"),
            ('gap.centering="oracle"', "gap.centering"),
            # centering is always the density oracle's
            ('clt.centering="oracle"', "clt.centering"),
            # the Wu constants come from their closed forms, with no sample to size
            ("moment_check.wu_sample=1000", "moment_check.wu_sample"),
            # one truncation schedule: blocks follow schedule.delta where blocks.m is null, and the gap
            # grows on it where gap.m is null
            ("blocks.delta=0.2", "blocks.delta"),
            ('gap.mode="growing"', "gap.mode"),
        ],
    )
    def test_unknown_config_key_exit_1(self, tmp_path, capsys, assignment, key):
        assert _run(tmp_path, "clt-run", "--set", assignment) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "clt_run" / "report.json").exists()

    @pytest.mark.parametrize(
        "subcommand,assignment,key",
        [
            ("check-conditions", 'coefficient={"d":1}', "coefficient.family"),
            ("kde", 'innovations={"nu":3}', "innovations.name"),
            ("kde", 'truncation={"eta":0.1}', "truncation.policy"),
            ("kde", 'kernel={"a":1}', "kernel"),
            # an unknown kernel name, also where the subcommand uses no kernel
            ("check-conditions", 'kernel="nope"', "kernel"),
            ("gen-field", 'kernel="nope"', "kernel"),
        ],
    )
    def test_incomplete_section_exit_1(self, tmp_path, capsys, subcommand, assignment, key):
        assert _run(tmp_path, subcommand, "--set", assignment) == 1
        assert refusal(capsys, tmp_path, subcommand).startswith(f"config key {key}: ")

    @pytest.mark.parametrize(
        "subcommand,assignment,key",
        [
            ("clt-run", 'clt={"replicates":5}', "clt.n_grid"),
            ("blocks", 'blocks={"replicates":5}', "blocks.n_grid"),
            ("moment-check", 'moment_check={"n_grid":[64]}', "moment_check.x_points"),
            ("moment-check", 'moment_check={"n_grid":[64],"x_points":null,"replicates":5,"wu_p":[1]}',
             "moment_check.rectangles"),
            ("fixed-m-gap", 'gap={"replicates":5}', "gap.n_grid"),
            ("kde", 'kde={"m":2}', "kde.n"),
            ("gen-field", 'gen_field={"n":16}', "gen_field.m"),
            ("check-conditions", 'conditions={"hallin_q":4.0}', "conditions.n_grid"),
            ("check-conditions", 'conditions={"n_grid":[16,32,64]}', "conditions.hallin_q"),
            ("check-conditions", 'conditions={"n_grid":[16,32,64],"hallin_q":null}', "conditions.qsum_q"),
            ("kde", 'bandwidth={"c2":1.0}', "bandwidth.gamma"),
            ("kde", 'bandwidth={"gamma":0.2}', "bandwidth.c2"),
            ("kde", 'truncation={"policy":"fixed"}', "truncation.eta"),
            ("kde", 'limits={}', "limits.max_field_bytes"),
            # every key with a default is read from the config, never from a second
            # fallback: these ran 200 replicates and three x points
            ("blocks", 'blocks={"m":4,"n_grid":[256,1024,4096],"x_points":null}', "blocks.replicates"),
            ("blocks", 'blocks={"m":4,"n_grid":[256,1024,4096]}', "blocks.x_points"),
            ("blocks", 'blocks={"n_grid":[256],"x_points":null,"replicates":5}', "blocks.m"),
            ("clt-run", 'clt={"n_grid":[16],"replicates":5,"variance_band":0.1}', "clt.x_points"),
            ("clt-run", 'clt={"n_grid":[16],"replicates":5,"x_points":[0.0]}', "clt.variance_band"),
            ("fixed-m-gap", 'gap={"n_grid":[64],"x_points":null,"replicates":5}', "gap.m"),
            ("gen-field", 'gen_field={"n":16,"m":2}', "gen_field.write_csv"),
        ],
    )
    def test_section_missing_a_read_key_exit_1(self, tmp_path, capsys, subcommand, assignment, key):
        # a section replaced as a whole names the first key the subcommand reads and misses
        assert _run(tmp_path, subcommand, "--set", assignment) == 1
        message = refusal(capsys, tmp_path, subcommand)
        assert message == f"config key {key}: must be set: its section was replaced without it"

    @pytest.mark.parametrize(
        "subcommand,sets,key",
        [
            # parameters of another coefficient family or innovation law
            ("check-conditions", ["coefficient.q=3.0"], "coefficient.q"),
            ("check-conditions", ["coefficient.scale=2.0"], "coefficient.scale"),
            ("check-conditions", ["coefficient.table=[1.0]"], "coefficient.table"),
            ("check-conditions", ['coefficient={"family":"power_decay","d":1,"q":4.0,"ratio":0.5}'],
             "coefficient.ratio"),
            ("kde", ["innovations.nu=5"], "innovations.nu"),
            # duplicates of coefficient.beta, bandwidth.gamma and schedule.delta
            ("check-conditions", ["conditions.beta=3.0"], "conditions.beta"),
            ("check-conditions", ["conditions.gamma=0.5"], "conditions.gamma"),
            ("check-conditions", ["conditions.delta=0.4"], "conditions.delta"),
            # only echoed, and a second name for finite_support
            ("check-conditions", ["coefficient.c1=1.0"], "coefficient.c1"),
            ("check-conditions", ['coefficient={"family":"tabulated","d":1,"table":[1.0]}'], "tabulated"),
            # CSV export is limited to sides <= 64
            ("gen-field", ["gen_field.write_csv=true", "gen_field.n=128"], "gen_field.write_csv"),
            # the manifest echoes the config, and reports hold finite numbers only
            ("check-conditions", ["bandwidth.gamma=NaN"], "bandwidth.gamma"),
            ("gen-field", ['limits={"max_field_bytes":Infinity}'], "limits.max_field_bytes"),
            # q-sum convergence is decided exactly, with no summation radius
            ("check-conditions", ["conditions.qsum_q=1.0", "conditions.qsum_radius=256"], "conditions.qsum_radius"),
            ("check-conditions", ['conditions={"n_grid":[16,32,64],"hallin_q":null,"qsum_q":null,"qsum_radius":null}'],
             "conditions.qsum_radius"),
            ("check-conditions", ["conditions.qsum_q=-1.0"], "conditions.qsum_q"),
            ("check-conditions", ['conditions.qsum_q="a"'], "conditions.qsum_q"),
            ("check-conditions", ["conditions.qsum_q=[5.0]"], "conditions.qsum_q"),
        ],
    )
    def test_rejected_key_exit_1_naming_it(self, tmp_path, capsys, subcommand, sets, key):
        argv = [subcommand]
        for assignment in sets:
            argv += ["--set", assignment]
        assert _run(tmp_path, *argv) == 1
        assert key in capsys.readouterr().err
        out = tmp_path / subcommand.replace("-", "_")
        assert [p.name for p in out.iterdir() if p.name != "manifest.json"] == []

    @pytest.mark.parametrize(
        "subcommand,assignment,key",
        [
            ("check-conditions", "conditions.hallin_q=[4]", "conditions.hallin_q"),
            ("check-conditions", "conditions.n_grid=[16,null]", "conditions.n_grid"),
            ("clt-run", "clt.n_grid=[null]", "clt.n_grid"),
            ("clt-run", "clt.n_grid=32", "clt.n_grid"),
            ("clt-run", 'clt.replicates="a"', "clt.replicates"),
            ("clt-run", "clt.replicates=2.7", "clt.replicates"),
            ("clt-run", "clt.replicates=true", "clt.replicates"),
            ("clt-run", "clt.variance_band=null", "clt.variance_band"),
            ("clt-run", 'seed="1"', "seed"),
            ("clt-run", "threads=1.5", "threads"),
            ("kde", "coefficient.d=1.5", "coefficient.d"),
            ("kde", 'bandwidth.gamma="0.2"', "bandwidth.gamma"),
            ("kde", "truncation.eta=[0.01]", "truncation.eta"),
            ("kde", "truncation.M=2.5", "truncation.M"),
            ("kde", "limits.max_field_bytes=false", "limits.max_field_bytes"),
            ("gen-field", 'gen_field.n="16"', "gen_field.n"),
            ("blocks", "blocks.eps=[0.5,null]", "blocks.eps"),
            ("blocks", "blocks.l=7.5", "blocks.l"),
            ("fixed-m-gap", "gap.m=2.5", "gap.m"),
            # below their least value, which a library check rejected without the key; eta = 0
            # ran at the radius where B_M rounds to 0
            ("clt-run", "clt.replicates=-3", "clt.replicates"),
            ("clt-run", "clt.replicates=0", "clt.replicates"),
            ("fixed-m-gap", "gap.replicates=0", "gap.replicates"),
            ("moment-check", "moment_check.replicates=0", "moment_check.replicates"),
            ("kde", "truncation.eta=0", "truncation.eta"),
            ("kde", "truncation.eta=-0.5", "truncation.eta"),
            # sizes below 1: n = 0 ended in a ZeroDivisionError and n = -4 in a TypeError
            ("kde", "kde.n=0", "kde.n"),
            ("gen-field", "gen_field.m=0", "gen_field.m"),
            ("clt-run", "clt.n_grid=[0]", "clt.n_grid"),
            ("clt-run", "clt.n_grid=[-4]", "clt.n_grid"),
            ("fixed-m-gap", "gap.m=0", "gap.m"),
            # values that were accepted and meant nothing
            ("gen-field", "gen_field.write_csv=3", "gen_field.write_csv"),
            ("moment-check", "moment_check.ratio_cap=1", "moment_check.ratio_cap"),
            ("moment-check", "moment_check.ratio_cap=0.5", "moment_check.ratio_cap"),
            ("check-conditions", "schedule.delta=0", "schedule.delta"),
            ("clt-run", "schedule.delta=-0.2", "schedule.delta"),
            ("clt-run", "clt.variance_band=0", "clt.variance_band"),
            # the radius of the fixed policy alone; bandwidth_relative chooses its own
            ("kde", "truncation.M=7", "truncation.M"),
            # rules across keys, which a library check rejected without the key
            ("kde", 'truncation.policy="fixed"', "truncation.M"),
            ("blocks", "blocks.l=2", "blocks.l"),
            ("blocks", "blocks.l=4", "blocks.l"),
            # the Lindeberg terms are keyed by eps: a repeat wrote one row where the plan counted two
            ("blocks", "blocks.eps=[0.5,0.5]", "blocks.eps"),
            ("check-conditions", "conditions.n_grid=[16]", "conditions.n_grid"),
            ("check-conditions", "conditions.n_grid=[16,64,32]", "conditions.n_grid"),
            # no numpy array holds a batch of fields in 64 dimensions
            ("kde", "coefficient.d=64", "coefficient.d"),
        ],
    )
    def test_config_number_exit_1_naming_it(self, tmp_path, capsys, subcommand, assignment, key):
        assert _run(tmp_path, subcommand, "--set", assignment) == 1
        assert refusal(capsys, tmp_path, subcommand).startswith(f"config key {key}: ")

    @pytest.mark.parametrize("path,k,test", BAD_VALUES, ids=[f"{path}-{test}" for path, _, test in BAD_VALUES])
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_table_key_rejects_a_bad_value_at_load(self, tmp_path, no_draw, path, k, test, data):
        import contextlib
        import io

        value = data.draw(_bad_values(path, k)[test == "bounds"], label="value")
        subcommand = data.draw(st.sampled_from(SUBCOMMANDS), label="subcommand")
        out = tmp_path / subcommand.replace("-", "_")
        (out / "manifest.json").unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert _run(tmp_path, subcommand, "--set", f"{path}={json.dumps(value)}") == 1
        assert err.getvalue().startswith(f"error: config key {path}: "), err.getvalue()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error" and path in manifest["error"] and manifest["config"] is None
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize(
        "assignment",
        [
            "moment_check.wu_p=[true]",
            "moment_check.wu_p=[3]",
            "moment_check.wu_p=2",
            "moment_check.rectangles=[null]",
            "moment_check.rectangles=[2.5]",
            "moment_check.rectangles=[0]",
            "moment_check.rectangles=[]",
            "moment_check.rectangles=[[4,4]]",
            "moment_check.rectangles=[[true]]",
        ],
    )
    def test_moment_check_orders_and_rectangles_exit_1_naming_the_key(self, tmp_path, capsys, assignment):
        key = assignment.split("=")[0]
        assert _run(tmp_path, "moment-check", "--set", assignment) == 1
        assert refusal(capsys, tmp_path, "moment-check").startswith(f"config key {key}: must be ")

    def test_a_fault_in_a_handler_leaves_the_manifest_at_error(self, tmp_path, monkeypatch):
        import fieldkde.cli as cli

        def broken(cfg, config, section, run, out_dir):
            raise RuntimeError("broken on purpose")

        monkeypatch.setitem(cli.EXPERIMENTS, "kde", replace(cli.EXPERIMENTS["kde"], run=broken))
        with pytest.raises(RuntimeError, match="broken on purpose"):
            _run(tmp_path, "kde")
        manifest = json.loads((tmp_path / "kde" / "manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["error"] == "RuntimeError: broken on purpose"
        assert manifest["config"]["kde"]["n"] == 1024 and manifest["master_seed"] == DEFAULT_CONFIG["seed"]

    def test_moment_check_rectangle_above_n_exit_1_before_any_draw(self, tmp_path, capsys, no_draw):
        # the default rectangles [4, 16, 64, 256, 1024] at n = 64
        assert _run(tmp_path, "moment-check", "--set", "moment_check.n_grid=[64,128]") == 1
        message = refusal(capsys, tmp_path, "moment-check")
        assert message.startswith("config key moment_check.rectangles: must fit") and "[256, 1024]" in message

    def test_moment_check_reports_every_rectangle_that_fits(self, tmp_path):
        code = _run(tmp_path, "moment-check", "--set", "moment_check.n_grid=[64,128]",
                    "--set", "moment_check.replicates=5", "--set", "moment_check.rectangles=[4,[16],64]",
                    "--set", "moment_check.wu_p=[]")
        assert code in (0, 2)
        rows = json.loads((tmp_path / "moment_check" / "report.json").read_text())["rectangles"]["rows"]
        assert [(r["n"], r["rectangle"]) for r in rows] == [(n, [s]) for n in (64, 128) for s in (4, 16, 64)]

    def test_moment_check_takes_sides_as_lists_and_no_orders(self, tmp_path):
        small = ["--set", "moment_check.n_grid=[64]", "--set", "moment_check.replicates=5"]
        assert _run(tmp_path / "a", "moment-check", *small, "--set", "moment_check.rectangles=[4,16]") in (0, 2)
        code = _run(tmp_path / "b", "moment-check", *small, "--set", "moment_check.rectangles=[[4],[16]]",
                    "--set", "moment_check.wu_p=[]")
        assert code in (0, 2)
        a, b = (json.loads((tmp_path / t / "moment_check" / "report.json").read_text()) for t in "ab")
        assert b["wu"] == [] and a["rectangles"] == b["rectangles"]

    def test_integral_float_counts_as_an_integer(self, tmp_path):
        assert _run(tmp_path, "clt-run", "--set", "clt.n_grid=[16.0]", "--set", "clt.replicates=3.0") == 0
        point = json.loads((tmp_path / "clt_run" / "report.json").read_text())["points"][0]
        assert point["n"] == 16 and point["replicates"] == 3 and len(_replicates(tmp_path)) == 3

    @pytest.mark.parametrize(
        "x,prefix",
        [
            # the density is 0 there, which the plan rejects before any draw
            (60.0, "the field's density is 0 at x = 60.0, "),
            # the density is positive but subnormal, and the truncated field's is 0: no site reaches x, every
            # rectangle sum is 0, and so is every norm
            (44.0, "at x = 44.0 the truncated kernel field sums to 0 over every rectangle in every replicate "),
            # the density is positive, but no site reaches x: every rectangle sum is 0, the norms are
            # sqrt(vol) times the centering, and their max/min ratio is that of the volumes alone
            (8.0, "at x = 8.0 the truncated kernel field sums to 0 over every rectangle in every replicate "),
        ],
    )
    def test_moment_check_at_a_point_no_site_reaches_exit_1(self, tmp_path, capsys, x, prefix):
        code = _run(tmp_path, "moment-check", "--set", "moment_check.wu_p=[]",
                    "--set", f"moment_check.x_points=[{x}]", "--set", "moment_check.n_grid=[64]",
                    "--set", "moment_check.replicates=5", "--set", "moment_check.rectangles=[4,16]")
        assert code == 1
        assert refusal(capsys, tmp_path, "moment-check").startswith(f"config key moment_check.x_points: {prefix}")

    @pytest.mark.parametrize("scale", ["1e-20", "1e-150"])
    def test_moment_check_on_a_field_far_narrower_than_the_bandwidth_exit_1(self, tmp_path, capsys, scale):
        # every site has one kernel value, so every centred rectangle norm is 0 and their ratio has no value; at
        # 1e-150 the weights' fourth powers underflow, which the Wu constants do not read
        code = _run(tmp_path, "moment-check", "--config", str(REPO / "configs" / "power_decay_d2.json"),
                    "--set", f"coefficient.scale={scale}", "--set", "moment_check.n_grid=[16,32]",
                    "--set", "moment_check.replicates=50", "--set", "moment_check.rectangles=[2,4,8]")
        assert code == 1
        message = refusal(capsys, tmp_path, "moment-check")
        assert message.startswith("config key moment_check.x_points: at x = 0.0 ")
        assert message.endswith(" or the field's spread lies far below the bandwidth")

    @pytest.mark.filterwarnings("error")
    def test_blocks_at_a_point_no_site_reaches_exit_1(self, tmp_path, capsys):
        # the density is positive at x = 8, but every block sum is 0, so adjacent blocks have no correlation
        code = _run(tmp_path, "blocks", "--config", str(REPO / "configs" / "blocks_d1.json"),
                    "--set", "blocks.x_points=[8.0]", "--set", "blocks.n_grid=[256,512,1024]",
                    "--set", "blocks.replicates=20")
        assert code == 1
        message = refusal(capsys, tmp_path, "blocks")
        assert message.startswith("config key blocks.x_points: at x = 8.0 the adjacent big-block sums ")
        assert message.endswith(" at n = 256, so their correlation is undefined: x lies beyond the kernel's reach "
                                "of the field's values, or the field's spread lies far below the bandwidth")

    @pytest.mark.parametrize("replicates", [1, 1.0])
    def test_blocks_with_one_replicate_exit_1_before_any_draw(self, tmp_path, capsys, no_draw, replicates):
        assert _run(tmp_path, "blocks", "--set", f"blocks.replicates={replicates}") == 1
        assert refusal(capsys, tmp_path, "blocks") == "config key blocks.replicates: must be at least 2, got 1"

    @pytest.mark.parametrize(
        "sets,message",
        [
            # a scheduled gap m_n = round(n^0.5) is 16 at n = 256 and 32 at n = 1024
            (["blocks.m=null", "schedule.delta=0.5", "blocks.l=20", "blocks.n_grid=[256,1024]"],
             "need l_n > m_n at n = 1024 (got l=20, m=32)"),
            (["blocks.l=300", "blocks.n_grid=[1024,256]"], "block side 300 exceeds the lattice side 256"),
        ],
    )
    def test_block_plan_exit_1_naming_blocks_l_before_any_draw(self, tmp_path, capsys, no_draw, sets, message):
        argv = [arg for assignment in sets for arg in ("--set", assignment)]
        assert _run(tmp_path, "blocks", *argv) == 1
        assert refusal(capsys, tmp_path, "blocks") == f"config key blocks.l: {message}"

    @pytest.mark.parametrize(
        "argv,key",
        [
            # m_n = 4 at the config's first grid point, above the fixed radius
            (["clt-run", "--config", str(REPO / "configs" / "power_decay_d2.json"),
              "--set", 'truncation.policy="fixed"', "--set", "truncation.M=2"], "truncation.M"),
            (["kde", "--set", 'truncation.policy="fixed"', "--set", "truncation.M=2", "--set", "kde.m=3"],
             "truncation.M"),
            # tails too heavy for any radius below 2^20 to bring B_M under eta * b
            (["kde", "--set", "coefficient.d=40", "--set", "coefficient.ratio=0.9999999"], "truncation.eta"),
            (["kde", "--set", 'coefficient={"family":"power_decay","d":1,"q":0.6}'], "truncation.eta"),
        ],
    )
    def test_truncation_plan_exit_1_naming_its_key(self, tmp_path, capsys, no_draw, argv, key):
        assert _run(tmp_path, *argv) == 1
        assert refusal(capsys, tmp_path, argv[0]).startswith(f"config key {key}: ")

    @pytest.mark.parametrize(
        "sub,section,sets",
        [
            ("clt-run", "clt", []),
            ("moment-check", "moment_check", ["moment_check.rectangles=[4,16]"]),
            ("fixed-m-gap", "gap", ["gap.m=null"]),
        ],
    )
    def test_truncation_planned_at_every_grid_point_before_any_draw(self, tmp_path, capsys, no_draw, sub,
                                                                     section, sets):
        # m_n = round(n^(5/12)) is 4 at n = 32, within the fixed radius, and 6 at n = 64
        sets = ['truncation.policy="fixed"', "truncation.M=4", f"{section}.n_grid=[32,64,1024]", *sets]
        argv = [arg for assignment in sets for arg in ("--set", assignment)]
        assert _run(tmp_path, sub, "--config", str(REPO / "configs" / "power_decay_d2.json"), *argv) == 1
        assert refusal(capsys, tmp_path, sub) == "config key truncation.M: need m <= M (got m=6, M=4) at n = 64"

    @pytest.mark.parametrize(
        "subcommand,assignment,key",
        [
            ("kde", "kde.x_grid=[NaN]", "kde.x_grid"),
            ("kde", "kde.x_grid=[0.0, Infinity]", "kde.x_grid"),
            ("kde", "kde.x_grid=[]", "kde.x_grid"),
            ("clt-run", "clt.x_points=[NaN]", "clt.x_points"),
            ("clt-run", "clt.x_points=[]", "clt.x_points"),
            ("blocks", "blocks.x_points=[-Infinity]", "blocks.x_points"),
            ("blocks", "blocks.x_points=[]", "blocks.x_points"),
            ("moment-check", "moment_check.x_points=[NaN]", "moment_check.x_points"),
            ("moment-check", "moment_check.x_points=[]", "moment_check.x_points"),
            ("fixed-m-gap", "gap.x_points=[Infinity]", "gap.x_points"),
            ("fixed-m-gap", "gap.x_points=[]", "gap.x_points"),
            # values that are not lists of numbers
            ("clt-run", "clt.x_points=[null]", "clt.x_points"),
            ("clt-run", 'clt.x_points="a"', "clt.x_points"),
            ("clt-run", "clt.x_points=[true]", "clt.x_points"),
            ("kde", "kde.x_grid=2", "kde.x_grid"),
            ("kde", "kde.x_grid=null", "kde.x_grid"),
            ("kde", 'kde.x_grid=[0.0,"1"]', "kde.x_grid"),
            ("blocks", "blocks.x_points=0.5", "blocks.x_points"),
            ("moment-check", 'moment_check.x_points={"x":0}', "moment_check.x_points"),
            ("fixed-m-gap", "gap.x_points=[[0.0]]", "gap.x_points"),
        ],
    )
    def test_empty_or_nonfinite_evaluation_points_exit_1(self, tmp_path, capsys, no_draw, subcommand,
                                                         assignment, key):
        assert _run(tmp_path, subcommand, "--set", assignment) == 1
        assert refusal(capsys, tmp_path, subcommand).startswith(f"config key {key}: ")

    def test_gen_field_provenance(self, tmp_path):
        from fieldkde.field import read_field_binary

        assert _run(tmp_path, "gen-field", "--set", "gen_field.n=8", "--seed", "7") == 0
        for component in ("full", "truncated", "residual"):
            prov = read_field_binary(tmp_path / "gen_field" / f"field_{component}.bin").provenance
            assert prov == {
                "coefficients": {"family": "geometric", "d": 1, "ratio": 0.5},
                "innovations": {"name": "gaussian"},
                "truncation_radius": prov["truncation_radius"],
                "seed": {"master": 7, "stream": 0, "replicate": 0},
                "component": component,
            }

    @pytest.mark.parametrize("coefficient,innovations", [
        ('{"family":"geometric","d":1,"ratio":0.5}', '{"name":"gaussian"}'),
        # the default scale, which the model sets to 1
        ('{"family":"power_decay","d":2,"q":4.0}', '{"name":"student_t","nu":5.0}'),
        ('{"family":"finite_support","d":2,"table":[[1.0,0.5,0.1],[0.25,0.125,0.0]]}', '{"name":"uniform"}'),
    ])
    def test_gen_field_provenance_rebuilds_the_models(self, tmp_path, coefficient, innovations):
        from fieldkde.coefficients import model_from_config
        from fieldkde.field import read_field_binary

        sets = [f"coefficient={coefficient}", f"innovations={innovations}", "gen_field.n=8", "gen_field.m=2"]
        assert _run(tmp_path, "gen-field", *(a for s in sets for a in ("--set", s))) == 0
        cfg = load_config(None, sets)
        model, innov = model_from_config(cfg["coefficient"]), InnovationModel.from_config(cfg["innovations"])
        for component in ("full", "truncated", "residual"):
            prov = read_field_binary(tmp_path / "gen_field" / f"field_{component}.bin").provenance
            rebuilt = model_from_config(prov["coefficients"])
            for name in model.__dataclass_fields__:
                got, want = getattr(rebuilt, name), getattr(model, name)
                assert np.array_equal(got, want) if name == "table" and want is not None else got == want, name
            assert InnovationModel.from_config(prov["innovations"]) == innov

    @pytest.mark.parametrize("qsum_q", ["null", "5.0"])
    def test_conditions_section_replaced_whole_runs(self, tmp_path, qsum_q):
        assignment = f'conditions={{"n_grid":[16,32,64],"hallin_q":null,"qsum_q":{qsum_q}}}'
        assert _run(tmp_path, "check-conditions", "--set", assignment) == 0
        checks = json.loads((tmp_path / "check_conditions" / "report.json").read_text())["checks"]
        assert ("qsum" in checks) == (qsum_q != "null")
        assert "hallin" not in checks

    @pytest.mark.parametrize(
        "coefficient,q,verdict,q_bound",
        [
            ('{"family":"geometric","d":1,"ratio":0.99}', 5.0, "pass", "inf"),
            ('{"family":"power_decay","d":1,"q":4.0}', 2.9, "pass", 3.0),
            ('{"family":"power_decay","d":1,"q":4.0}', 3.0, "fail", 3.0),
            ('{"family":"power_decay","d":2,"q":4.0}', 1.5, "pass", 2.0),
            ('{"family":"power_decay","d":2,"q":4.0}', 5.0, "fail", 2.0),
        ],
    )
    def test_qsum_verdict_is_exact(self, tmp_path, coefficient, q, verdict, q_bound):
        code = _run(tmp_path, "check-conditions", "--set", f"coefficient={coefficient}",
                    "--set", f"conditions.qsum_q={q}", "--set", "bandwidth.gamma=0.2")
        assert code in (0, 2)
        qsum = json.loads((tmp_path / "check_conditions" / "report.json").read_text())["checks"]["qsum"]
        assert (qsum["verdict"], qsum["details"]["q_bound"], qsum["thresholds"]) == (verdict, q_bound, {})

    def test_a_table_cap_exit_1(self, tmp_path, capsys):
        # n = 8192 at d=2 needs an A-table of 8193^2 doubles, above the 2^28-byte cap
        code = _run(
            tmp_path,
            "check-conditions",
            "--config", str(REPO / "configs" / "power_decay_d2.json"),
            "--set", "conditions.n_grid=[16,32,64,8192]",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: A-table")
        manifest = json.loads((tmp_path / "check_conditions" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "A-table" in manifest["error"]

    @pytest.mark.parametrize("q", [1.8, 2.0])
    def test_power_decay_near_the_beta_boundary_runs(self, tmp_path, q):
        # d=1: beta = q - 1/2 is 1.3 or 1.5 > d, inside the decay window at gamma = 0.2
        model = ("--set", f'coefficient={{"family":"power_decay","d":1,"q":{q}}}',
                 "--set", "bandwidth.gamma=0.2")
        assert _run(tmp_path, "check-conditions", *model) == 0
        report = json.loads((tmp_path / "check_conditions" / "report.json").read_text())
        assert report["checks"]["schedule_limits"]["verdict"] == "pass (window)"
        code = _run(tmp_path, "clt-run", *model, "--set", "clt.n_grid=[64]",
                    "--set", "clt.replicates=20")
        assert code in (0, 2)
        T = [row["T"] for row in _replicates(tmp_path)]
        assert len(T) == 20 and all(t != "" and math.isfinite(float(t)) for t in T)

    def test_power_decay_d2_below_the_beta_boundary_exit_2(self, tmp_path):
        # d=2, q=2.5: beta = 1.5 < d fails the window, yet every sequence is computed
        code = _run(
            tmp_path,
            "check-conditions",
            "--set", 'coefficient={"family":"power_decay","d":2,"q":2.5}',
            "--set", "schedule.delta=0.3",
        )
        assert code == 2
        report = json.loads((tmp_path / "check_conditions" / "report.json").read_text())
        assert report["checks"]["schedule_limits"]["verdict"] == "fail"
        rows = [r["residual_over_b"] for r in report["checks"]["schedule_limits"]["grid_rows"]]
        assert rows == pytest.approx([0.3209, 0.2315, 0.2659, 0.2137], rel=1e-3)

    def test_unknown_key_in_config_file_exit_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"gap": {"replicates": 5, "mdoe": "growing"}}))
        assert _run(tmp_path, "fixed-m-gap", "--config", str(cfgfile)) == 1
        assert "gap.mdoe" in capsys.readouterr().err

    def test_unknown_config_file(self, tmp_path):
        assert _run(tmp_path, "clt-run", "--config", "/nonexistent.json") == 1

    @pytest.mark.parametrize("doc", ["[1]", "3", '"x"', "null"])
    def test_config_file_not_an_object_exit_1(self, tmp_path, capsys, doc):
        path = tmp_path / "top.json"
        path.write_text(doc)
        assert _run(tmp_path, "check-conditions", "--config", str(path)) == 1
        assert str(path) in capsys.readouterr().err

    # every subcommand under each non-Gaussian law, at m >= 2 wherever an oracle is built
    LAW_COVERAGE_RUNS = {
        "kde": ["kde.n=256", "kde.x_grid=[-9,-2,0,2,9]"],  # +-9 lie beyond the uniform law's support
        "gen-field": ["gen_field.n=32"],
        "clt-run": ["clt.n_grid=[128]", "clt.replicates=20"],
        "blocks": ["blocks.n_grid=[64,128]", "blocks.replicates=20"],
        "moment-check": [
            "moment_check.n_grid=[128]", "moment_check.replicates=20",
            "moment_check.rectangles=[4,16]",
        ],
        "fixed-m-gap": ["gap.n_grid=[256,1024]", "gap.replicates=20"],
        "fixed-m-gap growing": ["gap.n_grid=[256,1024]", "gap.replicates=20", "gap.m=null"],
    }

    @pytest.mark.parametrize("innovations", ['{"name":"uniform"}', '{"name":"student_t","nu":5.0}'])
    @pytest.mark.parametrize("run", list(LAW_COVERAGE_RUNS))
    def test_every_subcommand_runs_under_non_gaussian_laws(self, tmp_path, capsys, run, innovations):
        sets = [arg for s in self.LAW_COVERAGE_RUNS[run] for arg in ("--set", s)]
        code = _run(tmp_path, run.split()[0], "--set", f"innovations={innovations}", *sets)
        assert code in (0, 2), capsys.readouterr().err

    def test_kde_curve(self, tmp_path):
        code = _run(tmp_path, "kde", "--set", "kde.n=256")
        assert code == 0
        lines = (tmp_path / "kde" / "kde_curve.csv").read_text().splitlines()
        assert lines[0] == "x,estimate,b,oracle_density,expected_estimate,sigma2_x"

    def test_kde_runs_one_inverse_transform_on_the_gen_field_field(self, tmp_path, monkeypatch):
        import fieldkde.field as field
        from fieldkde.kde import kde_estimate, kernel_by_name

        inverse, calls = field.irfftn, []

        def counting(*args, **kw):
            calls.append(1)
            return inverse(*args, **kw)

        monkeypatch.setattr(field, "irfftn", counting)
        config = ["--config", str(REPO / "configs" / "power_decay_d2.json")]
        sets = ["kde.n=64", "kde.m=3", "gen_field.n=64", "gen_field.m=3"]
        argv = [*config, *(arg for assignment in sets for arg in ("--set", assignment))]
        assert _run(tmp_path, "gen-field", *argv) == 0
        calls.clear()
        assert _run(tmp_path, "kde", *argv) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "kde" / "report.json").read_text())
        values = field.read_field_binary(tmp_path / "gen_field" / "field_full.bin").values
        xs = [row["x"] for row in report["curve"]]
        want = kde_estimate(values, np.array(xs), report["b"], kernel_by_name(report["kernel"]))
        assert [row["estimate"] for row in report["curve"]] == want.tolist()

    def test_kde_honours_fixed_truncation(self, tmp_path):
        code = _run(tmp_path, "kde", "--set", "kde.n=64", "--set", "truncation.policy=fixed",
                    "--set", "truncation.M=30")
        assert code == 0
        report = json.loads((tmp_path / "kde" / "report.json").read_text())
        assert report["plan"]["M"] == 30 and report["plan"]["policy"] == "fixed"

    def test_kde_memory_cap_exit_1(self, tmp_path):
        code = _run(tmp_path, "kde", "--set", "kde.n=64", "--set", "limits.max_field_bytes=1000")
        assert code == 1
        manifest = json.loads((tmp_path / "kde" / "manifest.json").read_text())
        assert "bytes" in manifest["error"]

    def test_nonfinite_kernel_sum_reported_as_null_exit_2(self, tmp_path, monkeypatch):
        import fieldkde.clt as clt

        kernel_sums = clt._kernel_sums
        calls = []

        def first_nan(x, x_m, scratch, **kw):
            sums_f, sums_t = kernel_sums(x, x_m, scratch, **kw)  # (replicate, x) arrays for X and X_m
            if not calls:
                sums_f[0, 0] = math.nan
            calls.append(1)
            return sums_f, sums_t

        monkeypatch.setattr(clt, "_kernel_sums", first_nan)
        code = _run(tmp_path, "clt-run", "--set", "clt.replicates=3", "--set", "clt.n_grid=[64]")
        assert code == 2
        report = json.loads((tmp_path / "clt_run" / "report.json").read_text())
        point = report["points"][0]
        assert report["nonfinite"] == 1 and report["overall"] == "fail"
        first, second = _replicates(tmp_path)[:2]
        assert first["T"] == "" and first["T_remainder"] == ""
        assert first["T_zeta"] != "" and second["T"] != ""
        assert point["mean"] is None and point["verdicts"] == {"overall": "fail", "nonfinite": 1}
        assert "T" not in point

    @pytest.mark.parametrize("kernel", ["epanechnikov", "gaussian", "triangular"])
    def test_nan_in_field_reported_as_null_exit_2(self, tmp_path, monkeypatch, kernel):
        import fieldkde.clt as clt

        generate = clt.generate_coupled_fields
        calls = []

        def first_nan(*args, **kw):
            x, x_m = generate(*args, **kw)
            if not calls:
                x[(0,) * x.ndim] = math.nan
            calls.append(1)
            return x, x_m

        monkeypatch.setattr(clt, "generate_coupled_fields", first_nan)
        code = _run(tmp_path, "clt-run", "--set", f"kernel={kernel}", "--set", "clt.replicates=3",
                    "--set", "clt.n_grid=[64]")
        assert code == 2
        report = json.loads((tmp_path / "clt_run" / "report.json").read_text())
        point = report["points"][0]
        assert report["nonfinite"] == 1 and report["overall"] == "fail"
        first, second = _replicates(tmp_path)[:2]
        assert first["T"] == "" and first["T_remainder"] == ""
        assert first["T_zeta"] != "" and second["T"] != ""
        assert point["mean"] is None and point["variance"] is None

    def test_nan_outside_the_replicate_table_exit_1_without_csv(self, tmp_path, capsys, monkeypatch):
        # every other table is in the report, which is written first and refuses a non-finite value
        import fieldkde.cli as cli

        monkeypatch.setattr(cli, "kde_estimate", lambda values, xs, b, kernel: np.full(len(xs), math.nan))
        assert _run(tmp_path, "kde", "--set", "kde.n=16") == 1
        assert "reports must contain finite numbers only" in capsys.readouterr().err
        assert not list((tmp_path / "kde").glob("*.csv"))
        manifest = json.loads((tmp_path / "kde" / "manifest.json").read_text())
        assert manifest["status"] == "error" and "finite numbers only" in manifest["error"]

    def test_replicate_table_memory_per_row(self, tmp_path):
        # the table travels as float columns and is written in chunks: its peak memory grows by a
        # few floats per row, where a Python value per cell took about 740 bytes; at n = 512 the
        # batch holds 256 replicates at either R, so the growth is the results' alone
        argv = ["clt-run", "--config", str(REPO / "configs" / "iid_baseline.json"), "--set", "clt.n_grid=[512]",
                "--set", "clt.x_points=[0.0,0.5]"]

        def peak(replicates):
            tracemalloc.start()
            try:
                assert _run(tmp_path / str(replicates), *argv, "--set", f"clt.replicates={replicates}") in (0, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def plan(replicates):
            cfg = load_config(argv[2], argv[4::2] + [f"clt.replicates={replicates}"])
            return plan_run(cfg, _experiment(cfg), "clt-run")

        def planned(replicates):
            run = plan(replicates)
            return run.points[0].bytes + run.result_bytes

        def batch(replicates):
            return plan(replicates).points[0].batch

        assert batch(500) == batch(5000) < 500
        _run(tmp_path / "warm", *argv, "--set", "clt.replicates=500")  # imports and caches, untraced
        small, large = peak(500), peak(5000)
        per_row = (large - small) / (2 * (5000 - 500))
        assert per_row < 300, f"peak memory grows by {per_row:.0f} bytes per replicate row"
        # the run plan counts at least that growth against the cap: the fields' batch and the results
        assert per_row <= (planned(5000) - planned(500)) / (2 * (5000 - 500))

    @pytest.mark.parametrize("d,n,l", [(1, 4096, 8), (2, 128, 4)])
    def test_blocks_peak_within_the_planned_bytes(self, tmp_path, d, n, l):
        # one grid point with many small blocks, so the big-block sums and the checks' copies of them dominate
        cfg = load_config(None, [f'coefficient={{"family":"geometric","d":{d},"ratio":0.5}}', "bandwidth.gamma=0.5",
                                 f"blocks.n_grid=[{n}]", "blocks.replicates=2000", "blocks.m=2", f"blocks.l={l}"])
        config = _experiment(cfg)
        run = plan_run(cfg, config, "blocks")
        cmd_blocks(cfg, config, "blocks", run, tmp_path)  # imports and caches, untraced
        tracemalloc.start()
        try:
            cmd_blocks(cfg, config, "blocks", run, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = 8 * 2000 * run.points[0].q ** d
        assert peak > 3 * samples  # the checks' copies, beside the sums, outweigh the sums held twice at the join
        assert peak <= run.points[0].bytes + run.result_bytes

    @pytest.mark.parametrize("sub,section,sets", [
        ("moment-check", "moment_check", ["moment_check.n_grid=[8,16,32]", "moment_check.rectangles=[1,2,4,8]"]),
        ("fixed-m-gap", "gap", ["gap.n_grid=[8,16,32]"]),
    ])
    def test_rectangle_and_gap_peaks_within_the_planned_bytes(self, tmp_path, sub, section, sets):
        # small batches under a small cap, so the replicate results and keys dominate: each point's results are
        # held twice at its join and freed before the next point runs, and its keys hash one chunk at a time
        cfg = load_config(None, ['coefficient={"family":"geometric","d":1,"ratio":0.5}', "bandwidth.gamma=0.5",
                                 "limits.max_field_bytes=300000", f"{section}.replicates=20000", *sets])
        config = _experiment(cfg)
        run = plan_run(cfg, config, sub)
        handler = EXPERIMENTS[sub].run
        handler(cfg, config, section, run, tmp_path)  # imports and caches, untraced
        tracemalloc.start()
        try:
            handler(cfg, config, section, run, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * run.result_bytes < peak <= max(p.bytes for p in run.points) + run.result_bytes

    def test_gaussian_runs_leave_out_scipy(self, tmp_path):
        # importing scipy costs a process about a third of a second; only the
        # inversion oracle, for uniform and Student t laws, loads scipy.special
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        config = str(REPO / "configs" / "power_decay_d2.json")
        probe = f"""
import sys
import fieldkde.cli
from fieldkde import CoefficientModel, InnovationModel, density_oracle
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
for argv in (["clt-run", "--set", "clt.n_grid=[16]", "--set", "clt.replicates=2"], ["kde", "--set", "kde.n=32"]):
    assert fieldkde.cli.main([*argv, "--config", {config!r}, "--out", {str(tmp_path)!r}]) in (0, 2)
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
density_oracle(CoefficientModel(d=2, family="power_decay", q=4.0), InnovationModel("student_t", 5.0), 2)
print("scipy.special" in sys.modules)
"""
        done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "False", "True"]

    def test_scripts_sharing_a_subcommand_write_apart(self, tmp_path, monkeypatch):
        scripts = Path(__file__).resolve().parent.parent / "scripts"
        for name in ("run_iid_baseline", "run_power_decay_d2"):
            monkeypatch.setattr(sys, "argv", [name, "--out", str(tmp_path), "--set", "clt.replicates=2",
                                              "--set", "clt.n_grid=[16]"])
            with pytest.raises(SystemExit) as done:
                runpy.run_path(str(scripts / f"{name}.py"), run_name="__main__")
            assert done.value.code == 0
        reports = sorted(tmp_path.glob("*/clt_run/report.json"))
        assert [p.relative_to(tmp_path).parts[0] for p in reports] == ["iid_baseline", "power_decay_d2"]

    def test_report_regenerates_from_manifest(self, tmp_path):
        code = _run(
            tmp_path / "first",
            "clt-run",
            "--set", "clt.replicates=16",
            "--set", "clt.n_grid=[128]",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "first" / "clt_run" / "manifest.json").read_text())
        cfgfile = tmp_path / "replay.json"
        cfgfile.write_text(json.dumps(manifest["config"]))
        assert main(["clt-run", "--config", str(cfgfile), "--out", str(tmp_path / "second")]) == 0
        a = (tmp_path / "first" / "clt_run" / "report.json").read_bytes()
        b = (tmp_path / "second" / "clt_run" / "report.json").read_bytes()
        assert a == b

    def test_fixed_m_gap_subcommand(self, tmp_path):
        code = _run(
            tmp_path,
            "fixed-m-gap",
            "--set", "gap.n_grid=[512,2048]",
            "--set", "gap.replicates=30",
            "--set", "bandwidth.gamma=0.5",
        )
        assert code == 0
        report = json.loads((tmp_path / "fixed_m_gap" / "report.json").read_text())
        assert report["gap"]["mode"] == "fixed"
