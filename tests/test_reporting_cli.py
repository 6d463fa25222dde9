import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldkde.cli import load_config, main
from fieldkde.reporting import SCHEMA_VERSION, canonical_json, float_repr, write_csv

from conftest import MASTER_SEED


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


class TestCsv:
    def test_header_and_formatting(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(
            [{"n": 4, "value": 1.0 / 3.0, "tag": "a,b"}],
            p,
            ["n", "value", "tag"],
        )
        lines = p.read_text().splitlines()
        assert lines[0] == "n,value,tag"
        assert lines[1].startswith("4,0.33333333333333331,")
        assert '"a,b"' in lines[1]

    def test_schema_version_exported(self):
        assert SCHEMA_VERSION == 1


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
        from fieldkde.cli import ToolError

        with pytest.raises(ToolError):
            load_config(None, ["oops"])


THREAD_INVARIANCE_SETS = {
    "clt-run": ["clt.replicates=25", "clt.n_grid=[128]"],
    "blocks": ["blocks.replicates=25", "blocks.n_grid=[256,1024]"],
    "moment-check": [
        "moment_check.replicates=25", "moment_check.n_grid=[256]",
        "moment_check.rectangles=[4,16,64]", "moment_check.wu_sample=2000",
    ],
    "fixed-m-gap": ["gap.replicates=25", "gap.n_grid=[512,2048]", "bandwidth.gamma=0.5"],
}


def _run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestCli:
    def test_check_conditions_pass(self, tmp_path):
        code = _run(
            tmp_path,
            "check-conditions",
            "--set", 'coefficient={"family":"power_decay","d":2,"q":4.0}',
            "--set", "bandwidth.gamma=1.0",
            "--set", "conditions.delta=0.4166666666666667",
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
            "--set", "conditions.delta=0.4",
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
        assert report["coupling_max_abs_gap"] == 0.0 or report["coupling_max_abs_gap"] < 1e-12
        from fieldkde.field import read_field_binary

        f = read_field_binary(out / "field_full.bin")
        assert f.n == 16

    @pytest.mark.parametrize("sub", list(THREAD_INVARIANCE_SETS))
    def test_reports_identical_across_thread_counts(self, tmp_path, sub):
        # an odd replicate count splits into uneven per-worker chunks
        blobs = []
        for t in (1, 2):
            argv = [sub, "--threads", str(t), "--out", str(tmp_path / str(t))]
            for assignment in THREAD_INVARIANCE_SETS[sub]:
                argv += ["--set", assignment]
            assert main(argv) == 0
            blobs.append((tmp_path / str(t) / sub.replace("-", "_") / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_1(self, tmp_path, threads):
        code = _run(tmp_path, "clt-run", "--set", "clt.replicates=2", "--set", "clt.n_grid=[64]",
                    "--threads", threads)
        assert code == 1
        manifest = json.loads((tmp_path / "clt_run" / "manifest.json").read_text())
        assert "threads" in manifest["error"]

    def test_check_conditions_explicit_zero_gamma_exit_1(self, tmp_path):
        code = _run(tmp_path, "check-conditions", "--set", "conditions.gamma=0")
        assert code == 1
        manifest = json.loads((tmp_path / "check_conditions" / "manifest.json").read_text())
        assert "gamma" in manifest["error"]

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIELDKDE_OUT", str(tmp_path / "envout"))
        code = main(["check-conditions", "--set", "conditions.delta=0.1"])
        assert code == 0
        assert (tmp_path / "envout" / "check_conditions" / "report.json").exists()

    def test_unknown_config_file(self, tmp_path):
        assert _run(tmp_path, "clt-run", "--config", "/nonexistent.json") == 1

    def test_kde_curve(self, tmp_path):
        code = _run(tmp_path, "kde", "--set", "kde.n=256")
        assert code == 0
        lines = (tmp_path / "kde" / "kde_curve.csv").read_text().splitlines()
        assert lines[0] == "x,estimate,b,oracle_density,expected_estimate,sigma2_x"

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
