"""The run plan: made from the config, checked and written to the manifest before the first draw."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fieldkde.cli as cli
import fieldkde.clt as clt
import fieldkde.field as field
from fieldkde import CoefficientModel, plan_truncation
from fieldkde.cli import load_config, main, plan_run
from fieldkde.field import CoupledWorkspace, coupled_spectra, estimate_field_bytes

from conftest import planned, refusal

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _run(tmp_path, sub, config, *sets):
    argv = [sub, "--config", str(CONFIGS / config), "--out", str(tmp_path)]
    for assignment in sets:  # an option such as "--seed=5" as it is, every other entry as a --set
        argv += [assignment] if assignment.startswith("--") else ["--set", assignment]
    return main(argv)


def _manifest(tmp_path, sub):
    return json.loads((tmp_path / sub.replace("-", "_") / "manifest.json").read_text())


class TestLateCap:
    """A memory cap that only the last grid point exceeds fails before any point is drawn."""

    @pytest.mark.parametrize(
        "sub,config,sets,n",
        [
            ("clt-run", "power_decay_d2.json", ["clt.n_grid=[64,256,2048]", "limits.max_field_bytes=20000000"], 2048),
            ("blocks", "blocks_d1.json", ["blocks.n_grid=[64,128,65536]", "limits.max_field_bytes=1000000"], 65536),
            ("moment-check", "blocks_d1.json",
             ["moment_check.n_grid=[64,65536]", "moment_check.rectangles=[4,16]", "limits.max_field_bytes=2000000"],
             65536),
            ("fixed-m-gap", "geometric_truncation_gap.json",
             ["gap.n_grid=[128,65536]", "limits.max_field_bytes=2000000"], 65536),
            ("kde", "power_decay_d2.json", ["kde.n=256", "limits.max_field_bytes=1000000"], 256),
            ("gen-field", "power_decay_d2.json", ["gen_field.n=64", "limits.max_field_bytes=100000"], 64),
        ],
    )
    def test_exit_1_naming_the_key_and_n_with_the_plan_in_the_manifest(self, tmp_path, capsys, no_draw, sub,
                                                                       config, sets, n):
        assert _run(tmp_path, sub, config, *sets) == 1
        message = refusal(capsys, tmp_path, sub)
        assert message.startswith("config key limits.max_field_bytes: ") and message.endswith(f" at n = {n}")
        manifest = _manifest(tmp_path, sub)
        cap = manifest["config"]["limits"]["max_field_bytes"]
        plan = manifest["plan"]
        assert plan["subcommand"] == sub and plan["points"][-1]["n"] == n
        assert [p["bytes"] > cap for p in plan["points"]] == [False] * (len(plan["points"]) - 1) + [True]
        assert [p.name for p in (tmp_path / sub.replace("-", "_")).iterdir()] == ["manifest.json"]

    def test_the_plan_is_in_the_manifest_before_the_handler_runs(self, tmp_path, monkeypatch):
        seen = []
        kde = cli.EXPERIMENTS["kde"]

        def reading(cfg, config, section, run, out_dir):
            seen.append(_manifest(tmp_path, "kde"))
            return kde.run(cfg, config, section, run, out_dir)

        monkeypatch.setitem(cli.EXPERIMENTS, "kde", replace(kde, run=reading))
        assert _run(tmp_path, "kde", "power_decay_d2.json", "kde.n=64") == 0
        (early,) = seen
        assert early["status"] == "running" and early["plan"] == _manifest(tmp_path, "kde")["plan"]
        (point,) = early["plan"]["points"]
        # kde reports X alone, so it generates with m = M: one spectrum and one field buffer
        assert point["n"] == 64 and point["m"] == point["truncation"]["M"] and point["rows"] == 5

    def test_the_manifest_is_at_planning_with_its_config_while_the_plan_is_made(self, tmp_path, monkeypatch):
        seen, plan_run = [], cli.plan_run

        def reading(*args):
            seen.append(_manifest(tmp_path, "kde"))
            return plan_run(*args)

        monkeypatch.setattr(cli, "plan_run", reading)
        assert _run(tmp_path, "kde", "power_decay_d2.json", "kde.n=64") == 0
        (early,) = seen
        assert early["status"] == "planning" and early["plan"] is None
        assert early["config"] == _manifest(tmp_path, "kde")["config"] and early["config"]["kde"]["n"] == 64
        assert _manifest(tmp_path, "kde")["status"] == "complete"


class TestFieldCsv:
    def test_a_side_beyond_the_csv_limit_exits_1_naming_write_csv_before_any_draw(self, tmp_path, capsys, no_draw):
        assert _run(tmp_path, "gen-field", "power_decay_d2.json", "gen_field.write_csv=true", "gen_field.n=1024") == 1
        message = "config key gen_field.write_csv: CSV export limited to side <= 64, at n = 1024"
        assert refusal(capsys, tmp_path, "gen-field") == message


class TestResultCap:
    """The replicate results and keys of the four replicate experiments count against the memory cap, before any
    draw."""

    def test_exit_1_naming_clt_replicates_with_the_plan_in_the_manifest(self, tmp_path, capsys, no_draw):
        assert _run(tmp_path, "clt-run", "iid_baseline.json", "clt.n_grid=[8]", "clt.x_points=[0.0,0.5]",
                    "clt.replicates=10000000") == 1
        assert refusal(capsys, tmp_path, "clt-run").startswith("config key clt.replicates: the replicate results hold ")
        manifest = _manifest(tmp_path, "clt-run")
        cap = manifest["config"]["limits"]["max_field_bytes"]
        (point,) = manifest["plan"]["points"]
        assert point["rows"] == 20_000_002 and point["bytes"] <= cap < manifest["plan"]["result_bytes"]

    def test_blocks_sample_exits_1_naming_blocks_replicates(self, tmp_path, capsys, no_draw):
        # R (1 + q) doubles of totals and big-block sums at n = 256 and 1024 (q = 9 and 32), 34.4 MB, and beside
        # them Lindeberg's copies of the R q sums at n = 1024, 2 + 3/8 of them for the three eps: 95.2 MB, and the
        # keys, 16 bytes a replicate and 120 a replicate of the chunk that hashes: 97.3 MB
        assert _run(tmp_path, "blocks", "blocks_d1.json", "blocks.n_grid=[256,1024]", "blocks.replicates=100000",
                    "limits.max_field_bytes=8000000") == 1
        message = refusal(capsys, tmp_path, "blocks")
        assert message.startswith("config key blocks.replicates: the replicate results hold 97291520 bytes ")
        manifest = _manifest(tmp_path, "blocks")
        assert [p["q"] for p in manifest["plan"]["points"]] == [9, 32]
        assert all(p["bytes"] <= 8_000_000 for p in manifest["plan"]["points"])
        assert manifest["plan"]["result_bytes"] == 100_000 * (8 * (1 + 9 + 1 + 32) + 32 * (16 + 3) + 16) + 4096 * 120

    @pytest.mark.parametrize("sub,config,section", [("moment-check", "blocks_d1.json", "moment_check"),
                                                    ("fixed-m-gap", "geometric_truncation_gap.json", "gap")])
    def test_rectangle_and_gap_results_exit_1_naming_their_replicates(self, tmp_path, capsys, no_draw, sub, config,
                                                                      section):
        # every point's batch fits the cap at 10^8 replicates, but not their results and keys
        assert _run(tmp_path, sub, config, f"{section}.replicates=100000000") == 1
        message = refusal(capsys, tmp_path, sub)
        assert message.startswith(f"config key {section}.replicates: the replicate results hold ")
        manifest = _manifest(tmp_path, sub)
        cap = manifest["config"]["limits"]["max_field_bytes"]
        assert all(p["bytes"] <= cap for p in manifest["plan"]["points"])
        # the keys alone hold 16 bytes a replicate
        assert manifest["plan"]["result_bytes"] > 16 * 100_000_000


class TestZeroDensity:
    """An x where the field's density is 0 has no limit law to test: every experiment rejects it in its plan."""

    @pytest.mark.parametrize(
        "sub,config,section,sets",
        [
            ("clt-run", "power_decay_d2.json", "clt", ["clt.x_points=[0.0,60.0]", "clt.n_grid=[16]",
                                                       "clt.replicates=120"]),
            ("blocks", "blocks_d1.json", "blocks", ["blocks.x_points=[60.0]", "blocks.n_grid=[256,512,1024]",
                                                    "blocks.replicates=20"]),
            ("moment-check", "blocks_d1.json", "moment_check",
             ["moment_check.x_points=[60.0,0.0]", "moment_check.n_grid=[256]", "moment_check.rectangles=[4]"]),
            # a fixed-m gap whose limit (p_m(x) + p(x)) int K^2 is 0 passed at any gap near 0
            ("fixed-m-gap", "geometric_truncation_gap.json", "gap", ["gap.x_points=[60.0]",
                                                                     "gap.n_grid=[256,512,1024]",
                                                                     "gap.replicates=20"]),
        ],
    )
    def test_exit_1_naming_the_x_points_before_any_draw(self, tmp_path, capsys, no_draw, sub, config, section,
                                                        sets):
        assert _run(tmp_path, sub, config, *sets) == 1
        n = json.loads(sets[1].split("=")[1])[0]  # the first grid point
        assert refusal(capsys, tmp_path, sub) == (f"config key {section}.x_points: the field's density is 0 at "
                                                  f"x = 60.0, so T_n has no limit variance there, at n = {n}")

    @pytest.mark.parametrize("sub,section", [("blocks", "blocks"), ("moment-check", "moment_check"),
                                             ("fixed-m-gap", "gap")])
    def test_only_the_first_x_is_tested_outside_clt_run(self, sub, section):
        cfg = load_config(None, [f"{section}.x_points=[0.0,60.0]", f"{section}.n_grid=[256]",
                                 "moment_check.rectangles=[4]"])
        (point,) = plan_run(cfg, cli._experiment(cfg), sub).points
        assert len(point.sigma2_target) == len(point.sigma2_truncated) == 1 and point.sigma2_target[0] > 0
        assert [len(c) for c in point.centering] == [1, 1]


class TestWuOrders:
    def test_innovations_without_the_moment_exit_1_naming_wu_p_before_any_draw(self, tmp_path, capsys, no_draw):
        assert _run(tmp_path, "moment-check", "blocks_d1.json", 'innovations={"name":"student_t","nu":4}') == 1
        message = "config key moment_check.wu_p: innovations need E|eps|^4 < inf (max finite order 4.0)"
        assert refusal(capsys, tmp_path, "moment-check") == message


class TestOneSchedule:
    """Each grid point takes the section's m, or m_n = round(n^delta) where it is null, resolving delta only then."""

    # beta = 0.7 < d: the decay/bandwidth window is empty, so a null schedule.delta has no midpoint to default to
    HEAVY = 'coefficient={"family":"power_decay","d":1,"q":1.2}'

    @staticmethod
    def _main(tmp_path, sub, *sets):
        return main([sub, "--out", str(tmp_path), *(arg for s in sets for arg in ("--set", s))])

    @pytest.mark.parametrize("sub,section", [("fixed-m-gap", "gap"), ("blocks", "blocks")])
    def test_a_fixed_m_needs_no_delta(self, tmp_path, sub, section):
        assert self._main(tmp_path, sub, self.HEAVY, f"{section}.n_grid=[64,128]", f"{section}.replicates=20") in (0, 2)
        report = json.loads((tmp_path / sub.replace("-", "_") / "report.json").read_text())
        assert "delta" not in report["config"] and report["config"]["decay_window"]["passed"] is False

    @pytest.mark.parametrize("sub,sets", [("clt-run", []), ("moment-check", []), ("fixed-m-gap", ["gap.m=null"])])
    def test_the_schedule_without_a_delta_exits_1_naming_schedule_delta_before_any_draw(self, tmp_path, capsys,
                                                                                        no_draw, sub, sets):
        assert self._main(tmp_path, sub, self.HEAVY, *sets) == 1
        message = refusal(capsys, tmp_path, sub)
        assert message.startswith("config key schedule.delta: must be a number where m_n follows the schedule")

    @pytest.mark.parametrize("sub,section", [("fixed-m-gap", "gap"), ("blocks", "blocks")])
    def test_a_fixed_m_reports_no_delta_whatever_the_schedule_says(self, tmp_path, sub, section):
        sets = ["schedule.delta=0.3", f"{section}.m=3", f"{section}.n_grid=[64,128]", f"{section}.replicates=20"]
        assert self._main(tmp_path, sub, *sets) in (0, 2)
        report = json.loads((tmp_path / sub.replace("-", "_") / "report.json").read_text())
        assert "delta" not in report["config"]

    def test_blocks_on_the_schedule_report_the_delta_they_ran(self, tmp_path):
        sets = ["blocks.m=null", "schedule.delta=0.3", "blocks.n_grid=[256,1024]"]
        assert self._main(tmp_path, "blocks", *sets) in (0, 2)
        report = json.loads((tmp_path / "blocks" / "report.json").read_text())
        assert report["config"]["delta"] == 0.3
        # round(256^0.3) = 5 and round(1024^0.3) = 8
        assert [row["m"] for row in report["decomposition"]["rows"]] == [5, 8]


class TestGridLength:
    """An experiment's grid longer than its seed streams allow is rejected as the config loads."""

    @pytest.mark.parametrize("sub,section", [("clt-run", "clt"), ("blocks", "blocks"), ("moment-check", "moment_check"),
                                             ("fixed-m-gap", "gap")])
    def test_exit_1_naming_the_n_grid_before_any_draw(self, tmp_path, capsys, no_draw, sub, section):
        grid = list(range(16, 16 + clt.MAX_GRID_POINTS + 1))
        assert _run(tmp_path, sub, "blocks_d1.json", f"{section}.n_grid={json.dumps(grid)}") == 1
        assert refusal(capsys, tmp_path, sub) == (f"config key {section}.n_grid: must be a nonempty list of integers "
                                                  f"of at most {clt.MAX_GRID_POINTS} entries, got {len(grid)}")
        manifest = _manifest(tmp_path, sub)
        assert manifest["config"] is None and manifest["plan"] is None


class TestPointXs:
    """Each grid point carries the x's its experiment tests, and the manifest's plan lists them."""

    @pytest.mark.parametrize(
        "sub,config,sets,count",
        [
            # null x_points: 0, 0.5 and 1 standard deviation of the field
            ("clt-run", "power_decay_d2.json", ["clt.x_points=null", "clt.n_grid=[16,24]", "clt.replicates=5"], 3),
            ("blocks", "blocks_d1.json", ["blocks.x_points=[0.0,0.5]", "blocks.n_grid=[64,128]",
                                          "blocks.replicates=5"], 1),
            ("moment-check", "blocks_d1.json", ["moment_check.n_grid=[64]", "moment_check.replicates=5",
                                                "moment_check.rectangles=[4,16]"], 1),
            ("fixed-m-gap", "geometric_truncation_gap.json", ["gap.n_grid=[128,256]", "gap.replicates=5"], 1),
            ("gen-field", "power_decay_d2.json", ["gen_field.n=16"], 0),
            ("kde", "power_decay_d2.json", ["kde.n=32"], 0),
        ],
    )
    def test_the_manifest_plan_lists_each_points_xs(self, tmp_path, sub, config, sets, count):
        assert _run(tmp_path, sub, config, *sets) in (0, 2)
        points = _manifest(tmp_path, sub)["plan"]["points"]
        assert points and all(len(p["xs"]) == count and p["xs"] == points[0]["xs"] for p in points)
        assert all(len(p["sigma2_target"]) == count for p in points if count)

    def test_clt_run_reports_its_subcommand_and_verdict(self, tmp_path):
        code = _run(tmp_path, "clt-run", "power_decay_d2.json", "clt.n_grid=[16]", "clt.replicates=120")
        report = json.loads((tmp_path / "clt_run" / "report.json").read_text())
        assert code in (0, 2) and report["subcommand"] == "clt-run" and report["passed"] is (code == 0)
        assert report["passed"] is (report["overall"] != "fail") is _manifest(tmp_path, "clt-run")["verdicts"]["passed"]


class TestOracleFigures:
    """Each experiment reads its centering and limit variances from its plan, one density oracle per distinct m."""

    @pytest.fixture
    def oracles(self, monkeypatch):
        built = []
        oracle = clt.density_oracle

        def counting(model, innovations, m):
            built.append(m)
            return oracle(model, innovations, m)

        monkeypatch.setattr(clt, "density_oracle", counting)
        return built

    @pytest.mark.parametrize(
        "sub,config,sets,built",
        [
            ("blocks", "blocks_d1.json", ["blocks.n_grid=[256,512,1024]", "blocks.replicates=20"], [4]),
            ("fixed-m-gap", "geometric_truncation_gap.json", ["gap.n_grid=[256,512,1024]", "gap.replicates=20"],
             [2]),
            # m_n = round(n^(5/12)) is 4 at n = 32 and 5 at n = 48
            ("clt-run", "power_decay_d2.json", ["clt.n_grid=[32,36,48]", "clt.replicates=5"], [4, 5]),
        ],
    )
    def test_one_oracle_per_distinct_m(self, tmp_path, oracles, sub, config, sets, built):
        assert _run(tmp_path, sub, config, *sets) in (0, 2)
        assert oracles == built

    def test_the_plan_holds_what_the_checks_read(self):
        cfg = load_config(str(CONFIGS / "geometric_truncation_gap.json"), ["gap.n_grid=[256,1024]"])
        config = cli._experiment(cfg)
        oracle = clt.density_oracle(config.model, config.innovations, 2)
        kern, x = config.kernel, 0.0  # the first of the x's at 0, 0.5 and 1 standard deviations
        for point in plan_run(cfg, config, "fixed-m-gap").points:
            assert point.sigma2_target == (clt.asymptotic_variance(float(oracle.p(x)), kern),)
            assert point.sigma2_truncated == (clt.asymptotic_variance(float(oracle.p_m(x)), kern),)
            assert point.centering == ((clt.expected_kde(oracle, kern, point.b, x),),
                                       (clt.expected_kde(oracle, kern, point.b, x, truncated=True),))
            assert point.oracle == oracle.summary()


class TestHandlersPlanNothing:
    """Once ``plan_run`` returns, no handler plans a grid point, picks a path or sizes a generation again; once
    ``_experiment`` returns, no planner or handler builds a model, kernel or bandwidth again."""

    PLANNERS = ("grid_points", "plan_point", "convolution_method", "estimate_field_bytes", "truncation_at",
                "plan_truncation")
    BUILDERS = ("model_from_config", "kernel_by_name", "BandwidthSchedule")

    @pytest.mark.parametrize(
        "sub,config,sets",
        [
            ("check-conditions", "power_decay_d2.json", []),
            ("gen-field", "power_decay_d2.json", ["gen_field.n=16"]),
            ("kde", "power_decay_d2.json", ["kde.n=32"]),
            ("clt-run", "power_decay_d2.json", ["clt.n_grid=[16,24]", "clt.replicates=5"]),
            ("blocks", "blocks_d1.json", ["blocks.n_grid=[64,128]", "blocks.replicates=5"]),
            ("moment-check", "blocks_d1.json", ["moment_check.n_grid=[64]", "moment_check.replicates=5",
                                                "moment_check.rectangles=[4,16]"]),
            ("fixed-m-gap", "geometric_truncation_gap.json", ["gap.n_grid=[128,256]", "gap.replicates=5"]),
        ],
    )
    def test_same_exit_code_and_bytes_with_every_planner_and_builder_refused_once_made(
        self, tmp_path, monkeypatch, sub, config, sets
    ):
        def outputs(out):
            code = _run(out, sub, config, *sets)
            files = sorted((out / sub.replace("-", "_")).iterdir())
            return code, {f.name: f.read_bytes() for f in files if f.name != "manifest.json"}

        def refused(name):
            def refuse(*args, **kw):
                raise AssertionError(f"{name} was called after the run plan was made")
            return refuse

        experiment, plan_run = cli._experiment, cli.plan_run

        def build_once(cfg):
            config = experiment(cfg)
            for name in self.BUILDERS:
                monkeypatch.setattr(cli, name, refused(name))
            monkeypatch.setattr(cli.InnovationModel, "from_config", refused("InnovationModel.from_config"))
            return config

        def plan_once(*args, **kw):
            run = plan_run(*args, **kw)
            # every module that holds a planner by name, so an import of it is refused too
            for module in (cli, clt, field):
                for name in self.PLANNERS:
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refused(name))
            return run

        free = outputs(tmp_path / "free")
        monkeypatch.setattr(cli, "_experiment", build_once)
        monkeypatch.setattr(cli, "plan_run", plan_once)
        assert "report.json" in free[1] and outputs(tmp_path / "refused") == free


class TestClt:
    def test_a_point_whose_replicates_all_agree_is_reported_and_fails(self, tmp_path):
        # no site reaches x = 8, so T is the same in every replicate and has no skewness or kurtosis
        code = _run(tmp_path, "clt-run", "power_decay_d2.json", "clt.n_grid=[16]", "clt.x_points=[8.0]",
                    "clt.replicates=120")
        assert code == 2
        (point,) = json.loads((tmp_path / "clt_run" / "report.json").read_text())["points"]
        assert point["skewness"] is None and point["excess_kurtosis"] is None
        assert point["verdicts"]["variance_ok"] is False and point["verdicts"]["overall"] == "fail"
        summary = (tmp_path / "clt_run" / "clt_summary.csv").read_text().splitlines()
        header, row = summary[0].split(","), summary[1].split(",")
        assert row[header.index("skewness")] == row[header.index("excess_kurtosis")] == ""


def _owned_bytes(*objects) -> int:
    """The bytes of the distinct arrays that the objects' attributes hold or view."""
    owners = {}
    for obj in objects:
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                while value.base is not None:
                    value = value.base
                owners[id(value)] = value.nbytes
    return sum(owners.values())


class TestByteFigure:
    @pytest.mark.parametrize("method", ["fourier", "direct"])
    @pytest.mark.parametrize("d,n", [(1, 40), (2, 12)])
    @pytest.mark.parametrize("m,M", [(2, 5), (5, 5)], ids=["m<M", "m=M"])
    @pytest.mark.parametrize("size", [1, 3])
    def test_equals_what_the_generation_allocates_plus_the_headroom(self, method, d, n, m, M, size):
        model = CoefficientModel(d=d, family="power_decay", q=4.0)
        plan = plan_truncation(model, m=m, policy="fixed", M=M)
        spectra = coupled_spectra(model, planned(model, n, m, plan, method))
        work = CoupledWorkspace(spectra, size)
        # one field buffer per replicate, of the inverse transform's side on the FFT path
        side = spectra.shape[0] if method == "fourier" else n
        headroom = 8 * size * side**d
        figure = estimate_field_bytes(d, n, M, m, method, size)
        assert figure == _owned_bytes(spectra, work) + headroom
        # with m = M one coefficient spectrum and one field buffer
        assert (spectra.truncated is spectra.full) == (m == M and method == "fourier")
        assert len(work.fields) == (1 if m == M else 2)

    @pytest.mark.parametrize("n,M", [(64, 15), (256, 24), (16, 3)])
    def test_the_plan_holds_the_figure_of_its_batch(self, n, M):
        model = CoefficientModel(d=2, family="power_decay", q=4.0)
        plan = plan_truncation(model, m=3, policy="fixed", M=M)
        point = clt.plan_point(model, n, 3, 0.5, plan, 0, 200, 1 << 30)
        spectra = coupled_spectra(model, point)
        assert point.P == (spectra.shape[0] if point.method == "fourier" else None)
        side = point.P or n
        assert point.bytes == _owned_bytes(spectra, CoupledWorkspace(spectra, point.batch)) + 8 * point.batch * side**2
        assert point.draws == 200 * (n + M - 1) ** 2


class TestDrawCount:
    """The plan counts the innovation values a benchmark workload draws, as a trace of the draws counts them."""

    KDE_X_GRID = json.dumps([round(-2.5 + 0.05 * i, 10) for i in range(101)])

    @pytest.mark.parametrize(
        "config,steps,draws",
        [
            ("power_decay_d2.json",
             [("check-conditions", []), ("kde", ["kde.n=256", "kde.m=10", f"kde.x_grid={KDE_X_GRID}"])], 77_841),
            ("power_decay_d2.json",
             [("clt-run", ["clt.n_grid=[64,256]", "clt.replicates=200", "clt.x_points=[0.0]"])], 16_785_000),
            ("blocks_d1.json", [("blocks", []), ("moment-check", [])], 8_491_500),
        ],
        ids=["kde_curve", "clt_d2", "blocks_d1"],
    )
    def test_equals_the_traced_draws(self, config, steps, draws):
        cfgs = [(load_config(str(CONFIGS / config), sets, seed=1), sub) for sub, sets in steps]
        plans = [plan_run(cfg, cli._experiment(cfg), sub) for cfg, sub in cfgs]
        assert sum(plan.draws for plan in plans) == draws

    @pytest.mark.parametrize(
        "config,sub,sets,figures",
        [
            ("power_decay_d2.json", "clt-run", ["clt.n_grid=[64,256]", "clt.replicates=200", "clt.x_points=[0.0]"],
             [(64, "fourier", 80, 21, 6_556_832), (256, "fourier", 288, 1, 5_286_024)]),
            ("blocks_d1.json", "blocks", [],
             [(256, "direct", None, 506, 4_157_328), (1024, "direct", None, 127, 4_164_616),
              (4096, "direct", None, 31, 4_064_008)]),
            ("blocks_d1.json", "moment-check", [], [(1024, "direct", None, 126, 5_172_144)]),
        ],
        ids=["clt_d2", "blocks_d1-blocks", "blocks_d1-moment-check"],
    )
    def test_the_workloads_points_keep_their_path_side_batch_and_bytes(self, config, sub, sets, figures):
        cfg = load_config(str(CONFIGS / config), sets, seed=1)
        points = plan_run(cfg, cli._experiment(cfg), sub).points
        assert [(p.n, p.method, p.P, p.batch, p.bytes) for p in points] == figures

    @pytest.mark.parametrize(
        "sub,config,sets",
        [
            ("gen-field", "power_decay_d2.json", ["gen_field.n=16"]),
            ("kde", "power_decay_d2.json", ["kde.n=32"]),
            ("clt-run", "power_decay_d2.json", ["clt.n_grid=[16,24]", "clt.replicates=7"]),
            ("blocks", "blocks_d1.json", ["blocks.n_grid=[64,128]", "blocks.replicates=7"]),
            ("moment-check", "blocks_d1.json",
             ["moment_check.n_grid=[128]", "moment_check.replicates=7", "moment_check.rectangles=[4,16]"]),
            ("fixed-m-gap", "geometric_truncation_gap.json", ["gap.n_grid=[128,256]", "gap.replicates=7"]),
        ],
    )
    def test_equals_the_values_a_run_draws(self, tmp_path, monkeypatch, sub, config, sets):
        drawn = []

        def counting(draw):
            def wrapped(model, rng, shape, out=None):
                drawn.append(math.prod(shape))
                return draw(model, rng, shape, out)
            return wrapped

        for module, name in ((field, "draw_lattice"), (cli, "draw_lattice")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        assert _run(tmp_path, sub, config, *sets) in (0, 2)
        assert sum(drawn) == _manifest(tmp_path, sub)["plan"]["draws"] > 0


class TestModelKeys:
    """The coefficient and innovation models check their parameters as the config loads, each error naming its key."""

    @pytest.mark.parametrize("sub", ["check-conditions", "clt-run"])
    @pytest.mark.parametrize(
        "assignment,key,message",
        [
            ('coefficient={"family":"power_decay","d":2,"q":0.5}', "coefficient.q", "power-decay requires q > d/2"),
            ('coefficient={"family":"power_decay","d":1,"q":4.0,"scale":0}', "coefficient.scale",
             "power-decay scale must be nonzero"),
            ('coefficient={"family":"geometric","d":1,"ratio":1.5}', "coefficient.ratio",
             "geometric ratio must lie in (0, 1), got 1.5"),
            ('coefficient={"family":"finite_support","d":2,"table":[1.0,0.5]}', "coefficient.table",
             "finite_support needs a 2-dimensional table"),
            ('coefficient={"family":"finite_support","d":2,"table":[[1.0],[0.5,0.2]]}', "coefficient.table",
             "finite_support needs a 2-dimensional table"),
            ('coefficient={"family":"finite_support","d":1}', "coefficient.table", "finite_support needs a 1-dim"),
            ('coefficient={"family":"geometric","d":1,"ratio":0.5,"beta":-1.0}', "coefficient.beta",
             "declared decay exponent must be positive, got -1.0"),
            ('coefficient={"family":"geometric","d":1,"ratio":0.5,"q":4.0}', "coefficient.q",
             "belongs to the power_decay family, not to geometric"),
            ('coefficient={"family":"power_decay","d":1,"q":4.0,"ratio":0.5}', "coefficient.ratio",
             "belongs to the geometric family, not to power_decay"),
            ('coefficient={"family":"finite_support","d":1,"table":[1.0],"scale":2.0}', "coefficient.scale",
             "belongs to the power_decay family, not to finite_support"),
            ('coefficient={"family":"power_decay","d":1,"q":4.0,"table":[1.0]}', "coefficient.table",
             "belongs to the finite_support family, not to power_decay"),
            ('innovations={"name":"student_t","nu":2}', "innovations.nu", "student_t needs nu > 2 (finite variance)"),
            ('innovations={"name":"student_t"}', "innovations.nu", "student_t needs nu > 2 (finite variance)"),
            ('innovations={"name":"gaussian","nu":5}', "innovations.nu", "belongs to student_t, not to gaussian"),
            # a square sum of the weights that is 0, underflows or overflows
            ('coefficient={"family":"finite_support","d":2,"table":[[0.0,0.0]]}', "coefficient.table",
             "finite_support needs a nonzero weight, got a table of zeros"),
            ('coefficient={"family":"finite_support","d":2,"table":[[1e-200]]}', "coefficient.table",
             "the table's square sum underflows to 0"),
            ('coefficient={"family":"finite_support","d":2,"table":[[1e200]]}', "coefficient.table",
             "the table's square sum lies beyond the float range"),
            ('coefficient={"family":"power_decay","d":2,"q":3.0,"scale":1e-200}', "coefficient.scale",
             "the power-decay weights' square sum scale^2 * sum (1+|k|_inf)^(-2q) underflows to 0"),
            ('coefficient={"family":"power_decay","d":2,"q":3.0,"scale":1e200}', "coefficient.scale",
             "the power-decay weights' square sum scale^2 * sum (1+|k|_inf)^(-2q) lies beyond the float range"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # nor a numpy warning on the way
    def test_exit_1_naming_the_key_before_any_plan(self, tmp_path, capsys, no_draw, sub, assignment, key, message):
        assert _run(tmp_path, sub, "power_decay_d2.json", assignment) == 1
        assert refusal(capsys, tmp_path, sub).startswith(f"config key {key}: {message}")
        manifest = _manifest(tmp_path, sub)
        assert manifest["config"] is None and manifest["plan"] is None


EPANECHNIKOV = 'kernel="epanechnikov"'


class TestKeyedRefusals:
    """Every refusal that one config key decides, from the load-time schema to the plan, exits 1 in one form,
    ``config key <key>: …``."""

    @pytest.mark.parametrize(
        "sub,sets,key,message",
        [
            ("check-conditions", ["schedule.delta=1.5"], "schedule.delta",
             "the conditions' schedule needs delta in (0, 1), got 1.5"),
            # beta = b / sqrt(v) near 1e109, whose cube is beyond the float range
            ("clt-run", [EPANECHNIKOV, "bandwidth.c2=1e110", "clt.n_grid=[16]", "clt.replicates=2"], "bandwidth.c2",
             "the bandwidth b ="),
            ("fixed-m-gap", [EPANECHNIKOV, "bandwidth.c2=1e110", "gap.n_grid=[16]", "gap.replicates=2"],
             "bandwidth.c2", "the bandwidth b ="),
            ("kde", [EPANECHNIKOV, "bandwidth.c2=1e110", "kde.n=16", "kde.m=2"], "bandwidth.c2", "the bandwidth b ="),
            ("kde", ["bandwidth.c2=1e200", 'kernel="triangular"', "kde.n=16", "kde.m=2"], "bandwidth.c2",
             "the bandwidth b ="),
            # the Gaussian density of a far x underflows to 0 through an overflowing x^2
            ("clt-run", ["clt.x_points=[1e200]"], "clt.x_points", "the field's density is 0 at x = 1e+200"),
            # the load-time schema
            ("clt-run", ["clt.replicates=x"], "clt.replicates", 'must be an integer, got "x"'),
            ("clt-run", ["clt.n_grid=[]"], "clt.n_grid", "must be a nonempty list of integers, got []"),
            ("clt-run", ["clt=5"], "clt", "must be an object, got 5"),
            ("clt-run", ["truncation.M=5"], "truncation.M", 'must be null unless truncation.policy is "fixed", got 5'),
            ("blocks", ["blocks.l=3"], "blocks.l", "must be greater than blocks.m = 4, got 3"),
            ("moment-check", ["moment_check.rectangles=[2000]"], "moment_check.rectangles",
             "must fit inside every grid point: [2000] exceed n = 1024"),
            ("check-conditions", ["--seed=99999999999999999999999"], "seed",
             "must be below 18446744073709551616, got 99999999999999999999999"),
            # no window midpoint to take delta from: beta = 3 > d, but gamma = 1.9 lies above the threshold 1.2
            ("clt-run", ["schedule.delta=null", "bandwidth.gamma=1.9"], "schedule.delta",
             "must be a number where m_n follows the schedule and the decay/bandwidth window is empty, got null"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # nor a numpy warning on the way
    def test_exit_1_naming_the_key(self, tmp_path, capsys, sub, sets, key, message):
        assert _run(tmp_path, sub, "power_decay_d2.json", *sets) == 1
        assert refusal(capsys, tmp_path, sub).startswith(f"config key {key}: {message}")

    @pytest.mark.filterwarnings("error")  # the Gaussian density of a far x is 0, its overflowing x^2 unwarned
    def test_a_far_x_is_no_refusal(self, tmp_path):
        assert _run(tmp_path, "kde", "power_decay_d2.json", "kde.x_grid=[1e308]", "kde.n=64") == 0
        header, row = (tmp_path / "kde" / "kde_curve.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["oracle_density"] == "0.0"


class TestUniformRefusal:
    """Uniform innovations with one nonzero weight in [0, m)^d are refused before any draw, naming the key of m,
    where the run reads the density of X_m."""

    GEOMETRIC = ['coefficient={"family":"geometric","d":1,"ratio":0.5}', 'innovations={"name":"uniform"}']

    @pytest.mark.parametrize(
        "sub,sets,key",
        [
            ("fixed-m-gap", ["gap.m=1", "gap.n_grid=[64,128]"], "gap.m"),
            # round(n^0.01) = 1 at every n of the grid
            ("clt-run", ["schedule.delta=0.01", "clt.n_grid=[64]"], "schedule.delta"),
        ],
    )
    def test_exit_1_naming_the_key_that_set_m(self, tmp_path, capsys, no_draw, sub, sets, key):
        assert _run(tmp_path, sub, "blocks_d1.json", *self.GEOMETRIC, *sets) == 1
        message = refusal(capsys, tmp_path, sub)
        assert message.startswith(f"config key {key}: uniform innovations need two nonzero weights in [0, m)^d")

    def test_kde_reads_the_density_of_x_alone(self, tmp_path):
        # the curve holds p(x) and E f_n(x) of X, so one weight in [0, kde.m)^d refuses nothing
        assert _run(tmp_path, "kde", "blocks_d1.json", *self.GEOMETRIC, "kde.m=1", "kde.n=64") == 0
        rows = (tmp_path / "kde" / "kde_curve.csv").read_text().splitlines()
        assert rows[0].split(",")[3] == "oracle_density" and len(rows) > 1
        assert all(float(row.split(",")[3]) > 0.0 for row in rows[1:])
