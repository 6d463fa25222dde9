"""The thread-invariance check of ``scripts/gates.py`` on its fastest runs: the four scripts at 1 and 2 threads."""

import importlib.util
from pathlib import Path

RUNNER = Path(__file__).resolve().parent.parent / "scripts" / "gates.py"


def test_the_scripts_reports_do_not_depend_on_the_thread_count(tmp_path):
    spec = importlib.util.spec_from_file_location("gates", RUNNER)
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    # an AssertionError names each run that fails and each file that differs
    gates.at_both_thread_counts(gates.SCRIPT_RUNS, tmp_path)
    assert sorted(p.name for p in (tmp_path / "t2").iterdir()) == sorted(name.removeprefix("run_") for name in gates.SCRIPTS)
