#!/usr/bin/env python3
"""Dependent d=2 regime: power-decay weights (1+|i|_inf)^-4, gamma=1, delta=5/12.

Runs the schedule checker first (the pair (beta, gamma) = (3, 1) sits inside
the feasible window with delta interval (1/3, 1/2)), then the replicate
experiment on n in {32, 64}.  Exit code 2 flags a verdict failure.  Outputs
go to OUT/power_decay_d2/<subcommand>/.
"""

import pathlib
import sys

from fieldkde.cli import run_script

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(
        run_script(
            "power_decay_d2",
            HERE.parent / "configs" / "power_decay_d2.json",
            ["check-conditions", "clt-run"],
            sys.argv[1:],
        )
    )
