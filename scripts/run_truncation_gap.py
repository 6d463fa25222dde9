#!/usr/bin/env python3
"""Truncation gap demo: fixed m=2 versus the growing schedule m_n = round(n^0.25).

With m fixed the site-level second moment of (zeta - Z) stabilises at the
strictly positive value (p_2(x) + p(x)) * int K^2 = 0.42139 at x=0 for the
geometric model; re-run with --set gap.m=null to watch it collapse.
Outputs go to OUT/truncation_gap/fixed_m_gap/.
"""

import pathlib
import sys

from fieldkde.cli import run_script

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(
        run_script(
            "truncation_gap",
            HERE.parent / "configs" / "geometric_truncation_gap.json",
            ["fixed-m-gap"],
            sys.argv[1:],
        )
    )
