#!/usr/bin/env python3
"""Classical i.i.d. regime: T_n at n=4096 with b = n^(-1/5), R=1000.

The empirical variance should land near phi(0) * int K^2 = 0.23937 (the
finite-bandwidth value sits a little below it) and the replicate
distribution should clear the KS test against N(0, sigma_0^2).  Outputs go
to OUT/iid_baseline/clt_run/.
"""

import pathlib
import sys

from fieldkde.cli import run_script

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(
        run_script(
            "iid_baseline", HERE.parent / "configs" / "iid_baseline.json", ["clt-run"], sys.argv[1:]
        )
    )
