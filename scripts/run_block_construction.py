#!/usr/bin/env python3
"""Big-block construction and moment-inequality tracking on the geometric model.

Checks that dropping the between-block gaps costs a vanishing share of the
normalised sum, that block sums are uncorrelated, that the truncated block
second moments behave, and that the rectangle moment-inequality constants
stay bounded, next to the exact Wu constants of the linear process.  Outputs go to OUT/block_construction/<subcommand>/.
"""

import pathlib
import sys

from fieldkde.cli import run_script

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.exit(
        run_script(
            "block_construction",
            HERE.parent / "configs" / "blocks_d1.json",
            ["blocks", "moment-check"],
            sys.argv[1:],
        )
    )
