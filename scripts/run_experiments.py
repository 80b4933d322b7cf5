#!/usr/bin/env python3
"""Regenerate every paper dataset in data/ through the resetlb CLI.

Each row of EXPERIMENTS is (subcommand, config name in configs/, extra
arguments); the config names its output file.  The README maps each config
to the result it reproduces.  Each run prints its exit code and wall time.
Usage: python scripts/run_experiments.py
"""

import pathlib
import sys
import time

from resetlb.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
EVOLVE = ["--t-max", "2.0", "--points", "201"]

EXPERIMENTS = [
    ("steady", "toy_model_region", []),
    ("steady", "toy_model_cut", []),
    ("steady", "gas_region", []),
    ("steady", "reset_vs_temperature", []),
    ("steady", "xyz_reset_vs_s", []),
    ("steady", "mixed_reset_thresholds", []),
    ("steady", "thermal_two_regions", []),
    ("evolve", "entangling_profile", EVOLVE),
    ("evolve", "time_evolution", EVOLVE),
    ("spingas", "spingas_sweep", []),
    ("measures", "measures_gas", []),
    ("measures", "measures_thermal", []),
]

if __name__ == "__main__":
    pathlib.Path("data").mkdir(exist_ok=True)
    for command, name, extra in EXPERIMENTS:
        start = time.perf_counter()
        rc = main([command, "--config", str(CONFIGS / f"{name}.json"), "--no-timestamp", *extra])
        print(f"{name}: exit {rc} in {time.perf_counter() - start:.1f} s")
        if rc:
            sys.exit(rc)
