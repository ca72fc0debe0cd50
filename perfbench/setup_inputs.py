"""Set-up step timed as ``setup_s``: import the CLI, write the inputs.

    python3 perfbench/setup_inputs.py --workload fock_mesh --seed 1 --out DIR

Runs in a fresh interpreter each time so that the import is cold.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fockbench.cli  # noqa: E402,F401  (the import is part of what is timed)

from workloads import WORKLOADS, write_inputs  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
