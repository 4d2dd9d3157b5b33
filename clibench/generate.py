"""Write every workload's problem files for one seed, without running them.

    python3 clibench/generate.py --seed N

Files go to ``clibench/out/problems-s<N>/<workload>/``; the same seed always
gives the same files.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = os.path.join(HERE, "out", f"problems-s{args.seed}")
    shutil.rmtree(root, ignore_errors=True)
    for name, build in workloads.BUILDERS.items():
        workdir = os.path.join(root, name)
        os.makedirs(workdir)
        ops = build(args.seed, workdir)
        print(f"{name}: {len(ops)} commands, problem files in {os.path.relpath(workdir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
