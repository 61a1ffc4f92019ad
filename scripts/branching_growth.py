#!/usr/bin/env python3
"""Specification-complexity experiment: a constant-size formula over the
binary branching logic defines 2^n concrete scenarios; measure the
enumeration growth and wall time, next to the count over the merged
scenario DAG, which needs no enumeration."""

import argparse
import time

from scenkit.logic import binary_scenarios, count_scenarios, enumerate_scenarios


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()
    print(f"{'n':>4} {'scenarios':>12} {'seconds':>9} {'counted':>12} {'seconds':>9}")
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        leaves = enumerate_scenarios(binary_scenarios(n))
        t1 = time.perf_counter()
        counted = count_scenarios(binary_scenarios(n))
        t2 = time.perf_counter()
        print(f"{n:>4} {len(leaves):>12} {t1 - t0:>9.3f} {counted:>12} {t2 - t1:>9.3f}")
        assert len(leaves) == counted == 2**n


if __name__ == "__main__":
    main()
