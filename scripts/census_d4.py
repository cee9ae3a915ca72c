#!/usr/bin/env python3
"""Extended d = 4 transverse census with count-stabilization evidence.

The complete list of transverse weight systems on five weights has degrees up
to 3486, so the census count must stop changing once the degree bound passes
that; this script runs the census once, at the largest bound, reports the
count and the largest degree found below each bound, then writes the TSV.

Usage:
    python scripts/census_d4.py --bounds 500,1000,2000,3486,3600 \
        --jobs 2 --out census_d4.tsv
"""

import argparse
import os
import time

from cywps.quasismooth import census_tsv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bounds", default="500,1000,2000,3486,3600")
    parser.add_argument("--filter", choices=("transverse", "ip", "all"), default="transverse")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--out", default="census_d4.tsv")
    args = parser.parse_args()

    bounds = sorted(int(b) for b in args.bounds.split(","))
    t0 = time.time()
    lines = census_tsv(4, bounds[-1], args.filter, jobs=args.jobs)
    print(f"census to degree {bounds[-1]} in {time.time() - t0:.0f}s", flush=True)
    degrees = [int(line.split("\t", 1)[0]) for line in lines[1:]]
    last = None
    for bound in bounds:
        below = [n for n in degrees if n <= bound]
        count = len(below)
        note = "" if last is None else f" (delta {count - last:+d})"
        print(f"max_degree={bound}: {count} records, largest degree {max(below, default=None)}{note}")
        last = count

    with open(args.out, "w", encoding="ascii") as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
