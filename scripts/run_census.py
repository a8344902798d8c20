#!/usr/bin/env python3
"""Produce the census table for a range of vertex counts.

Prints one tab-separated row per n: `n total strongly_extensive cantor
elapsed_ms`.  Counts are over labeled digraphs, computed from weighted
degree-sorted representatives; results are deterministic and
independent of the job count.  `--max-n 5` adds the n = 5 row, a few
seconds on one core.
"""
import argparse

from zfcantor.census import census, format_row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=1)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--jobs", type=int, default=4)
    args = ap.parse_args()
    print("n\ttotal\te_n\tc_n\telapsed_ms")
    for n in range(args.min_n, args.max_n + 1):
        row = census(n, jobs=args.jobs, max_n=args.max_n)
        print(format_row(row), flush=True)


if __name__ == "__main__":
    main()
