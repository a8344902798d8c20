#!/usr/bin/env python3
"""Randomized sweep checking the two readings of each predicate.

For seeded random digraphs and argument tuples, the direct
graph-theoretic predicate must agree with evaluating the instantiated
formula expansion.  Exits nonzero and reports the case on the first
mismatch.
"""
import argparse
import random
import sys

from zfcantor.analysis import DigraphAnalysis
from zfcantor.cantor import PREDICATE_ARITIES, emit_expansions
from zfcantor.census import digraph_from_counter
from zfcantor.schemes import instantiate
from zfcantor.semantics import evaluate
from zfcantor.symbols import new_var, set_var

ARG_SLOTS = (set_var(18), set_var(19), set_var(20))
PARAMS = (new_var("x"), new_var("y"), new_var("z"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="vertex count of the sampled digraphs")
    ap.add_argument("--samples", type=int, default=1000, help="tuples per predicate")
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--predicates", default="REL,FUN,SUR", help="comma-separated names")
    args = ap.parse_args()

    names = [name.strip().upper() for name in args.predicates.split(",") if name.strip()]
    instantiated = {}
    for named in emit_expansions():
        arity = PREDICATE_ARITIES[named.name]
        instantiated[named.name] = instantiate(
            named.formula, dict(zip(PARAMS[:arity], ARG_SLOTS[:arity]))
        )

    rng = random.Random(args.seed)
    space = 2 ** (args.n * args.n)
    checked = 0
    for name in names:
        arity = PREDICATE_ARITIES[name]
        for _ in range(args.samples):
            digraph = digraph_from_counter(args.n, rng.randrange(space))
            arguments = tuple(rng.randrange(1, args.n + 1) for _ in range(arity))
            direct = DigraphAnalysis(digraph).predicate(name, arguments)
            env = dict(zip(ARG_SLOTS[:arity], arguments))
            via_formula = evaluate(digraph, instantiated[name], env)
            if direct != via_formula:
                print(f"MISMATCH {name}{arguments} on {sorted(digraph.arrows)}:"
                      f" direct={direct} formula={via_formula}")
                return 1
            checked += 1
    print(f"ok: {checked} sampled cases agree (seed {args.seed}, n {args.n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
