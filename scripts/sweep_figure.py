"""Trace reconstruction error across a nuclear-radius sweep on one benchmark.

Generates a 3-class benchmark, sweeps the radius over a geometric grid
between fractions of the unconstrained nuclear norm, and writes a CSV of
(lambda, reconstruction error, numerical rank) ready for plotting. Also
prints the top-2 explained variance of the embedding at the best radius.

Usage: python3 scripts/sweep_figure.py [--seed 1] [--points 20] [--out sweep.csv]
"""

import argparse

import numpy as np

from lowrank_ar.dataio import write_csv
from lowrank_ar.study import radius_sweep
from lowrank_ar.synthetic import gen_benchmark, standard_class_specs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--lo", type=float, default=0.30,
                        help="lower bracket as a fraction of the unconstrained norm")
    parser.add_argument("--hi", type=float, default=0.78,
                        help="upper bracket as a fraction of the unconstrained norm")
    parser.add_argument("--classes", type=int, nargs="+", default=[1, 2, 4],
                        help="indices into the standard procedure pool")
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    pool = standard_class_specs(d=15, n_per_class=60, t_len=250, noise_var=0.02)
    coll, truth = gen_benchmark(
        [pool[i] for i in args.classes], np.random.default_rng(args.seed)
    )
    sweep = radius_sweep(coll, truth, args.lo, args.hi, args.points)
    rows = list(zip(sweep.lambdas.tolist(), sweep.errors.tolist(), sweep.ranks))
    for lam, err, rank in rows:
        print(f"lambda {lam:8.3f}  err {err:.4f}  rank {rank}")

    write_csv(args.out, ["lambda", "reconstruction_error", "approx_rank"], rows)

    best = sweep.best
    print(
        f"\nbest lambda {rows[best][0]:.3f} (point {best}) "
        f"err {rows[best][1]:.4f}; top-2 explained variance {sweep.explained.sum():.3f}; "
        f"wrote {args.out}"
    )


if __name__ == "__main__":
    main()
