"""Trace reconstruction error across a nuclear-radius sweep on one benchmark.

Generates a 3-class benchmark, sweeps the radius over a geometric grid
between fractions of the unconstrained nuclear norm, and writes a CSV of
(lambda, reconstruction error, numerical rank) ready for plotting. Also
prints the top-2 explained variance of the embedding at the best radius.

Usage: python3 scripts/sweep_figure.py [--seed 1] [--points 20] [--out sweep.csv]
"""

import argparse
import csv

import numpy as np

from lowrank_ar.embedding import approx_rank, factorize, pca_project
from lowrank_ar.evalkit import reconstruction_error
from lowrank_ar.field import EmpiricalField, FieldSpec
from lowrank_ar.model import LinkFunction
from lowrank_ar.nuclear import nuclear_norm
from lowrank_ar.solver import constrained_least_squares, least_squares_unconstrained
from lowrank_ar.study import znorm
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

    d = 15
    pool = standard_class_specs(d=d, n_per_class=60, t_len=250, noise_var=0.02)
    coll, truth = gen_benchmark(
        [pool[i] for i in args.classes], np.random.default_rng(args.seed)
    )
    ev = EmpiricalField(znorm(coll), FieldSpec(link=LinkFunction("identity"), order=d))
    slices = ev.slices
    truth_lag = truth.data[1:]

    upper = nuclear_norm(least_squares_unconstrained(slices, 1, d).data)
    lams = np.geomspace(args.lo * upper, args.hi * upper, args.points)

    rows = []
    for lam in lams:
        params, _ = constrained_least_squares(slices, 1, d, float(lam))
        err = reconstruction_error(truth_lag, params.data[1:])
        rank = approx_rank(np.linalg.svd(params.data, compute_uv=False))
        rows.append((float(lam), err, rank))
        print(f"lambda {lam:8.3f}  err {err:.4f}  rank {rank}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "reconstruction_error", "approx_rank"])
        writer.writerows(rows)

    best_i = int(np.argmin([r[1] for r in rows]))
    params, _ = constrained_least_squares(slices, 1, d, rows[best_i][0])
    emb = factorize(params, ids=list(coll.ids))
    _, ratios = pca_project(emb.coordinates, 2)
    print(
        f"\nbest lambda {rows[best_i][0]:.3f} (point {best_i}) "
        f"err {rows[best_i][1]:.4f}; top-2 explained variance {ratios.sum():.3f}; "
        f"wrote {args.out}"
    )


if __name__ == "__main__":
    main()
