#!/usr/bin/env python3
"""Full-information baseline on the coin fixture.

Sweeps the batch-PCA sample size on a biased-coin distribution and prints
mean excess per budget plus the fraction of coins identified.  The coin's
bias is the fixed ``--alpha`` at every budget, so this run shows the
exponential identification regime: once m is past the identification
threshold the excess column collapses to zero.  The 1/sqrt(m) rate of the
lower bound needs the bias to shrink with the budget, alpha_m = c/sqrt(m),
one coin per m, as acceptance criterion 09 does.
"""

import argparse

import numpy as np

from subspace_bandits.domain import DomainSpec
from subspace_bandits.evaluation import identified_fraction
from subspace_bandits.harness import ExperimentConfig, emit_csv, run_sweep
from subspace_bandits.learners import full_info_pca
from subspace_bandits.oracles import coin_fixture, default_coin_basis, sample_instances
from subspace_bandits.seeding import make_rng


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--G", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=0.4)
    parser.add_argument("--m", type=int, nargs="+", default=[200, 800, 3200, 12800])
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="pca_rate.csv")
    args = parser.parse_args()

    fixture = coin_fixture(
        args.d, args.k, args.G, args.alpha,
        [1.0] * args.k, default_coin_basis(args.d, args.k, args.G),
    )
    cfg = ExperimentConfig(
        domain=DomainSpec(d=args.d, k=args.k, r=2, G=args.G),
        distribution=fixture,
        algo="pca",
        m_values=tuple(args.m),
        trials=args.trials,
        base_seed=args.seed,
    )
    records = run_sweep(cfg)
    emit_csv(records, args.out)
    for m in cfg.m_values:
        cell = [r for r in records if r.m == m]
        betas = []
        for rec in cell:
            # replay the trial's draws from the seed its record carries
            samples = sample_instances(fixture, m, make_rng(rec.seed))
            betas.append(identified_fraction(full_info_pca(samples, args.k), fixture).beta)
        print(
            f"m={m:>7d}  mean excess {np.mean([r.excess_loss for r in cell]):.3e}  "
            f"mean identified fraction {np.mean(betas):.3f}"
        )
    print(f"wrote {len(records)} records to {args.out}")


if __name__ == "__main__":
    main()
