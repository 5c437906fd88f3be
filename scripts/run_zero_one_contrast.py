#!/usr/bin/env python3
"""Zero-one contrast: tail hit frequency of the shrinking primed targets for
one divergent-series family, F = (log t)^{-1/2}, against one convergent
family, F = (log t)^{-2}, on a shared ensemble.

    python scripts/run_zero_one_contrast.py --ensemble 500 --k-max 100
"""

import argparse
import math
import sys

from dirichlet_lab import (
    DimensionParams,
    LogDrift,
    MaxWithHalf,
    RateFunction,
    WeightPair,
    empirical_zero_one,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ensemble", type=int, default=500)
    ap.add_argument("--k-min", type=int, default=10)
    ap.add_argument("--k-max", type=int, default=100)
    ap.add_argument("--a", type=float, default=0.9)
    ap.add_argument("--seed", type=int, default=20260808)
    args = ap.parse_args()

    dims = DimensionParams(1, 1)
    w = WeightPair.unweighted(1, 1)
    families = {
        "divergent  F=(log t)^-1/2": MaxWithHalf(LogDrift(1.0, 0.5, t0=math.exp(4.0))),
        "convergent F=(log t)^-2  ": MaxWithHalf(LogDrift(1.0, 2.0, t0=math.exp(2.0))),
    }
    freqs = {}
    for name, psi in families.items():
        rate = RateFunction.from_psi(psi, dims)
        rep = empirical_zero_one(
            rate, w, args.ensemble, (args.k_min, args.k_max), args.a,
            seed=args.seed,
        )
        freqs[name] = rep.tail_frequency
        print(f"{name}: tail hit frequency {rep.tail_frequency:.4f}  "
              f"histogram {rep.histogram()}")
    names = list(freqs)
    ratio = freqs[names[0]] / max(freqs[names[1]], 1.0 / args.ensemble)
    print(f"contrast ratio: {ratio:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
