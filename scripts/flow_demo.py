#!/usr/bin/env python3
"""Run the liberation flow on a law and report its bookkeeping.

Evolves the particle system, prints checkpoints of (t, chi, phi_star),
and closes with the three identities the flow is supposed to satisfy:
chi never decreases, dchi/dt tracks phi_star/2, and the accumulated
half-integral of phi_star approaches -chi(0) as the flow forgets the
initial coupling.

Run:

    python3 scripts/flow_demo.py --particles 256 --tmax 8 --out flow.csv
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from liberlab.grids import DEFAULT_GRID
from liberlab.laws import load_law
from liberlab.liberation import flow_diagnostics, flow_evolve, init_flow

UNIFORM_LAW = {
    "alpha": 0.5,
    "beta": 0.5,
    "density": {"kind": "uniform", "mass": 1.0, "support": [0.0, 1.0]},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--law", default=None, help="law file (default: uniform)")
    parser.add_argument("--particles", type=int, default=256)
    parser.add_argument("--tmax", type=float, default=8.0)
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID)
    parser.add_argument("--out", default=None, help="CSV of the full trajectory")
    args = parser.parse_args(argv)

    law = load_law(args.law) if args.law else load_law(UNIFORM_LAW)
    state = init_flow(law, args.particles, args.grid)
    state = flow_evolve(state, args.tmax)
    diag = flow_diagnostics(state)

    checkpoints = np.unique(np.searchsorted(diag.t, np.geomspace(1e-2, args.tmax, 12)))
    checkpoints = checkpoints[checkpoints < diag.t.size]
    print(f"{'t':>10} {'chi':>14} {'phi_star':>12} {'ratio_err':>10}")
    for i in [0, *checkpoints.tolist()]:
        print(
            f"{diag.t[i]:10.4f} {diag.chi[i]:14.8f} {diag.phi_star[i]:12.3e} "
            f"{diag.ratio_error[i]:10.2e}"
        )

    dchi = np.diff(diag.chi)
    mid = (diag.t >= 0.25) & (diag.phi_star >= 1e-4 * diag.phi_star[0])
    print()
    print(f"steps accepted: {diag.steps}, rejected: {diag.rejected_steps}, "
          f"pair-sum evaluations: {diag.evals}")
    print(f"energy gap (half integral - rise of chi): {diag.energy_gap:+.3e}")
    print(f"min chi increment: {dchi.min():+.3e} (monotone: {bool(np.all(dchi >= -1e-12))})")
    print(f"max mid-flow |dchi/dt - phi*/2| / (phi*/2): {diag.ratio_error[mid].max():.3e}")
    print(f"half integral of phi*: {diag.half_integral[-1]:.6f}  "
          f"-chi(0): {-diag.chi[0]:.6f}")

    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "chi", "phi_star", "half_integral"])
            for row in zip(diag.t, diag.chi, diag.phi_star, diag.half_integral):
                writer.writerow([repr(float(v)) for v in row])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
