"""Free energy of the anharmonic particle chain as the coupling grows.

Sweeps beta for gamma in {0, 0.5, 1, 2} at fixed on-site potential
(eta=1, mu3=0.2, lambda=0.2) and writes one CSV per coupling.  The
uncoupled column is also checked against the single-site quadrature
route, which factorizes exactly, so the printed deviation is a direct
accuracy figure for the operator pipeline.

    python scripts/chain_coupling_scan.py [--out-dir results] [--m 30]
"""

import argparse
import pathlib

import numpy as np

from thermo_transfer import (ParticleChainParams, SweepSpec,
                             free_energy_sweep,
                             reference_particle_chain_gamma0)
from thermo_transfer.cli import _write_csv

GAMMAS = (0.0, 0.5, 1.0, 2.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--m", type=int, default=30)
    ap.add_argument("--beta-count", type=int, default=48)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    betas = np.linspace(0.5, 10.0, args.beta_count)

    for gamma in GAMMAS:
        p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=gamma)
        spec = SweepSpec(params=p, beta_grid=betas, m=args.m,
                         observables=True)
        res = free_energy_sweep(spec)
        path = out_dir / f"chain_gamma{gamma:g}.csv"
        _write_csv(path, *res.columns())
        print(f"wrote {path} ({len(betas)} rows)")

        if gamma == 0.0:
            ref = np.array([reference_particle_chain_gamma0(p, b)
                            for b in betas])
            worst = np.max(np.abs(res.free_energy - ref) / np.abs(ref))
            print(f"  gamma=0 vs factorized reference: "
                  f"worst rel {worst:.3e} at m={args.m}")


if __name__ == "__main__":
    main()
