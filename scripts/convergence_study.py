"""Spectral convergence of the free energy in the quadrature order.

For each model, computes |F(m) - F(m_ref)| / |F(m_ref)| over a ladder
of quadrature sizes and prints the fitted decimal-digits-per-point
rate.  Writes one `m,rel_error` CSV per case.  Errors below the
floor (1e-13) are kept in the CSV but excluded from the fit, since
they sit on roundoff rather than on the quadrature tail.

    python scripts/convergence_study.py [--out-dir results]
"""

import argparse
import csv
import pathlib

import numpy as np

from thermo_transfer import (CylinderParams, DnlsParams, ParticleChainParams,
                             cylinder_free_energy, dnls_free_energy,
                             particle_chain_free_energy)

CASES = [
    ("chain_beta5", particle_chain_free_energy,
     ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0), 5.0,
     list(range(4, 31, 2)), 40),
    ("dnls_beta15", dnls_free_energy, DnlsParams(g=1.0, mu_c=1.0), 15.0,
     [4, 6, 8, 10, 12, 14], 20),
    ("dnls_beta1", dnls_free_energy, DnlsParams(g=1.0, mu_c=1.0), 1.0,
     [2, 3, 4, 5, 6, 7], 20),
    ("cylinder_beta1", cylinder_free_energy,
     CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3), 1.0,
     [3, 4, 5, 6, 7, 8], 12),
]

FLOOR = 1e-13


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, fe, params, beta, ms, m_ref in CASES:
        ref = fe(params, beta, m_ref)
        errs = np.array([abs(fe(params, beta, m) - ref) / abs(ref)
                         for m in ms])

        path = out_dir / f"convergence_{name}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["m", "rel_error"])
            for m, e in zip(ms, errs):
                w.writerow([m, "%.17g" % e])

        keep = errs > FLOOR
        slope = np.polyfit(np.asarray(ms)[keep], np.log10(errs[keep]), 1)[0]
        print(f"{name:16s} slope {slope:+.2f} digits/point "
              f"(floor hit at {np.count_nonzero(~keep)} of {len(ms)} points)")


if __name__ == "__main__":
    main()
