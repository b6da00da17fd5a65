"""Spectral convergence of the free energy in the quadrature order.

For each model, runs `thermo-transfer convergence --reference largest-m`
over a ladder of quadrature sizes with the reference size m_ref last,
which writes |F(m) - F(m_ref)| / |F(m_ref)| to one `m,rel_error` CSV per
case, and prints the fitted decimal-digits-per-point rate.  Errors
below the floor (1e-13) are kept in the CSV but excluded from the fit,
since they sit on roundoff rather than on the quadrature tail.

    python scripts/convergence_study.py [--out-dir results]
"""

import argparse
import pathlib

import numpy as np

from thermo_transfer.cli import RunConfig, run_convergence

# name, model and parameters (RunConfig fields), beta, sizes, m_ref
CASES = [
    ("chain_beta5", dict(model="chain", eta=1.0, mu3=0.2, lam=0.2, gamma=1.0),
     5.0, list(range(4, 31, 2)), 40),
    ("dnls_beta15", dict(model="dnls", g=1.0, mu=1.0), 15.0,
     [4, 6, 8, 10, 12, 14], 20),
    ("dnls_beta1", dict(model="dnls", g=1.0, mu=1.0), 1.0,
     [2, 3, 4, 5, 6, 7], 20),
    ("cylinder_beta1", dict(model="cylinder", eta=1.0, ax=0.5, ay=0.2, ly=3),
     1.0, [3, 4, 5, 6, 7, 8], 12),
]

FLOOR = 1e-13


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, settings, beta, ms, m_ref in CASES:
        rows = run_convergence(RunConfig(
            "convergence", beta_start=beta, m_list=(*ms, m_ref),
            reference="largest-m", out=str(out_dir / f"convergence_{name}.csv"),
            **settings))
        errs = np.array([e for _, e in rows])
        keep = errs > FLOOR
        slope = np.polyfit(np.asarray(ms)[keep], np.log10(errs[keep]), 1)[0]
        print(f"{name:16s} slope {slope:+.2f} digits/point "
              f"(floor hit at {np.count_nonzero(~keep)} of {len(ms)} points)")


if __name__ == "__main__":
    main()
