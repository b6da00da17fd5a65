"""Anisotropy experiments on the harmonic cylinder.

Two runs, both on the three-ring cylinder:

1. swap: F for (ax, ay) = (0.5, 0.2) against the transposed couplings
   (0.2, 0.5) over beta.  At finite circumference the two are close on
   the absolute scale of F but not identical; the CSV records both
   curves and their gap.
2. ax0: with the rings decoupled along the axis the free energy has a
   closed determinant form.  The per-mode Gauss weights absorb the
   whole ring potential, so each ring mode's m0-point chain matches it
   to round-off at every m0.  Printed per m0.

    python scripts/cylinder_anisotropy.py [--out-dir results]
"""

import argparse
import csv
import pathlib

import numpy as np

from thermo_transfer import (CylinderParams, cylinder_free_energy,
                             reference_cylinder_ax0)


def swap_run(out_dir, m0):
    betas = np.linspace(0.5, 5.0, 46)
    pa = CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
    pb = CylinderParams(eta=1.0, ax=0.2, ay=0.5, ly=3)
    fa = np.array([cylinder_free_energy(pa, b, m0) for b in betas])
    fb = np.array([cylinder_free_energy(pb, b, m0) for b in betas])

    path = out_dir / "cylinder_swap.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "free_energy_ax0.5_ay0.2",
                    "free_energy_ax0.2_ay0.5", "abs_gap"])
        for b, x, y in zip(betas, fa, fb):
            w.writerow(["%.17g" % v for v in (b, x, y, abs(x - y))])
    print(f"wrote {path}; worst abs gap {np.max(np.abs(fa - fb)):.3e} "
          f"on an F range of {fa.max() - fa.min():.2f}")


def ax0_run(m0_list):
    p = CylinderParams(eta=1.0, ax=0.0, ay=0.2, ly=3)
    beta = 1.0
    ref = reference_cylinder_ax0(p, beta)
    print(f"ax=0 determinant reference at beta={beta:g}: F = {ref:.15g}")
    for m0 in m0_list:
        f = cylinder_free_energy(p, beta, m0)
        print(f"  m0={m0:2d} ({m0 ** 3:5d} points)  rel error "
              f"{abs(f - ref) / abs(ref):.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--m0", type=int, default=8)
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    swap_run(out_dir, args.m0)
    ax0_run([4, 6, 8, 10, 12])


if __name__ == "__main__":
    main()
