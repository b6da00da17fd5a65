"""Anisotropy experiments on the harmonic cylinder.

Two runs, both on the three-ring cylinder:

1. swap: F for (ax, ay) = (0.5, 0.2) against the transposed couplings
   (0.2, 0.5) over beta.  At finite circumference the two are close on
   the absolute scale of F but not identical; the CSV records both
   curves, their gap and the gap of the closed form
   (`reference_cylinder`), which the computed gap matches to round-off.
2. ax0: with the rings decoupled along the axis the free energy has a
   closed determinant form.  The per-mode Gauss weights absorb the
   whole ring potential, so each ring mode's m-point chain matches it
   to round-off at every m.  Printed per m.

m is the number of points per ring mode (the paper's per-coordinate m0).

    python scripts/cylinder_anisotropy.py [--out-dir results] [--m 8]
"""

import argparse
import pathlib

import numpy as np

from thermo_transfer import (CylinderParams, SweepSpec, cylinder_free_energy,
                             free_energy_sweep, reference_cylinder)
from thermo_transfer.cli import _write_csv


def swap_run(out_dir, m):
    betas = np.linspace(0.5, 5.0, 46)
    pa = CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
    pb = CylinderParams(eta=1.0, ax=0.2, ay=0.5, ly=3)
    fa, fb = (free_energy_sweep(SweepSpec(params=p, beta_grid=betas, m=m))
              .free_energy for p in (pa, pb))
    exact = np.array([abs(reference_cylinder(pa, b) - reference_cylinder(pb, b))
                      for b in betas])

    path = out_dir / "cylinder_swap.csv"
    _write_csv(path, ["beta", "free_energy_ax0.5_ay0.2",
                      "free_energy_ax0.2_ay0.5", "abs_gap", "closed_form_gap"],
               [betas, fa, fb, np.abs(fa - fb), exact])
    print(f"wrote {path}; worst abs gap {np.max(np.abs(fa - fb)):.3e} "
          f"on an F range of {fa.max() - fa.min():.2f}; it differs from the "
          f"closed form's gap by at most "
          f"{np.max(np.abs(np.abs(fa - fb) - exact)):.1e}")


def ax0_run(m_list):
    p = CylinderParams(eta=1.0, ax=0.0, ay=0.2, ly=3)
    beta = 1.0
    ref = reference_cylinder(p, beta)
    print(f"ax=0 determinant reference at beta={beta:g}: F = {ref:.15g}")
    for m in m_list:
        f = cylinder_free_energy(p, beta, m)
        print(f"  m={m:2d} points per ring mode  rel error "
              f"{abs(f - ref) / abs(ref):.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--m", type=int, default=8)
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    swap_run(out_dir, args.m)
    ax0_run([4, 6, 8, 10, 12])


if __name__ == "__main__":
    main()
