"""Regenerate the CSV data files from the checked-in configs.

Runs the CLI once per config in scripts/configs/ and drops the output
under results/ (created if missing).  Output is deterministic, so a
rerun after any library change is a cheap regression check: the files
should be byte-identical unless numerics actually moved.

    python scripts/make_data.py [--out-dir results]
"""

import argparse
import pathlib
import subprocess
import sys

RUNS = [
    ("observables", "chain_observables.cfg", "chain_observables.csv"),
    ("observables", "dnls_observables.cfg", "dnls_observables.csv"),
    ("free-energy", "cylinder_free_energy.cfg", "cylinder_free_energy.csv"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    cfg_dir = pathlib.Path(__file__).parent / "configs"
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for subcommand, cfg, out in RUNS:
        cmd = [sys.executable, "-m", "thermo_transfer.cli", subcommand,
               "--config", str(cfg_dir / cfg), "--out", str(out_dir / out)]
        print("+", " ".join(cmd))
        rc = subprocess.call(cmd)
        if rc != 0:
            sys.exit(rc)


if __name__ == "__main__":
    main()
