"""Regenerate the CSV data files from the checked-in configs.

Runs the CLI once per config in scripts/configs/ and drops the output
under results/ (created if missing).  Output is deterministic, so a
rerun after any library change is a cheap regression check: the files
should be byte-identical unless numerics actually moved.  --check does
that comparison: it regenerates the files into a temporary directory,
compares each byte for byte with DIR's (default tests/data), and exits
1 naming every file that differs or is missing there.

    python scripts/make_data.py [--out-dir results]
    python scripts/make_data.py --check [DIR]
"""

import argparse
import filecmp
import pathlib
import subprocess
import sys
import tempfile

RUNS = [
    ("observables", "chain_observables.cfg", "chain_observables.csv"),
    ("observables", "dnls_observables.cfg", "dnls_observables.csv"),
    ("free-energy", "cylinder_free_energy.cfg", "cylinder_free_energy.csv"),
]

SCRIPTS = pathlib.Path(__file__).parent
TEST_DATA = SCRIPTS.parent / "tests" / "data"


def generate(out_dir):
    """Run every config into out_dir; exit with the CLI's code if one fails."""
    for subcommand, cfg, out in RUNS:
        cmd = [sys.executable, "-m", "thermo_transfer.cli", subcommand,
               "--config", str(SCRIPTS / "configs" / cfg),
               "--out", str(out_dir / out)]
        print("+", " ".join(cmd))
        rc = subprocess.call(cmd)
        if rc != 0:
            sys.exit(rc)


def differing(fresh_dir, ref_dir):
    """Names of the RUNS files whose bytes differ between the two
    directories, or that ref_dir lacks."""
    return [out for _, _, out in RUNS
            if not (ref_dir / out).is_file()
            or not filecmp.cmp(fresh_dir / out, ref_dir / out, shallow=False)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--out-dir", default="results")
    where.add_argument("--check", nargs="?", const=str(TEST_DATA),
                       metavar="DIR",
                       help="compare fresh files with DIR's "
                            "(default tests/data), writing nothing there")
    args = ap.parse_args()

    if args.check is None:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        generate(out_dir)
        return
    with tempfile.TemporaryDirectory() as tmp:
        generate(pathlib.Path(tmp))
        bad = differing(pathlib.Path(tmp), pathlib.Path(args.check))
    for out in bad:
        print(f"differs: {pathlib.Path(args.check) / out}")
    if bad:
        sys.exit(1)
    print(f"all {len(RUNS)} files match {args.check}")


if __name__ == "__main__":
    main()
