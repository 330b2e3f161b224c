"""Print `sha256  name` for the files the CLI writes from the bundled inputs.

Runs, in a temporary directory:
  - `v2ibeam simulate <scenario> --trials 2 --horizon 40 --format csv
    --format svg` for every bundled scenario, with `--workers 1` and 2;
  - `v2ibeam design-codebook` at two sizes, with `--workers 1` and 2;
and prints one line per file written, sorted by name. Run it on two
checkouts and diff the outputs to check that a change keeps every byte:

    python3 tools/digests.py > after.txt
    python3 tools/digests.py --src ../base/src > before.txt
    diff before.txt after.txt

It needs only the package's own dependencies and takes about a minute on a
2-core x86-64 VM, most of it fitting the gain_m64* scenarios' codebooks.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
WORKERS = (1, 2)
BOOKS = {
    "m16_q8": ["--antennas", "16", "--rf-chains", "2", "--codewords", "8", "--seed", "0"],
    "m32_q8_16": ["--antennas", "32", "--rf-chains", "4", "--codewords", "8",
                  "--codewords", "16", "--seed", "3"],
}


def run_cli(src: str, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", "from v2ibeam.cli import main; main()", *args],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=SRC,
                        help="source directory that holds the v2ibeam package "
                             "(default: this checkout's src/)")
    args = parser.parse_args()
    scenario_dir = os.path.join(args.src, "v2ibeam", "scenarios")
    scenarios = sorted(name[:-5] for name in os.listdir(scenario_dir) if name.endswith(".json"))
    with tempfile.TemporaryDirectory() as tmp:
        for workers in WORKERS:
            out = os.path.join(tmp, f"workers{workers}")
            for name in scenarios:
                run_cli(args.src, ["simulate", name, "--trials", "2", "--horizon", "40",
                                   "--format", "csv", "--format", "svg",
                                   "--workers", str(workers), "--out-dir", out])
            for name, book_args in BOOKS.items():
                run_cli(args.src, ["design-codebook", *book_args, "--workers", str(workers),
                                   "--out", os.path.join(out, f"codebook_{name}.json")])
        for root, _, files in sorted(os.walk(tmp)):
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {os.path.relpath(path, tmp)}")


if __name__ == "__main__":
    main()
