"""Print `sha256  name` for the files the CLI writes from the bundled inputs.

Runs, in a temporary directory:
  - `v2ibeam simulate <scenario> --trials 2 --horizon 40 --format csv
    --format svg` for every bundled scenario, with `--workers 1` and 2;
  - `v2ibeam design-codebook` at two sizes, with `--workers 1` and 2;
  - `v2ibeam track-demo --scenario <name>` for the two demo scenarios, once
    with `--csv` and once printing its table (saved as `<name>.stdout`);
  - `v2ibeam report --out --svg` on each track-demo CSV;
and prints one line per file written, sorted by name. Run it on two
checkouts and diff the outputs to check that a change keeps every byte:

    python3 tools/digests.py > after.txt
    python3 tools/digests.py --src ../base/src > before.txt
    diff before.txt after.txt

After printing, it exits 1 and names the files on stderr when a file under
workers1/ and the same file under workers2/ differ: the outputs must not
depend on the worker count.

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
DEMOS = ("track_demo", "track_demo_hybrid")


def run_cli(src: str, args: list[str], stdout=subprocess.DEVNULL) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", "from v2ibeam.cli import main; main()", *args],
                   env=env, check=True, stdout=stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=SRC,
                        help="source directory that holds the v2ibeam package "
                             "(default: this checkout's src/)")
    args = parser.parse_args()
    scenario_dir = os.path.join(args.src, "v2ibeam", "scenarios")
    scenarios = sorted(name[:-5] for name in os.listdir(scenario_dir) if name.endswith(".json"))
    digests = {}
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
        out = os.path.join(tmp, "demo")
        os.makedirs(out)
        for name in DEMOS:
            path = os.path.join(out, name)
            run_cli(args.src, ["track-demo", "--scenario", name, "--csv", f"{path}.csv"])
            with open(f"{path}.stdout", "wb") as fh:
                run_cli(args.src, ["track-demo", "--scenario", name], stdout=fh)
            run_cli(args.src, ["report", f"{path}.csv", "--out", f"{path}_summary.csv",
                               "--svg", f"{path}_summary.svg"])
        for root, _, files in sorted(os.walk(tmp)):
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, tmp)] = hashlib.sha256(fh.read()).hexdigest()
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    first, second = (f"workers{w}{os.sep}" for w in WORKERS)
    names = {name.split(os.sep, 1)[1] for name in digests if name.startswith((first, second))}
    differ = sorted(name for name in names if digests.get(first + name) != digests.get(second + name))
    if differ:
        sys.stderr.write(f"{first} and {second} differ: {', '.join(differ)}\n")
        sys.exit(1)


if __name__ == "__main__":
    main()
