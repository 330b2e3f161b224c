"""Print `sha256  name` for the files the CLI writes from the bundled inputs.

Runs, in a temporary directory:
  - `v2ibeam simulate <scenario> --trials 2 --horizon 40 --format csv
    --format svg` for every bundled scenario, with `--workers 1` and 2;
  - `v2ibeam simulate gain_m64_hybrid --trials 2 --horizon 40 --codebook
    bench/data/gain_m64_q64_n4.json`, with `--workers 1` and 2, into
    workers<N>/loaded_book/, so that the codebook reader is covered too;
  - `v2ibeam design-codebook` at two sizes, with `--workers 1` and 2;
  - with `--workers 1` and 2, into workers<N>/overrides/, one `simulate` run
    whose options replace its scenario's seed, power sweep, tracker and
    combiner, and one `design-codebook` run at a non-default road geometry;
  - with `--workers 1` and 2, into workers<N>/report/, `v2ibeam report --out
    --svg` on the gain_m64_dft2 results CSV, so that the reader's beam
    columns are covered too;
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
depend on the worker count. It does the same when an SVG it wrote is not
well-formed XML (xml.etree cannot parse it).

It needs only the package's own dependencies and takes about 40 s on a
2-core x86-64 VM, most of it fitting the gain_m64* scenarios' codebooks.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from xml.etree import ElementTree

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
LOADED_BOOK = os.path.join(ROOT, "bench", "data", "gain_m64_q64_n4.json")
WORKERS = (1, 2)
BOOKS = {
    "m16_q8": ["--antennas", "16", "--rf-chains", "2", "--codewords", "8", "--seed", "0"],
    "m32_q8_16": ["--antennas", "32", "--rf-chains", "4", "--codewords", "8",
                  "--codewords", "16", "--seed", "3"],
}
DEMOS = ("track_demo", "track_demo_hybrid")
REPORTED = "gain_m64_dft2"  # a beam scheme, so its results CSV fills the beam columns
OVERRIDES = [
    ["simulate", "nmse_m96_baseline", "--trials", "2", "--horizon", "40", "--seed", "11",
     "--tx-power", "5", "--tx-power", "15", "--tracker", "proposed", "--combiner", "hybrid",
     "--out-dir", "{out}"],
    ["design-codebook", "--antennas", "16", "--rf-chains", "2", "--codewords", "8",
     "--lane-offset", "5", "--rsu-height", "10", "--range", "-60", "60", "--seed", "2",
     "--out", "{out}/codebook_m16_road.json"],
]


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
    digests, malformed = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in WORKERS:
            out = os.path.join(tmp, f"workers{workers}")
            for name in scenarios:
                run_cli(args.src, ["simulate", name, "--trials", "2", "--horizon", "40",
                                   "--format", "csv", "--format", "svg",
                                   "--workers", str(workers), "--out-dir", out])
            run_cli(args.src, ["simulate", "gain_m64_hybrid", "--trials", "2", "--horizon", "40",
                               "--codebook", os.path.abspath(LOADED_BOOK),
                               "--workers", str(workers),
                               "--out-dir", os.path.join(out, "loaded_book")])
            for name, book_args in BOOKS.items():
                run_cli(args.src, ["design-codebook", *book_args, "--workers", str(workers),
                                   "--out", os.path.join(out, f"codebook_{name}.json")])
            for command in OVERRIDES:
                run_cli(args.src, [arg.format(out=os.path.join(out, "overrides"))
                                   for arg in command] + ["--workers", str(workers)])
            report = os.path.join(out, "report", REPORTED)
            os.makedirs(os.path.dirname(report))
            run_cli(args.src, ["report", os.path.join(out, f"{REPORTED}_results.csv"),
                               "--out", f"{report}_summary.csv", "--svg", f"{report}_summary.svg"])
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
                if name.endswith(".svg"):
                    try:
                        ElementTree.parse(path)
                    except ElementTree.ParseError as exc:
                        malformed.append(f"{os.path.relpath(path, tmp)} ({exc})")
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    first, second = (f"workers{w}{os.sep}" for w in WORKERS)
    names = {name.split(os.sep, 1)[1] for name in digests if name.startswith((first, second))}
    differ = sorted(name for name in names if digests.get(first + name) != digests.get(second + name))
    if differ:
        sys.stderr.write(f"{first} and {second} differ: {', '.join(differ)}\n")
    if malformed:
        sys.stderr.write(f"not well-formed SVG: {', '.join(malformed)}\n")
    if differ or malformed:
        sys.exit(1)


if __name__ == "__main__":
    main()
