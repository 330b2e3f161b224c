"""Paired A/B runs of the benchmark on two source trees.

    python3 tools/ab.py --base DIR --change DIR --workload W --pairs N \\
        --seed-from S --seconds T --out FILE

Runs each tree's own `bench/run.py --workload W --seed s --seconds T
--trace 0` at the seeds s = S .. S+N-1. The two runs of one seed form a
pair, and the side that runs first alternates from pair to pair, so a drift
of the machine's speed falls on both sides alike. It reads each run's last
JSON line, its digest line and the set-up samples of its record under
`bench/out/`.

For every end-to-end metric of `BENCHMARK.json` it prints, per side, the
median and the quartiles q1/q3, then the change/base ratio of the medians and
the pairs the change wins (a tie wins for neither). It also prints whether
the output digests of each pair are equal, the failed counts, `nproc` and
the numpy version, and writes the raw runs and that table as JSON to FILE,
under the workload's name: a FILE that exists keeps its other workloads.

Trees whose `BENCHMARK.json` or `bench/` (its .py and .json files,
`bench/out/` aside) differ are refused, since their metrics and workloads
would not compare. Exit codes: 0 when every run gave a result and every
pair's digests are equal, 1 when some pair's digests differ (FILE is still
written), 2 when the trees are refused or a run gave no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="tree of the parent (contains bench/run.py)")
    p.add_argument("--change", required=True, help="tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed-from", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True, help="JSON file for the runs and the table")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def _registry(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _src_digest(tree: str, parts=("src", "bench")) -> str:
    """sha256 over the relative paths and bytes of the .py and .json files
    under the tree's `parts` (bench/out/ aside): which code ran, without
    naming where it sits."""
    h = hashlib.sha256()
    for part in parts:
        top = os.path.join(tree, part)
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "__pycache__"))
            for name in sorted(f for f in files if f.endswith((".py", ".json"))):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, tree).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py invocation; its result, digests, env and set-up samples."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr
                         + f"ab: {workload} seed {seed} gave no result (exit {proc.returncode})\n")
        raise SystemExit(2) from None
    digests = {}
    for line in lines:
        if line.startswith("digest "):
            digests = dict(item.split("=", 1) for item in line.split()[1:])
    record_path = os.path.join(tree, "bench", "out", f"{workload}-{seed}-trace0.json")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {
        "seed": seed,
        "exit": proc.returncode,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digests": digests,
        "setup_samples_s": record.get("setup_samples_s"),
        "env": record.get("env", {}),
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _table(metrics: list[dict], runs: dict[str, list[dict]]) -> list[dict]:
    rows = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        qb, qc = _quartiles(base), _quartiles(change)
        rows.append({
            "metric": name, "unit": spec["unit"], "better": spec["better"],
            "base_q1": qb[0], "base_median": qb[1], "base_q3": qb[2],
            "change_q1": qc[0], "change_median": qc[1], "change_q3": qc[2],
            "ratio": qc[1] / qb[1] if qb[1] else float("nan"),
            "wins": wins, "pairs": len(base),
        })
    return rows


def main(argv=None) -> int:
    args = _parse(argv)
    registry = _registry(args.base)
    if _registry(args.change) != registry:
        sys.stderr.write("ab: the trees' BENCHMARK.json differ; their runs do not compare\n")
        return 2
    if _src_digest(args.base, ("bench",)) != _src_digest(args.change, ("bench",)):
        sys.stderr.write("ab: the trees' bench/ differ; their runs do not compare\n")
        return 2
    trees = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_from + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(_run(trees[side], args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: {order[0]} first, units_per_s "
              f"base {runs['base'][-1]['metrics']['units_per_s']:.4g} "
              f"change {runs['change'][-1]['metrics']['units_per_s']:.4g}", flush=True)

    table = _table(registry["end_to_end"], runs)
    same = [b["digests"] == c["digests"] for b, c in zip(runs["base"], runs["change"])]
    env = runs["base"][0]["env"]
    print(f"\n{args.workload}: {args.pairs} pairs from seed {args.seed_from}, "
          f"--seconds {args.seconds:g}, nproc {env.get('nproc')}, numpy {env.get('numpy')}")
    print(f"{'metric':<12} {'base q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'ratio':>7} {'wins':>6}")
    for row in table:
        base = "/".join(f"{row[f'base_{q}']:.4g}" for q in ("q1", "median", "q3"))
        change = "/".join(f"{row[f'change_{q}']:.4g}" for q in ("q1", "median", "q3"))
        print(f"{row['metric']:<12} {base:>30} {change:>30} {row['ratio']:>7.3f} "
              f"{row['wins']:>3}/{row['pairs']}")
    print("failed base " + " ".join(str(r["failed"]) for r in runs["base"])
          + " | change " + " ".join(str(r["failed"]) for r in runs["change"]))
    print("digests " + ("equal at every seed" if all(same) else "DIFFER at seeds " + " ".join(
        str(r["seed"]) for r, s in zip(runs["base"], same) if not s)))

    doc = {
        "workload": args.workload, "pairs": args.pairs, "seed_from": args.seed_from,
        "seconds": args.seconds, "nproc": env.get("nproc"), "numpy": env.get("numpy"),
        "python": env.get("python"),
        "trees": {side: _src_digest(tree) for side, tree in trees.items()},
        "digests_equal": same, "table": table, "runs": runs,
    }
    merged = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            merged = json.load(fh)
    merged[args.workload] = doc
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
        fh.write("\n")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
