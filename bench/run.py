"""v2ibeam benchmark: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep_nmse, gain_hybrid, codebook_build, rt_single (see
bench/README.md). With --trace 0 the run measures the end-to-end metrics;
with --trace 1 it runs the same work once untraced and once under the span
tracer and reports the per-layer metrics. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
an output check fails and 2 when the library sources are missing.
"""

import time

_T0 = time.perf_counter()  # set-up clock of --setup-probe: before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "V2I_THREADS")
WORKLOAD_NAMES = ("sweep_nmse", "gain_hybrid", "codebook_build", "rt_single")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import v2ibeam from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "v2ibeam", "__init__.py")):
        sys.stderr.write(f"bench: no library sources at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads  # noqa: PLC0415  (imports numpy and v2ibeam)

    import v2ibeam  # noqa: PLC0415

    if not os.path.abspath(v2ibeam.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"bench: imported v2ibeam from {v2ibeam.__file__}\n")
        sys.exit(2)
    return workloads


def environment():
    import numpy as np  # noqa: PLC0415

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "?") + " " + deps[k].get("version", "?")
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        **{var: os.environ.get(var, "<unset>") for var in THREAD_VARS},
    }


def _cpu_s():
    """CPU seconds of this process and its waited-for children."""
    own, kids = (resource.getrusage(who) for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup_probes(args, count):
    """Set-up times of `count` fresh interpreters: import, scenario, codebook
    load and warm-up, as each workload does before its timed phase."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _pass(wl, ctx, seed, size, mark=None):
    """One pass: the workload's timed work, then its output checks."""
    kwargs = dict(size) if mark is None else dict(size, mark=mark)
    cpu0 = _cpu_s()
    work = wl.work(ctx, seed, **kwargs)
    cpu = _cpu_s() - cpu0
    verdict = wl.check(ctx, work)
    return work, verdict, cpu


def _end_to_end(args, wl, ctx, size, lines):
    # half the set-up probes before the timed phase and half after, so their
    # median spans the machine's speed over the whole run
    setup_samples = _setup_probes(args, SETUP_PROBES // 2)
    work, verdict, cpu = _pass(wl, ctx, args.seed, size)
    setup_samples += _setup_probes(args, SETUP_PROBES - SETUP_PROBES // 2)
    setup_s = statistics.median(setup_samples)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate = work.units / work.wall_s
    metrics = {
        "setup_s": (setup_s, "s", f"median of n={len(setup_samples)} fresh interpreters"),
        "units_per_s": (rate, "1/s", f"n={work.units} {work.unit}s in {work.wall_s:.3f} s"),
        "cpu_s": (cpu, "s", f"wall {work.wall_s:.3f} s, cpu/wall {cpu / work.wall_s:.2f}"),
        "peak_rss_mb": (peak_mb, "MB", "own process"),
    }
    for name, (value, unit, note) in metrics.items():
        lines.append(f"metric {name} = {value!r} {unit} ({note})")
    alias = {"trial-step": "trial_steps_per_s", "codeword": "codewords_per_s",
             "step": "steps_per_s"}[work.unit]
    lines.append(f"metric {alias} = {rate!r} 1/s (= units_per_s, not registered)")
    details = {"setup_samples_s": setup_samples}
    if work.samples_us:
        import numpy as np  # noqa: PLC0415

        n = len(work.samples_us)
        quantiles = {f"p{q}": float(v) for q, v in
                     zip((50, 99), np.percentile(work.samples_us, (50, 99)))}
        for q, v in quantiles.items():
            lines.append(f"metric {work.unit}_{q}_us = {v!r} us (n={n} Tracker.step calls, "
                         f"not registered)")
        details["unit_quantiles_us"] = quantiles
    out = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}
    return work, verdict, out, [], details


def _traced(args, wl, ctx, size, lines):
    import tracer  # noqa: PLC0415

    t0 = time.perf_counter()
    plain, plain_verdict, _ = _pass(wl, ctx, args.seed, size)
    untraced_wall = time.perf_counter() - t0
    plain_digests = plain.digests
    del plain

    tr = tracer.Tracer()

    def mark(unit):
        tr.unit = unit

    with tr:
        t0 = time.perf_counter()
        work, verdict, _ = _pass(wl, ctx, args.seed, size, mark=mark)
        traced_wall = time.perf_counter() - t0
    layer = tr.metrics(traced_wall)
    layer["tracing_overhead_frac"] = traced_wall / untraced_wall - 1.0
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-spans.csv.gz")
    count = tr.write_spans(spans_path, t0)

    modules = tracer.module_self_s(layer)
    covered = sum(modules.values()) + layer["unattributed"]
    extra = []
    if abs(covered - traced_wall) > 1e-6 * max(traced_wall, 1.0):
        extra.append(f"module self times + unattributed = {covered!r} s, "
                     f"traced wall = {traced_wall!r} s")
    if work.digests != plain_digests:
        extra.append("tracing changed the outputs")
    if plain_verdict.failed:
        extra.append(f"untraced pass: {plain_verdict.failed} failed")
    if tr.missing:
        lines.append(f"note: trace targets not found: {', '.join(tr.missing)}")
    for mod, s in modules.items():
        lines.append(f"module {mod}: self {s:.6f} s ({layer[mod + '.self_share']:.2%})")
    lines.append(f"unattributed: {layer['unattributed']:.6f} s; traced wall "
                 f"{traced_wall:.6f} s; untraced wall {untraced_wall:.6f} s")
    lines.append(f"spans: {count} written to {os.path.relpath(spans_path, ROOT)}")
    units = {name: unit for name, unit, _ in tracer.metric_specs()}
    out = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    for name, m in out.items():
        lines.append(f"layer {name} = {m['value']!r} {m['unit']}")
    return work, verdict, out, extra, {"untraced_wall_s": untraced_wall}


def main(argv=None):
    args = _parse(argv)
    workloads = _import_library()
    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.setup()
    if args.setup_probe:
        print(repr(time.perf_counter() - _T0))
        return 0

    # a traced run does the work twice (untraced, then traced): half each
    size = wl.size(args.seconds / 2 if args.trace else args.seconds)
    env = environment()
    lines = [f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} size={size}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    run = _traced if args.trace else _end_to_end
    work, verdict, metrics, run_problems, details = run(args, wl, ctx, size, lines)
    problems = verdict.problems + run_problems
    failed = verdict.attempted if run_problems else verdict.failed
    lines.append("digest " + " ".join(f"{k}={v}" for k, v in work.digests.items()))
    lines.append(f"metric failed_frac = {failed / verdict.attempted!r} ratio "
                 f"({failed}/{verdict.attempted} {verdict.attempt_unit}s)")
    for msg in problems[:20]:
        lines.append(f"FAIL {msg}")
    print("\n".join(lines))

    result = {"correct": not problems and failed == 0, "attempted": verdict.attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=size, env=env, digests=work.digests,
                  problems=problems, **details)
    with open(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
