"""Command-line interface: codebook design, simulation, demo trace, reports.

Exit codes: 0 success, 2 validation error, 3 numerical failure. Errors are
emitted on stderr as single-line JSON objects.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click
import numpy as np

from . import harness as harness_mod
from .codebook import save_codebook, validate
from .harness import (
    bundled_scenario_names,
    bundled_scenario_path,
    records_from_csv,
    records_to_csv,
    resolve_codebook,
    run_experiment,
    run_trial,
    scenario_from_dict,
    summaries_to_csv,
    summarize,
)
from .plotting import svg_line_chart

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.exit(code)


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        # LinAlgError subclasses ValueError, so it must be matched first
        except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
            _fail(EXIT_NUMERICAL, "numerical", str(exc))
        except (ValueError, FileNotFoundError) as exc:
            _fail(EXIT_VALIDATION, "validation", str(exc))

    return wrapper


def _check_out_dir(option: str, path: str | None) -> None:
    """Reject an output path whose directory does not exist before any work
    is done, naming the option that gave it."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"{option} {path!r}: {parent!r} is not an existing directory")


def _write(path: str, text: str) -> None:
    """Write text to path as UTF-8 and say so on stdout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    click.echo(f"wrote {path}")


@click.group()
def main():
    """Vehicle tracking and road-aware beamforming simulator for mmWave V2I."""


@main.command("design-codebook")
@click.option("--antennas", type=int, required=True, help="Array size M.")
@click.option("--rf-chains", type=int, default=4, show_default=True,
              help="RF chains N for the hybrid constraint.")
@click.option("--codewords", type=int, multiple=True, required=True,
              help="Codewords per resolution; repeat for multi-resolution.")
@click.option("--lane-offset", type=float, default=8.5, show_default=True,
              help="Design lane offset y in meters.")
@click.option("--rsu-height", type=float, default=7.5, show_default=True,
              help="RSU height h in meters.")
@click.option("--range", "range_m", type=float, nargs=2, default=(-75.0, 75.0),
              show_default=True, help="Served road range in meters.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Output codebook JSON path.")
@click.option("--workers", type=int, default=None,
              help="Region-fit worker count (default: V2I_THREADS or CPUs).")
@guarded
def design_codebook(antennas, rf_chains, codewords, lane_offset, rsu_height,
                    range_m, seed, out, workers):
    """Design a road-aware beamforming codebook and write it as JSON."""
    _check_out_dir("--out", out)
    scenario = scenario_from_dict({
        "geometry": {"rsu_height_m": rsu_height, "lane_offset_m": lane_offset,
                     "range_m": list(range_m)},
        "array": {"num_antennas": antennas, "num_rf_chains": rf_chains},
        "beam": {"scheme": "codebook", "codewords": list(codewords)},
        "seed": seed,
    })
    book = resolve_codebook(scenario, workers=workers)
    checks = validate(book)
    save_codebook(book, out)
    click.echo(f"wrote {out}: M={book.num_antennas} N={book.num_rf_chains} "
               f"Q={book.size} resolutions={list(book.resolutions)}")
    click.echo(f"partition max gap: {checks['partition_gap']:.3e}")
    click.echo(f"gain-pattern mass max rel err (target 2pi/M): "
               f"{checks['parseval_rel_err']:.3e}")
    click.echo(f"gain-pattern peak: {checks['bp_peak']:.6f}")


def _read_scenario(ref: str, keys: dict):
    """The scenario of a file path or a bundled name, read by
    scenario_from_dict after each of `keys` that was given a value is
    written into the document: "section.key" names a key of a section."""
    if not os.path.isfile(ref):
        try:
            ref = bundled_scenario_path(ref)
        except FileNotFoundError:
            raise ValueError(
                f"scenario {ref!r} is neither a file nor a bundled name "
                f"(bundled: {', '.join(bundled_scenario_names())})"
            ) from None
    with open(ref, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key, value in keys.items():
        section, _, leaf = key.rpartition(".")
        if value is None or not isinstance(doc, dict):
            continue  # the reader rejects a document or section that is not an object
        part = doc.setdefault(section, {}) if section else doc
        if isinstance(part, dict):
            part[leaf] = value
    return scenario_from_dict(doc)


@main.command()
@click.argument("scenario_ref")
@click.option("--trials", type=int, default=None, help="Override trial count.")
@click.option("--seed", type=int, default=None, help="Override master seed.")
@click.option("--horizon", type=int, default=None, help="Override step count.")
@click.option("--tracker", type=click.Choice(harness_mod.TRACKERS), default=None,
              help="Override tracking variant.")
@click.option("--combiner", type=click.Choice(harness_mod.COMBINER_MODES), default=None,
              help="Override sounding combiner mode.")
@click.option("--tx-power", type=float, multiple=True,
              help="Transmit power in dBm; repeat for a sweep.")
@click.option("--codebook", "codebook_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Pre-built codebook JSON for beam schemes.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True)
@click.option("--format", "formats", type=click.Choice(["csv", "svg"]),
              multiple=True, default=("csv",), show_default=True,
              help="Outputs to write; repeatable.")
@click.option("--workers", type=int, default=None,
              help="Trial and codebook-fit worker count (default: V2I_THREADS or CPUs).")
@guarded
def simulate(scenario_ref, trials, seed, horizon, tracker, combiner, tx_power,
             codebook_path, out_dir, formats, workers):
    """Run a Monte-Carlo experiment from a scenario file or bundled name."""
    scenario = _read_scenario(scenario_ref, {
        "trials": trials, "seed": seed, "horizon": horizon,
        "tracking.tracker": tracker, "tracking.combiner_mode": combiner,
        "array.tx_power_dbm": list(tx_power) or None, "beam.codebook_path": codebook_path,
    })
    results = run_experiment(scenario, workers=workers)
    os.makedirs(out_dir, exist_ok=True)
    summaries = [r.summary for r in results]
    if "csv" in formats:
        for r in results:
            tag = f"_{r.tx_power_dbm:g}dBm" if len(results) > 1 else ""
            _write(os.path.join(out_dir, f"{scenario.name}{tag}_results.csv"),
                   records_to_csv(r.records))
        _write(os.path.join(out_dir, f"{scenario.name}_summary.csv"),
               summaries_to_csv(summaries))
    if "svg" in formats:
        if len(results) > 1:
            chart = {"NMSE x": [(r.tx_power_dbm, r.summary.nmse_x) for r in results],
                     "NMSE v": [(r.tx_power_dbm, r.summary.nmse_v) for r in results]}
            x_label = "transmit power (dBm)"
        else:
            series = results[0].summary.nmse_x_series
            chart = {"NMSE x(t)": [(i * scenario.motion.ts, v)
                                   for i, v in enumerate(series, start=1)]}
            x_label = "time (s)"
        _write(os.path.join(out_dir, f"{scenario.name}_summary.svg"),
               svg_line_chart(chart, title=scenario.name, x_label=x_label, y_label="NMSE"))
    for s in summaries:
        gain = "" if math.isnan(s.mean_gain) else f" gain={s.mean_gain:.4f}"
        rate = "" if math.isnan(s.mean_rate) else f" rate={s.mean_rate:.4f}"
        click.echo(
            f"{s.scenario}: nmse_x={s.nmse_x:.6g} nmse_v={s.nmse_v:.6g}"
            f"{gain}{rate} (excluded x:{s.excluded_x} v:{s.excluded_v})"
        )


@main.command("track-demo")
@click.option("--scenario", "scenario_ref", default="track_demo",
              show_default=True, help="Scenario file or bundled name.")
@click.option("--steps", type=int, default=None, help="Override horizon.")
@click.option("--seed", type=int, default=None, help="Override seed.")
@click.option("--every", type=int, default=50, show_default=True,
              help="Print every Nth step on stdout.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write the full per-step trace to this CSV instead.")
@guarded
def track_demo(scenario_ref, steps, seed, every, csv_path):
    """Trace one tracking trial: true vs estimated state per sounding step."""
    if every < 1:
        raise ValueError(f"--every must be >= 1, got {every}")
    _check_out_dir("--csv", csv_path)
    scenario = _read_scenario(scenario_ref, {"seed": seed, "horizon": steps})
    records = run_trial(scenario, 0)
    if csv_path:
        _write(csv_path, records_to_csv(records))
        return
    click.echo(f"{'step':>5} {'t[s]':>7} {'x':>9} {'x_hat':>9} "
               f"{'v':>8} {'v_hat':>8} {'alpha_hat':>9}")
    for r in records:
        if r.step % every and r.step != len(records):
            continue
        alpha = "-" if r.alpha_hat is None else f"{r.alpha_hat:9.4f}"
        click.echo(
            f"{r.step:>5} {r.time_s:7.2f} {r.x_true:9.3f} {r.x_hat:9.3f} "
            f"{r.v_true:8.3f} {r.v_hat:8.3f} {alpha:>9}"
        )


@main.command()
@click.argument("results_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--label", default=None, help="Scenario label for summary rows.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the summary CSV here instead of stdout.")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None,
              help="Also write a per-step NMSE chart.")
@guarded
def report(results_csv, label, out, svg_path):
    """Summarize a results CSV into metric rows (and an optional chart)."""
    _check_out_dir("--out", out)
    _check_out_dir("--svg", svg_path)
    with open(results_csv, newline="", encoding="utf-8") as fh:
        records = records_from_csv(fh.read())
    if not records:
        raise ValueError(f"{results_csv} has no data rows")
    horizon = int(records.columns["step"].max())
    label = label or os.path.splitext(os.path.basename(results_csv))[0]
    summary = summarize(records, label, horizon)
    text = summaries_to_csv([summary])
    if out:
        _write(out, text)
    else:
        click.echo(text, nl=False)
    if svg_path:
        steps = range(1, horizon + 1)
        chart = {
            "NMSE x(t)": list(zip(steps, summary.nmse_x_series)),
            "NMSE v(t)": list(zip(steps, summary.nmse_v_series)),
        }
        _write(svg_path, svg_line_chart(chart, title=label, x_label="step", y_label="NMSE"))


if __name__ == "__main__":
    main()
