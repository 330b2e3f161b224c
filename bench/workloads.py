"""The four benchmark workloads: set-up, seeded work and output checks.

Each workload is a closed loop in one process: the next library call starts
when the previous one returns, and every call into the library uses
``workers=1``. The amount of work is fixed by ``size(seconds)``, so a seed and
a run length give the same inputs, outputs and digests on every run. Library
functions are always looked up on their module at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
import traceback
import warnings

import numpy as np

from v2ibeam import array_channel, codebook, ekf, harness, motion, sounding

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
FIXTURE = os.path.join(HERE, "data", "gain_m64_q64_n4.json")

# Criterion 4 and 9 tolerances (tests/test_acceptance.py).
MASS_REL_TOL = 1e-3
PEAK_TOL = 1e-6
NORM_TOL = 1e-9
SYM_TOL = 1e-10
PSD_TOL = -1e-9
GAIN_SLACK = 1e-12  # |h^H c|^2 / |h|^2 may round a hair above 1
MIN_MEAN_GAIN = 0.5  # random codewords reach 0.03-0.05, the fitted book about 0.95
SUMMARY_REL_TOL = 1e-9  # summary NMSE against a recomputation from the records


@dataclasses.dataclass
class Work:
    """What one pass of a workload did, before its outputs are checked."""

    unit: str  # what one throughput unit is
    units: int  # throughput numerator
    wall_s: float
    outputs: dict  # workload-specific results for check()
    errors: dict[int, str]  # failed attempt index -> message
    digests: dict[str, str]
    samples_us: list[float] = dataclasses.field(default_factory=list)  # per-unit latency


@dataclasses.dataclass
class Verdict:
    attempted: int
    failed: int
    attempt_unit: str
    problems: list[str]


def _verdict(attempted, unit, failed_units, unit_problems, run_problems) -> Verdict:
    """A failed whole-run check (ordering, tiling, round trip) fails every unit."""
    failed = attempted if run_problems else failed_units
    return Verdict(attempted, failed, unit, unit_problems + run_problems)


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception(exc)).strip()


def _warm_up(scenario, book=None):
    """One short trial, so that lazy library and BLAS set-up (sporadically up
    to a second per process) lands in set-up time, not in the timed phase."""
    sc = dataclasses.replace(scenario, trials=1, horizon=scenario.omega, seed=0,
                             tx_powers_dbm=scenario.tx_powers_dbm[:1])
    harness.run_experiment(sc, workers=1, book=book)


def _experiment(scenario, seed, trials, horizon, book, mark) -> Work:
    """One run_experiment call over `trials` trials at every transmit power,
    then the results and summary CSV writers, as `v2ibeam simulate` does."""
    sc = dataclasses.replace(scenario, trials=trials, seed=seed,
                             horizon=horizon or scenario.horizon)
    powers = len(sc.tx_powers_dbm) or 1
    mark(0)
    errors, results, csv, summary = {}, [], "", ""
    t0 = time.perf_counter()
    try:
        results = harness.run_experiment(sc, workers=1, book=book)
        csv = "".join(harness.records_to_csv(r.records) for r in results)
        summary = harness.summaries_to_csv([r.summary for r in results])
    except Exception as exc:  # every trial of the call fails
        errors[-1] = _error(exc)
    wall = time.perf_counter() - t0
    outputs = {"scenario": sc, "results": results, "csv": csv, "attempted": trials * powers}
    return Work("trial-step", trials * powers * sc.horizon if results else 0, wall, outputs,
                errors, {"results_csv": _sha(csv), "summary_csv": _sha(summary)})


def _trial_records(work: Work):
    """(label, records of one trial) for every attempted trial; a failed call
    yields no records for any of them."""
    sc = work.outputs["scenario"]
    for r in work.outputs["results"]:
        by_trial: list[list] = [[] for _ in range(sc.trials)]
        for rec in r.records:
            by_trial[rec.trial].append(rec)
        for t, recs in enumerate(by_trial):
            yield f"{r.tx_power_dbm:g} dBm trial {t}", recs


def _nmse(records, attr: str) -> float:
    """NMSE of one state component over records, recomputed independently."""
    true = np.array([getattr(r, f"{attr}_true") for r in records])
    est = np.array([getattr(r, f"{attr}_hat") for r in records])
    keep = np.abs(true) >= harness.NMSE_DENOM_FLOOR
    return float(np.mean(((true[keep] - est[keep]) / true[keep]) ** 2))


def _call_failed(work: Work) -> tuple[int, list[str]] | None:
    if work.errors:
        return work.outputs["attempted"], [f"run_experiment: {work.errors[-1]}"]
    return None


class SweepNmse:
    """Bundled nmse_m96: proposed tracker, optimal combiner, 3 powers, 300 steps."""

    name = "sweep_nmse"
    trials_per_s = 2.6  # one trial at each of 3 powers, ~0.4 s on 2 cores

    def setup(self):
        sc = harness.bundled_scenario("nmse_m96")
        _warm_up(sc)
        return {"scenario": sc}

    def size(self, seconds: float) -> dict:
        return {"trials": max(8, round(seconds * self.trials_per_s))}

    def work(self, ctx, seed, trials, horizon=None, mark=lambda unit: None) -> Work:
        return _experiment(ctx["scenario"], seed, trials, horizon, None, mark)

    def check(self, ctx, work: Work) -> Verdict:
        attempted = work.outputs["attempted"]
        failed_call = _call_failed(work)
        if failed_call:
            return _verdict(attempted, "trial", *failed_call, [])
        sc, results = work.outputs["scenario"], work.outputs["results"]
        problems, failed = [], 0
        for label, recs in _trial_records(work):
            est = np.array([[r.x_hat, r.y_hat, r.v_hat] for r in recs])
            if len(recs) != sc.horizon or not np.all(np.isfinite(est)):
                failed += 1
                problems.append(f"{label}: missing or non-finite estimates")
        run_problems = []
        rows = work.outputs["csv"].count("\n") - len(results)
        if rows != attempted * sc.horizon:
            run_problems.append(f"results CSV has {rows} rows, expected {attempted * sc.horizon}")
        nx = [r.summary.nmse_x for r in results]
        nv = [r.summary.nmse_v for r in results]
        for r, x, v in zip(results, nx, nv):
            ref_x, ref_v = _nmse(r.records, "x"), _nmse(r.records, "v")
            if not (math.isclose(x, ref_x, rel_tol=SUMMARY_REL_TOL)
                    and math.isclose(v, ref_v, rel_tol=SUMMARY_REL_TOL)):
                run_problems.append(f"{r.tx_power_dbm:g} dBm summary NMSE ({x}, {v}) != "
                                    f"recomputed ({ref_x}, {ref_v})")
        if not (all(a > b for a, b in zip(nx, nx[1:])) and all(a > b for a, b in zip(nv, nv[1:]))):
            run_problems.append(f"NMSE not strictly decreasing over powers: x={nx} v={nv}")
        return _verdict(attempted, "trial", failed, problems, run_problems)


class GainHybrid:
    """Bundled gain_m64_hybrid against the committed 64-codeword book."""

    name = "gain_hybrid"
    trials_per_s = 11.0  # one 100-step trial, ~0.09 s on 2 cores

    def setup(self):
        book = codebook.load_codebook(FIXTURE)
        checks = codebook.validate(book)
        if book.size != 64 or book.num_antennas != 64 or not _book_ok(checks):
            raise ValueError(f"codebook fixture fails its checks: {checks}")
        with open(FIXTURE, "rb") as fh:
            digest = _sha(fh.read())
        sc = harness.bundled_scenario("gain_m64_hybrid")
        _warm_up(sc, book)
        return {"scenario": sc, "book": book, "book_sha": digest}

    def size(self, seconds: float) -> dict:
        return {"trials": max(5, round(seconds * self.trials_per_s))}

    def work(self, ctx, seed, trials, horizon=None, mark=lambda unit: None) -> Work:
        work = _experiment(ctx["scenario"], seed, trials, horizon, ctx["book"], mark)
        work.digests["codebook_json"] = ctx["book_sha"]
        return work

    def check(self, ctx, work: Work) -> Verdict:
        attempted = work.outputs["attempted"]
        failed_call = _call_failed(work)
        if failed_call:
            return _verdict(attempted, "trial", *failed_call, [])
        sc, q = work.outputs["scenario"], ctx["book"].size
        problems, failed, gains = [], 0, []
        for label, recs in _trial_records(work):
            ok = len(recs) == sc.horizon
            for r in recs:
                g = r.gain_norm
                if (r.beam_index is None or not 1 <= r.beam_index <= q or g is None
                        or not math.isfinite(g) or not 0.0 <= g <= 1.0 + GAIN_SLACK):
                    ok = False
                else:
                    gains.append(g)
            if not ok:
                failed += 1
                problems.append(f"{label}: missing step, beam index or gain out of range")
        mean_gain = float(np.mean(gains)) if gains else 0.0
        run_problems = []
        if mean_gain < MIN_MEAN_GAIN:
            run_problems.append(f"mean gain {mean_gain:.4f} below {MIN_MEAN_GAIN}")
        return _verdict(attempted, "trial", failed, problems, run_problems)


def _book_ok(checks: dict) -> bool:
    return (checks["parseval_rel_err"] <= MASS_REL_TOL
            and checks["bp_peak"] <= 1.0 + PEAK_TOL
            and checks["unit_norm_err"] <= NORM_TOL)


class CodebookBuild:
    """build_codebook for the M=64, Q=64, N=4 gain book, then validate and save."""

    name = "codebook_build"
    codewords_per_s = 3.4  # ~0.25 s per codeword on 2 cores: one book ~15 s

    def setup(self, m=64, q=64, rf_chains=4):
        geom = array_channel.RoadGeometry(rsu_height_m=7.5, lane_offset_m=8.5,
                                          range_lb_m=-75.0, range_ub_m=75.0)
        ctx = {"geom": geom, "y": 8.5, "m": m, "q": q, "rf": rf_chains}
        # warm the pattern cache and BLAS with a one-iteration fit of region 0
        region = codebook.divide_regions(geom, ctx["y"], q)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            g = codebook.position_pdf_to_bp(region, ctx["y"], geom.rsu_height_m, m,
                                            codebook.DEFAULT_GRID)
        codebook.fit_codeword(g, m, rf_chains, sounding.SteeringDictionary.build(m),
                              np.random.default_rng(0), region=region, iters=1, inits=1)
        return ctx

    def size(self, seconds: float) -> dict:
        return {"books": max(1, round(seconds * self.codewords_per_s / 64))}

    def work(self, ctx, seed, books, mark=lambda unit: None) -> Work:
        geom, y, m, q, rf = ctx["geom"], ctx["y"], ctx["m"], ctx["q"], ctx["rf"]
        os.makedirs(OUT_DIR, exist_ok=True)
        built, errors = [], {}
        t_start = time.perf_counter()
        for b in range(books):
            mark(b)
            path = os.path.join(OUT_DIR, f"codebook_build-{seed}-{b}.json")
            try:
                # book 0 is `v2ibeam design-codebook --seed <seed>`
                book = codebook.build_codebook(geom, y, m, rf, q, seed=seed + (b << 32),
                                               workers=1)
                checks = codebook.validate(book)
                codebook.save_codebook(book, path)
            except Exception as exc:  # one failed book must not stop the run
                errors[b] = _error(exc)
                continue
            built.append((book, checks, path))
        wall = time.perf_counter() - t_start
        mark(-1)
        saved = []
        for _, _, path in built:
            with open(path, "rb") as fh:
                saved.append(fh.read())
        outputs = {"built": built, "saved": saved, "attempted": books * q}
        return Work("codeword", sum(book.size for book, _, _ in built), wall, outputs, errors,
                    {"codebook_json": _sha(b"".join(saved))})

    def check(self, ctx, work: Work) -> Verdict:
        out = work.outputs
        problems = [f"book {b}: {msg}" for b, msg in work.errors.items()]
        failed = len(work.errors) * ctx["q"]
        target = 2.0 * math.pi / ctx["m"]
        regions = codebook.divide_regions(ctx["geom"], ctx["y"], ctx["q"])
        run_problems = []
        if (regions[0].nu_lb != -regions[-1].nu_ub
                or any(a.nu_ub != b.nu_lb for a, b in zip(regions, regions[1:]))):
            run_problems.append("beam-regions do not tile the road range")
        for (book, checks, path), saved in zip(out["built"], out["saved"]):
            if book.size != ctx["q"] or [w.region for w in book.codewords] != regions:
                run_problems.append(f"{path}: codewords do not follow the beam-regions")
            for word in book.codewords:
                mass = codebook.integrate_bp(word.bp_samples)
                if (abs(mass - target) / target > MASS_REL_TOL
                        or float(word.bp_samples.max()) > 1.0 + PEAK_TOL
                        or abs(np.linalg.norm(word.u) - 1.0) > NORM_TOL):
                    failed += 1
                    problems.append(f"codeword at nu_lb={word.region.nu_lb!r} fails criterion 4")
            if checks["partition_gap"] != 0.0 or not _book_ok(checks):
                run_problems.append(f"validate out of tolerance: {checks}")
            again = path + ".reload.json"
            codebook.save_codebook(codebook.load_codebook(path), again)
            with open(again, "rb") as fh:
                if fh.read() != saved:
                    run_problems.append("save -> load -> save is not byte-identical")
            os.remove(again)
        return _verdict(out["attempted"], "codeword", failed, problems, run_problems)


class RtSingle:
    """Bundled track_demo_hybrid (M=128, hybrid, -20 dBm), one Tracker.step per
    sounding period for a few independent 1000-step vehicles."""

    name = "rt_single"
    vehicles_per_s = 0.7  # ~1.4 s per 1000-step vehicle on 2 cores

    def setup(self):
        sc = harness.bundled_scenario("track_demo_hybrid")
        _warm_up(sc)
        return {"scenario": sc,
                "dictionary": sounding.SteeringDictionary.build(sc.array.num_antennas)}

    def size(self, seconds: float) -> dict:
        return {"vehicles": max(1, round(seconds * self.vehicles_per_s))}

    def work(self, ctx, seed, vehicles, steps=None, mark=lambda unit: None) -> Work:
        sc = ctx["scenario"]
        steps = steps or sc.horizon
        coherence = sc.coherence_steps or steps
        samples, errors = [], {}
        means = np.full((vehicles, steps, 3), np.nan)
        covs = np.full((vehicles, steps, 3, 3), np.nan)
        clock = time.perf_counter
        t_start = clock()
        for v in range(vehicles):
            rng = np.random.default_rng(np.random.SeedSequence([seed, v]))
            try:
                tracker = ekf.Tracker(
                    sc.geometry, sc.array, sc.motion, sc.t0, sc.sigma_eps, rng,
                    combiner_mode=sc.combiner_mode, estimate_accel=True,
                    accel_min_step=sc.accel_min_step, alpha_thres=sc.alpha_thres,
                    dictionary=ctx["dictionary"],
                )
                fading = array_channel.FadingProcess(rng, sc.fading)
                truth = sc.t0
                alpha = rng.normal(0.0, sc.motion.sigma_alpha)
                for k in range(steps):
                    mark(v * steps + k)
                    if k and k % coherence == 0:
                        alpha = rng.normal(0.0, sc.motion.sigma_alpha)
                    truth = motion.step_truth(rng, sc.motion, truth, alpha)
                    beta = fading.step()
                    t0 = clock()
                    st = tracker.step(truth, beta, rng)
                    samples.append((clock() - t0) * 1e6)
                    means[v, k] = st.belief.mean
                    covs[v, k] = st.belief.cov
            except Exception as exc:  # the rest of this vehicle's steps fail
                errors[v] = _error(exc)
        wall = clock() - t_start
        mark(-1)
        outputs = {"means": means, "covs": covs}
        return Work("step", len(samples), wall, outputs, errors,
                    {"estimates": _sha(means.tobytes())}, samples)

    def check(self, ctx, work: Work) -> Verdict:
        covs = work.outputs["covs"].reshape(-1, 3, 3)
        means = work.outputs["means"].reshape(-1, 3)
        finite = np.all(np.isfinite(covs), axis=(1, 2)) & np.all(np.isfinite(means), axis=1)
        ok = finite.copy()
        good = covs[finite]
        asym = np.max(np.abs(good - np.swapaxes(good, 1, 2)), axis=(1, 2))
        min_eig = np.linalg.eigvalsh((good + np.swapaxes(good, 1, 2)) / 2.0)[:, 0]
        ok[finite] = (asym <= SYM_TOL) & (min_eig >= PSD_TOL)
        failed = int(np.count_nonzero(~ok))
        problems = [f"vehicle {v}: {msg}" for v, msg in work.errors.items()]
        if failed:
            problems.append(f"{failed} steps with a non-finite, asymmetric or non-PSD "
                            f"covariance, first at steps {np.flatnonzero(~ok)[:5].tolist()}")
        return _verdict(len(ok), "step", failed, problems, [])


WORKLOADS = {w.name: w for w in (SweepNmse(), GainHybrid(), CodebookBuild(), RtSingle())}
