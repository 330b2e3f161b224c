"""Monte-Carlo experiment engine.

A scenario bundles road geometry, array and link budget, vehicle kinematics,
fading, the tracking variant, and a downlink beam scheme. Each trial owns an
independent RNG substream derived from (seed, trial index), so results are
reproducible bit-for-bit regardless of worker count or execution order.

Trial results travel as a RecordBlock: one array per TrialRecord field, from
run_trial through run_experiment to the results CSV and summarize, and from a
results CSV back to summarize. Rows (TrialRecord objects) exist only while a
block is iterated.
"""

from __future__ import annotations

import array
import csv
import functools
import io
import json
import math
import os
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from . import selector as selector_mod
from .array_channel import (
    ArrayConfig,
    FadingProcess,
    RicianConfig,
    RoadGeometry,
    channel_vector,
    vehicle_link,
)
from .codebook import Codebook, build_codebook, load_codebook, parallel_map, resolve_workers
from .ekf import StateBelief, Tracker, TrackStep, g_of_state, init_belief, predict
from .inputs import (_angle, _boolean, _checked, _codewords, _count, _decibels, _from_repr,
                     _integer_up_to, _nonnegative, _number, _one_of, _positive,
                     _positive_integer, _powers, _range, _Section, _string)
from .motion import MotionModel, StateVector, step_truth
from .units import carrier_to_wavelength, dbm_to_mw, kmh_to_ms

TRACKERS = ("proposed", "manifold-baseline", "feedback")
# sounding combiners a scenario may choose; the manifold-baseline tracker
# always sounds through the array-manifold combiner
COMBINER_MODES = ("optimal", "hybrid")
BEAM_SCHEMES = ("none", "codebook", "dft1", "dft2", "random")
NMSE_DENOM_FLOOR = 0.5  # meters / m-per-s; excludes near-zero crossings


@dataclass(frozen=True)
class Scenario:
    name: str
    geometry: RoadGeometry
    array: ArrayConfig
    motion: MotionModel
    t0: StateVector
    sigma_eps: float
    fading: RicianConfig
    omega: int
    trials: int
    horizon: int
    seed: int
    tracker: str
    combiner_mode: str
    feedback_period: int
    accel_min_step: int
    alpha_thres: float
    coherence_steps: int | None
    beam_scheme: str
    codebook_path: str | None
    codebook_codewords: tuple[int, ...] | None
    tx_powers_dbm: tuple[float, ...]
    noise_free: bool

    def __post_init__(self):
        kinds = dict(name=_string, sigma_eps=_nonnegative, omega=_positive_integer,
                     trials=_positive_integer, horizon=_positive_integer, seed=_count,
                     tracker=_one_of(TRACKERS), combiner_mode=_one_of(COMBINER_MODES),
                     feedback_period=_positive_integer, accel_min_step=_positive_integer,
                     alpha_thres=_positive, coherence_steps=_positive_integer,
                     beam_scheme=_one_of(BEAM_SCHEMES), codebook_path=_string,
                     noise_free=_boolean)
        for key, kind in kinds.items():
            value = getattr(self, key)
            if not (value is None and key in ("coherence_steps", "codebook_path")):
                _checked("scenario", key, value, kind)
        _checked("scenario", "tx_power_dbm", list(self.tx_powers_dbm), _powers)
        if self.horizon < self.omega:
            raise ValueError(f"scenario key 'horizon' = {self.horizon!r}: "
                             f"must be at least 'omega' = {self.omega!r}")
        if self.beam_scheme == "dft1" and self.omega % 2:
            raise ValueError(f"scenario key 'omega' = {self.omega!r}: "
                             "must be even for beam scheme 'dft1'")
        labels = [f"{power:g}" for power in self.tx_powers_dbm]  # name rows and files
        if len(set(labels)) < len(labels):
            raise ValueError(f"scenario key 'tx_power_dbm' = {list(self.tx_powers_dbm)}: "
                             f"each power needs its own dBm label, got {', '.join(labels)}")


@dataclass(frozen=True)
class TrialRecord:
    """One row of the results CSV: the fields, in order, are its columns."""

    trial: int
    step: int
    time_s: float
    x_true: float
    y_true: float
    v_true: float
    x_hat: float
    y_hat: float
    v_hat: float
    alpha_hat: float | None
    beam_index: int | None
    gain_norm: float | None
    rate_bps_hz: float | None


CSV_COLUMNS = tuple(typing.get_type_hints(TrialRecord))
BEAM_COLUMNS = ("beam_index", "gain_norm", "rate_bps_hz")  # set or empty together
ROWS_PER_CHUNK = 4096  # rows turned into Python objects at a time


def _column_rules():
    """(column, parse, optional) per results-CSV column, from TrialRecord's
    field types: `float | None` parses as float and may be empty."""
    for name, hint in typing.get_type_hints(TrialRecord).items():
        kinds = typing.get_args(hint) or (hint,)
        parse = next(k for k in kinds if k is not type(None))
        yield name, parse, type(None) in kinds


_COLUMN_RULES = tuple(_column_rules())
_DTYPES = {name: np.int64 if parse is int else np.float64 for name, parse, _ in _COLUMN_RULES}


@dataclass(frozen=True, eq=False)
class RecordBlock:
    """Results-CSV rows stored as columns: `columns` maps each of CSV_COLUMNS
    to one array. alpha_hat holds a value only where has_alpha is set, and
    the BEAM_COLUMNS only where has_beam is set; elsewhere the cell is empty.

    TrialRecord is the row view: len(block) counts rows, and iteration
    yields TrialRecords built ROWS_PER_CHUNK rows at a time. Blocks come from
    run_trial, concat and records_from_csv.
    """

    columns: dict[str, np.ndarray]
    has_alpha: np.ndarray
    has_beam: np.ndarray

    @staticmethod
    def concat(blocks: list[RecordBlock]) -> RecordBlock:
        """The rows of every block, in order, as one block."""
        return RecordBlock(
            {name: np.concatenate([b.columns[name] for b in blocks]) for name in CSV_COLUMNS},
            np.concatenate([b.has_alpha for b in blocks]),
            np.concatenate([b.has_beam for b in blocks]),
        )

    def __len__(self) -> int:
        return len(self.has_beam)

    def __iter__(self):
        for start in range(0, len(self), ROWS_PER_CHUNK):
            yield from map(TrialRecord, *self.cells(start, start + ROWS_PER_CHUNK))

    def cells(self, start: int, stop: int) -> list[list]:
        """Per column, rows start..stop-1 as Python ints and floats, None
        where the cell is empty."""
        out = []
        for name in CSV_COLUMNS:
            column = self.columns[name][start:stop]
            held = (self.has_alpha if name == "alpha_hat"
                    else self.has_beam if name in BEAM_COLUMNS else None)
            held = None if held is None else held[start:stop]
            if held is None or held.all():
                out.append(column.tolist())
            elif not held.any():
                out.append([None] * len(column))
            else:
                cells = column.astype(object)
                cells[~held] = None
                out.append(cells.tolist())
        return out


@dataclass(frozen=True)
class MetricSummary:
    scenario: str
    nmse_x: float
    nmse_v: float
    mean_gain: float
    mean_rate: float
    excluded_x: int
    excluded_v: int
    nmse_x_series: tuple[float, ...] = field(repr=False, default=())
    nmse_v_series: tuple[float, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class ExperimentResult:
    tx_power_dbm: float
    records: RecordBlock
    summary: MetricSummary


class FeedbackTracker:
    """Baseline: the exact state is fed back every `period` sounding steps;
    between feedbacks the belief is propagated by prediction only."""

    def __init__(self, model: MotionModel, t0: StateVector, period: int):
        self.model = model
        self.period = period
        self.belief = init_belief(t0, 0.0, None)
        self.alpha_applied: float | None = None
        self.step_index = 0

    def step(self, truth: StateVector, beta: complex, rng) -> TrackStep:
        self.step_index += 1
        if self.step_index % self.period == 0:
            self.belief = init_belief(truth, 0.0, None)
        else:
            self.belief = predict(self.belief, self.model, None)
        return TrackStep(step=self.step_index, belief=self.belief, alpha_applied=None)


def make_tracker(scenario: Scenario, rng):
    """The tracker the scenario names. The manifold baseline is the proposed
    EKF sounding through the array-manifold combiner with the acceleration
    estimator disabled; its update equations are unchanged."""
    if scenario.tracker == "feedback":
        return FeedbackTracker(scenario.motion, scenario.t0, scenario.feedback_period)
    baseline = scenario.tracker == "manifold-baseline"
    return Tracker(
        scenario.geometry,
        scenario.array,
        scenario.motion,
        scenario.t0,
        scenario.sigma_eps,
        rng,
        combiner_mode="manifold" if baseline else scenario.combiner_mode,
        estimate_accel=not baseline,
        accel_min_step=scenario.accel_min_step,
        alpha_thres=scenario.alpha_thres,
    )


def _choose_beam(
    scenario: Scenario, book: Codebook | None, belief: StateBelief, alpha_hat: float | None,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray] | None:
    """The downlink beam for the next Omega steps, as (1-based index,
    beamformer), chosen from the tracker's belief and applied acceleration
    estimate; None when the scenario has no beam scheme."""
    scheme = scenario.beam_scheme
    if scheme == "none":
        return None
    h = scenario.geometry.rsu_height_m
    num_antennas = scenario.array.num_antennas
    if scheme == "codebook":
        preds = selector_mod.extrapolate(belief, scenario.motion, alpha_hat, scenario.omega)
        dirs = [selector_mod.direction_distribution(mean, cov, h) for mean, cov in preds]
        ideal = selector_mod.ideal_bp(dirs, num_antennas, book.grid_size)
        q_hat, word = selector_mod.select(book, ideal)
        return q_hat, word.u
    if scheme == "random":
        q_hat = int(rng.integers(0, book.size)) + 1
        return q_hat, book.codewords[q_hat - 1].u
    if scheme == "dft1":
        psi = selector_mod.dft_midpoint_direction(
            belief, scenario.motion, scenario.omega, h, alpha_hat
        )
    else:
        psi = g_of_state(belief.mean, h)
    index, codeword = selector_mod.dft_beam(psi, num_antennas)
    return index + 1, codeword


def run_trial(
    scenario: Scenario,
    trial_idx: int,
    book: Codebook | None = None,
) -> RecordBlock:
    """One independent trial, one pass per sounding period: advance the
    truth, draw the fading, every Omega steps choose the downlink beam from
    the belief the tracker holds before the step, track, and write the
    step's row into the trial's columns. Returns the trial's horizon rows.

    The random beam scheme draws from a child stream of the trial's stream,
    so the tracking draws are the same under every beam scheme."""
    if book is None:
        book = resolve_codebook(scenario)
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, trial_idx]))
    beam_rng = rng.spawn(1)[0]
    tracker = make_tracker(scenario, rng)
    fading = FadingProcess(rng, scenario.fading)
    coherence = scenario.coherence_steps or scenario.horizon
    sounding_rng = None if scenario.noise_free else rng
    array = scenario.array
    h = scenario.geometry.rsu_height_m

    n = scenario.horizon
    true_state = np.empty((n, 3))
    estimate = np.empty((n, 3))
    alpha_hat = np.zeros(n)
    has_alpha = np.zeros(n, dtype=bool)
    beam_index = np.zeros(n, dtype=np.int64)
    gain_norm = np.zeros(n)
    rate = np.zeros(n)
    truth = scenario.t0
    beam = None
    for k in range(n):
        if k % coherence == 0:
            alpha = rng.normal(0.0, scenario.motion.sigma_alpha)
        truth = step_truth(rng, scenario.motion, truth, alpha)
        beta = fading.step()
        if k % scenario.omega == 0:
            beam = _choose_beam(scenario, book, tracker.belief, tracker.alpha_applied, beam_rng)
        st = tracker.step(truth, beta, sounding_rng)
        true_state[k] = truth.x, truth.y, truth.v
        estimate[k] = st.belief.mean
        if st.alpha_applied is not None:
            alpha_hat[k] = st.alpha_applied
            has_alpha[k] = True
        if beam is not None:
            beam_index[k], c_vec = beam
            psi_true, rho = vehicle_link(array, truth.x, truth.y, h)
            hvec = channel_vector(beta, psi_true, array.num_antennas)
            power = abs(np.vdot(hvec, c_vec)) ** 2
            norm2 = float(np.real(np.vdot(hvec, hvec)))
            gain_norm[k] = power / norm2 if norm2 > 0 else 0.0
            rate[k] = math.log2(1.0 + rho * power)
    step = np.arange(1, n + 1)
    columns = dict(
        trial=np.full(n, trial_idx, dtype=np.int64),
        step=step,
        time_s=step * scenario.motion.ts,
        x_true=true_state[:, 0], y_true=true_state[:, 1], v_true=true_state[:, 2],
        x_hat=estimate[:, 0], y_hat=estimate[:, 1], v_hat=estimate[:, 2],
        alpha_hat=alpha_hat,
        beam_index=beam_index,
        gain_norm=gain_norm,
        rate_bps_hz=rate,
    )
    # the beam is chosen on the first step, so either every row has one or none
    return RecordBlock(columns, has_alpha, np.full(n, beam is not None))


def summarize(records: RecordBlock, scenario_label: str, horizon: int) -> MetricSummary:
    """Aggregate NMSE / gain / rate. Steps whose true denominator is within
    NMSE_DENOM_FLOOR of zero are excluded (count reported).

    Per-step sums accumulate in record order (np.bincount adds its weights
    in input order) and the totals are Python sums over the steps, so the
    result does not depend on how the records are stored. A step outside
    1..horizon is a ValueError."""
    step = records.columns["step"]
    if len(step) and not (step.min() >= 1 and step.max() <= horizon):
        raise ValueError(f"record steps must lie in 1..{horizon}, "
                         f"got {step.min()}..{step.max()}")
    sums, counts, excluded = [], [], []
    for name in ("x", "v"):
        true, est = records.columns[f"{name}_true"], records.columns[f"{name}_hat"]
        keep = np.abs(true) >= NMSE_DENOM_FLOOR
        # float_power squares through the C library's pow, as Python's float ** does
        sq = np.float_power((true[keep] - est[keep]) / true[keep], 2)
        at = step[keep] - 1
        sums.append(np.bincount(at, weights=sq, minlength=horizon))
        counts.append(np.bincount(at, minlength=horizon))
        excluded.append(len(step) - int(np.count_nonzero(keep)))
    series = []
    for sq, count in zip(sums, counts):
        per_step = np.full(horizon, math.nan)
        np.divide(sq, count, out=per_step, where=count > 0)
        series.append(tuple(per_step.tolist()))
    totals = [sum(sq.tolist()) / max(sum(count.tolist()), 1) for sq, count in zip(sums, counts)]
    beam = records.has_beam
    gains, rates = records.columns["gain_norm"][beam], records.columns["rate_bps_hz"][beam]
    return MetricSummary(
        scenario=scenario_label,
        nmse_x=totals[0],
        nmse_v=totals[1],
        mean_gain=float(np.mean(gains)) if len(gains) else math.nan,
        mean_rate=float(np.mean(rates)) if len(rates) else math.nan,
        excluded_x=excluded[0],
        excluded_v=excluded[1],
        nmse_x_series=series[0],
        nmse_v_series=series[1],
    )


def resolve_codebook(scenario: Scenario, book: Codebook | None = None,
                     workers: int | None = None) -> Codebook | None:
    """book, else the scenario's codebook: loaded, or fitted on `workers`
    processes from a symmetric road range. A beam scheme's book must have the
    scenario's antenna count, and its codewords at most the RF chains the
    scenario's array has."""
    if scenario.beam_scheme not in ("codebook", "random"):
        return book
    if book is None:
        if scenario.codebook_path:
            if os.path.isdir(scenario.codebook_path):
                raise ValueError(f"scenario key 'codebook_path' = {scenario.codebook_path!r}: "
                                 "is a directory, not a codebook file")
            book = load_codebook(scenario.codebook_path)
        elif scenario.codebook_codewords:
            bounds = [scenario.geometry.range_lb_m, scenario.geometry.range_ub_m]
            if not math.isclose(-bounds[0], bounds[1]):
                raise ValueError(f"scenario key 'range_m' = {bounds}: a fitted codebook "
                                 "needs a symmetric road range")
            book = build_codebook(
                scenario.geometry,
                scenario.t0.y,
                scenario.array.num_antennas,
                scenario.array.num_rf_chains,
                list(scenario.codebook_codewords),
                seed=scenario.seed,
                workers=workers,
            )
        else:
            raise ValueError(
                f"beam scheme {scenario.beam_scheme!r} needs a codebook path or build parameters"
            )
    if book.num_antennas != scenario.array.num_antennas:
        raise ValueError(
            f"codebook has M={book.num_antennas} antennas but scenario "
            f"{scenario.name!r} has M={scenario.array.num_antennas}"
        )
    if book.num_rf_chains > scenario.array.num_rf_chains:
        raise ValueError(
            f"codebook needs N={book.num_rf_chains} RF chains but scenario "
            f"{scenario.name!r} has N={scenario.array.num_rf_chains}"
        )
    return book


def run_experiment(
    scenario: Scenario,
    workers: int | None = None,
    book: Codebook | None = None,
) -> list[ExperimentResult]:
    """Run all trials for each transmit-power setting of the scenario.

    Every (power, trial) pair goes to one process pool per run (size from
    V2I_THREADS or the CPU count; see codebook.parallel_map); results come
    back in submission order and aggregation folds in trial order, so the
    output is identical for any worker count. Each power's trial blocks are
    stacked into one RecordBlock and released as the next power is stacked.
    """
    workers = resolve_workers(workers)
    book = resolve_codebook(scenario, book, workers)
    at_powers = [
        replace(scenario, array=replace(scenario.array, tx_power_mw=dbm_to_mw(power)))
        for power in scenario.tx_powers_dbm
    ]
    per_trial = parallel_map(
        functools.partial(run_trial, book=book),
        [(at_power, t) for at_power in at_powers for t in range(scenario.trials)],
        workers,
    )
    results = []
    for power in scenario.tx_powers_dbm:
        records = RecordBlock.concat(per_trial[:scenario.trials])
        del per_trial[:scenario.trials]
        label = f"{scenario.name}@{power:g}dBm"
        summary = summarize(records, label, scenario.horizon)
        results.append(
            ExperimentResult(tx_power_dbm=power, records=records, summary=summary)
        )
    return results


def records_to_csv(records: RecordBlock) -> str:
    """Results CSV: csv.writer leaves None cells empty and writes every float
    in its shortest round-trip form; rows go out ROWS_PER_CHUNK at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for start in range(0, len(records), ROWS_PER_CHUNK):
        writer.writerows(zip(*records.cells(start, start + ROWS_PER_CHUNK)))
    return buf.getvalue()


def records_from_csv(text: str) -> RecordBlock:
    """Parse a results CSV (see records_to_csv) into a block, cell by cell
    into typed column buffers; columns may come in any order and extra
    columns are ignored.

    Empty cells are accepted only in the optional columns, and a row's
    BEAM_COLUMNS must be all set or all empty; an integer cell must fit in
    int64 and a step counts from 1. A cell must be spelt as repr() and so
    csv.writer spell its value (see inputs); any other bad cell is a
    ValueError that names its line."""
    reader = csv.DictReader(io.StringIO(text))
    missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"results CSV missing columns: {sorted(missing)}")
    columns = {name: array.array("q" if parse is int else "d") for name, parse, _ in _COLUMN_RULES}
    held = {name: bytearray() for name, _, optional in _COLUMN_RULES if optional}
    for row in reader:
        for name, parse, optional in _COLUMN_RULES:
            cell = row[name]
            if optional:
                held[name].append(bool(cell))
                if not cell:
                    columns[name].append(0)
                    continue
            try:
                value = _from_repr(parse, cell)
                if name == "step" and value < 1:
                    raise ValueError("steps count from 1")
                columns[name].append(value)  # OverflowError outside int64
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"results CSV line {reader.line_num}: bad {name} cell {cell!r}"
                ) from None
        if len({held[name][-1] for name in BEAM_COLUMNS}) > 1:
            raise ValueError(f"results CSV line {reader.line_num}: beam_index, gain_norm "
                             f"and rate_bps_hz must be all set or all empty")
    return RecordBlock({name: np.frombuffer(column, _DTYPES[name])
                        for name, column in columns.items()},
                       np.frombuffer(held["alpha_hat"], bool),
                       np.frombuffer(held["beam_index"], bool))


def summaries_to_csv(summaries: list[MetricSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "scenario", "value"])
    for s in summaries:
        for metric, value in [
            ("nmse_x", s.nmse_x),
            ("nmse_v", s.nmse_v),
            ("mean_gain_norm", s.mean_gain),
            ("mean_rate_bps_hz", s.mean_rate),
            ("excluded_x", float(s.excluded_x)),
            ("excluded_v", float(s.excluded_v)),
        ]:
            writer.writerow([metric, s.scenario, value])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Scenario (de)serialization, by the rules of inputs. The JSON uses field units
# (km/h, dBm, GHz, ms); everything becomes SI / linear at load time.
# ---------------------------------------------------------------------------


def scenario_from_dict(doc: dict) -> Scenario:
    top = _Section(doc, "scenario", "top level")
    geo = top.section("geometry", required=True)
    range_lb_m, range_ub_m = geo.take("range_m", _range, (-75.0, 75.0))
    geometry = RoadGeometry(
        rsu_height_m=geo.take("rsu_height_m", _positive, 7.5),
        lane_offset_m=geo.take("lane_offset_m", _nonnegative, 8.5),
        range_lb_m=range_lb_m,
        range_ub_m=range_ub_m,
    )
    arr = top.section("array", required=True)
    bandwidth_hz = arr.take("bandwidth_mhz", _positive, 20.0) * 1e6
    thermal_noise_dbm = -174.0 + 10.0 * math.log10(bandwidth_hz)
    tx_powers_dbm = arr.take("tx_power_dbm", _powers, (10.0,))
    num_antennas = arr.take("num_antennas", _positive_integer)
    array = ArrayConfig(
        num_antennas=num_antennas,
        num_rf_chains=arr.take("num_rf_chains", _integer_up_to(num_antennas), 4),
        wavelength_m=carrier_to_wavelength(arr.take("carrier_ghz", _positive, 28.0) * 1e9),
        pathloss_exponent=arr.take("pathloss_exponent", _positive, 2.0),
        noise_power_mw=dbm_to_mw(
            arr.take("noise_power_dbm", _number, thermal_noise_dbm, nullable=True)
        ),
        tx_power_mw=dbm_to_mw(tx_powers_dbm[0]),
    )
    init = top.section("initial_state")
    v0 = kmh_to_ms(init.take("speed_kmh", _nonnegative, 70.0))
    t0 = StateVector(
        x=init.take("x_m", _number, -50.0),
        y=init.take("y_m", _number, geometry.lane_offset_m),
        v=v0,
    )
    mot = top.section("motion")
    motion = MotionModel(
        ts=mot.take("ts_ms", _positive, 10.0) / 1e3,
        steering_angle=mot.take("steering_angle_rad", _angle, math.pi / 2**7),
        # follows the reference setup: 0.1 * (v0_kmh * 1000 / 3600)
        sigma_alpha=mot.take("sigma_alpha", _nonnegative, 0.1 * v0, nullable=True),
        sigma_omega=mot.take("sigma_omega", _nonnegative, 10.0**-1.5),
    )
    fad = top.section("fading")
    fading = RicianConfig(
        k_factor_db=fad.take("k_factor_db", _decibels, 13.0),
        block_length=fad.take("block_length", _positive_integer, 1),
    )
    trk = top.section("tracking")
    beam = top.section("beam")
    fields = dict(
        name=top.take("name", _string, "scenario"),
        sigma_eps=top.take("sigma_eps", _nonnegative, 0.0),
        omega=top.take("omega", _positive_integer, 10),
        trials=top.take("trials", _positive_integer, 1),
        horizon=top.take("horizon", _positive_integer, 100),
        seed=top.take("seed", _count, 0),
        noise_free=top.take("noise_free", _boolean, False),
        coherence_steps=mot.take("coherence_steps", _positive_integer, None, nullable=True),
        tracker=trk.take("tracker", _one_of(TRACKERS), "proposed"),
        combiner_mode=trk.take("combiner_mode", _one_of(COMBINER_MODES), "optimal"),
        feedback_period=trk.take("feedback_period", _positive_integer, 5),
        accel_min_step=trk.take("accel_min_step", _positive_integer, 10),
        alpha_thres=trk.take("alpha_thres", _positive, 0.03),
        beam_scheme=beam.take("scheme", _one_of(BEAM_SCHEMES), "none"),
        codebook_path=beam.take("codebook_path", _string, None, nullable=True),
        codebook_codewords=beam.take("codewords", _codewords, None, nullable=True),
    )
    for part in (top, geo, arr, init, mot, fad, trk, beam):
        part.done()
    return Scenario(geometry=geometry, array=array, motion=motion, t0=t0, fading=fading,
                    tx_powers_dbm=tx_powers_dbm, **fields)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc)


def bundled_scenario_path(name: str) -> str:
    here = os.path.dirname(__file__)
    path = os.path.join(here, "scenarios", f"{name}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return path


def bundled_scenario_names() -> list[str]:
    here = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(p[:-5] for p in os.listdir(here) if p.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
