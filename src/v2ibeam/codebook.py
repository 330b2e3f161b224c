"""Road-aware beamforming codebook construction.

The served road interval is split into beam-regions in the spatial-frequency
domain. Equal geographic slices near the road center convert to wide
beam-regions, while slices near the edge collapse below the minimum width
2*nu_ub/Q'; those are clamped to the minimum so neighboring codewords do not
pile onto the same direction. Each region's uniform position density is
transformed into a target gain pattern integrating to 2*pi/M, and a
hybrid-constrained codeword is fitted to it by alternating projections
between the target magnitude and the equal-gain feasible set, for up to
GS_ITERS alternations, stopping once the projections stop moving. Two
safeguards, the zero-phase target and the best single atom (found in closed
form), are fitted as one 2-row OMP block, and every candidate is scored by
the same squared pattern error.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .array_channel import RoadGeometry
from .inputs import _decimal, _is_integer, _kind, _list, _positive_integer, _Section
from .sounding import SteeringDictionary, orthogonal_matching_pursuit

DEFAULT_GRID = 4096
GS_ITERS = 50
GS_INITS = 8
_GS_TOL = 1e-9  # the fit stops once no OMP output entry moves this much
_TILE_EPS = 1e-12


@dataclass(frozen=True)
class BeamRegion:
    """One codeword's spatial-frequency interval and its geographic preimage."""

    nu_lb: float
    nu_ub: float
    rho_lb: float
    rho_ub: float


@dataclass(frozen=True, eq=False)
class Codeword:
    """One codeword: its weights, its beam-region and its gain pattern on the
    psi grid. It keeps no fit score, so a fitted codeword and its saved and
    reloaded copy hold the same fields."""

    u: np.ndarray  # complex M-vector, unit norm
    region: BeamRegion
    bp_samples: np.ndarray  # normalized gain on the psi grid


@dataclass(frozen=True, eq=False)
class Codebook:
    num_antennas: int
    num_rf_chains: int
    y_design: float
    rsu_height: float
    resolutions: tuple[int, ...]
    codewords: tuple[Codeword, ...]
    grid_size: int = DEFAULT_GRID

    @property
    def size(self) -> int:
        return len(self.codewords)

    @functools.cached_property
    def bp_matrix(self) -> np.ndarray:
        """The read-only Q x L matrix of the codeword gain patterns, stacked
        once per book."""
        bp = np.stack([c.bp_samples for c in self.codewords])
        bp.setflags(write=False)
        return bp

    def resolution_slices(self) -> list[slice]:
        out, start = [], 0
        for q in self.resolutions:
            out.append(slice(start, start + q))
            start += q
        return out


def psi_grid(grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Uniform cell-centered spatial-frequency grid covering (-pi, pi]."""
    delta = 2.0 * math.pi / grid_size
    return -math.pi + (np.arange(grid_size) + 0.5) * delta


def integrate_bp(values: np.ndarray) -> float:
    """Periodic trapezoid integral over the full grid."""
    return float(np.sum(values) * 2.0 * math.pi / values.shape[0])


def geo_to_spatial(x, k: float):
    """psi = pi x / sqrt(x^2 + k^2) with k the off-road distance."""
    x = np.asarray(x, float)
    out = math.pi * x / np.sqrt(x * x + k * k)
    return float(out) if out.ndim == 0 else out


def spatial_to_geo(psi, k: float):
    """Inverse transform x = k psi / sqrt(pi^2 - psi^2)."""
    psi = np.asarray(psi, float)
    out = k * psi / np.sqrt(math.pi**2 - psi * psi)
    return float(out) if out.ndim == 0 else out


def _off_road_distance(y_design: float, h: float) -> float:
    return math.sqrt(y_design**2 + h**2)


def _divide_half(k: float, rho_ub: float, nu_ub: float, q_prime: int) -> list[tuple[float, float]]:
    """Build the positive-axis beam-regions left to right from 0."""
    nu_min = 2.0 * nu_ub / q_prime
    rho_slice = 2.0 * rho_ub / q_prime
    regions: list[tuple[float, float]] = []
    nu_prev = 0.0
    while nu_prev < nu_ub - _TILE_EPS:
        rho_prev = spatial_to_geo(nu_prev, k)
        converted = geo_to_spatial(rho_prev + rho_slice, k) - nu_prev
        nu_next = nu_prev + max(nu_min, converted)
        if nu_ub - nu_next < nu_min:  # absorb the tail into this region
            nu_next = nu_ub
        regions.append((nu_prev, nu_next))
        nu_prev = nu_next
    return regions


def divide_regions(geom: RoadGeometry, y_design: float, num_regions: int) -> list[BeamRegion]:
    """Partition the full beam range into num_regions regions.

    The positive half applies the width rule max(min width, converted equal
    geographic slice); the negative half mirrors it. The division count is
    raised by two per round until exactly num_regions regions tile the range.
    """
    if num_regions < 2 or num_regions % 2:
        raise ValueError("num_regions must be an even integer >= 2")
    if not math.isclose(-geom.range_lb_m, geom.range_ub_m):
        raise ValueError("region division expects a symmetric road range")
    k = _off_road_distance(y_design, geom.rsu_height_m)
    rho_ub = geom.range_ub_m
    nu_ub = geo_to_spatial(rho_ub, k)
    if nu_ub <= 0:
        raise ValueError("geometry yields an empty beam range")
    q_prime = num_regions
    while q_prime <= 512 * num_regions:
        halves = _divide_half(k, rho_ub, nu_ub, q_prime)
        if 2 * len(halves) == num_regions:
            pos = [
                BeamRegion(a, b, spatial_to_geo(a, k), spatial_to_geo(b, k))
                for a, b in halves
            ]
            neg = [
                BeamRegion(-b, -a + 0.0, -spatial_to_geo(b, k), -spatial_to_geo(a, k) + 0.0)
                for a, b in reversed(halves)
            ]
            return neg + pos
        if 2 * len(halves) > num_regions:
            raise ValueError(
                f"division produced {2 * len(halves)} regions for target {num_regions}"
            )
        q_prime += 2
    raise ValueError("beam-region division did not converge")


def narrowing_threshold(geom: RoadGeometry, y_design: float, num_regions: int) -> float:
    """Position beyond which equal geographic slices convert to beam-regions
    narrower than the equal split: x* = sqrt(|rho| (|rho| + k Q)) / 2."""
    k = _off_road_distance(y_design, geom.rsu_height_m)
    full = geom.range_ub_m - geom.range_lb_m
    return math.sqrt(full * (full + k * num_regions)) / 2.0


def position_pdf_to_bp(
    region: BeamRegion,
    y_design: float,
    h: float,
    num_antennas: int,
    grid_size: int = DEFAULT_GRID,
) -> np.ndarray:
    """Target gain pattern (2 pi / M) * f_nu(psi) sampled on the psi grid.

    Samples are cell averages; the closed-form antiderivative of the
    transformed density is the inverse position map, so the sampled pattern
    integrates to exactly 2 pi / M. A peak above unit gain means the region is
    oversampled, and no codeword can realize it; validate()["bp_peak"], which
    design-codebook prints, reports the fitted book's realized peak.
    """
    if region.nu_ub <= region.nu_lb:
        raise ValueError("empty beam region")
    k = _off_road_distance(y_design, h)
    grid = psi_grid(grid_size)
    delta = 2.0 * math.pi / grid_size
    lo = np.clip(grid - delta / 2.0, region.nu_lb, region.nu_ub)
    hi = np.clip(grid + delta / 2.0, region.nu_lb, region.nu_ub)
    mass = (spatial_to_geo(hi, k) - spatial_to_geo(lo, k)) / (region.rho_ub - region.rho_lb)
    return (2.0 * math.pi / num_antennas) * mass / delta


def _check_grid(grid_size: int, num_antennas: int) -> None:
    if grid_size < num_antennas:
        raise ValueError(
            f"grid_size (L) = {grid_size} is below num_antennas (M) = {num_antennas}: "
            "the pattern grid must have at least one point per antenna"
        )


class _PatternContext:
    """Gain-pattern transforms on the psi grid, cached per (M, grid size).

    The pattern p(psi_l) = sum_m u_m e^{-j m psi_l} on the cell-centred grid
    psi_l = psi_0 + l delta, psi_0 = -pi + delta/2, is a length-L DFT of the
    phase-ramped vector e^{-j m psi_0} u_m, and the back-projection
    (1/L) sum_l p_l e^{j m psi_l} is the inverse DFT with the conjugate ramp.
    Both need L >= M.
    """

    def __init__(self, num_antennas: int, grid_size: int):
        _check_grid(grid_size, num_antennas)
        self.num_antennas = num_antennas
        self.grid_size = grid_size
        self.delta = 2.0 * math.pi / grid_size
        psi0 = -math.pi + self.delta / 2.0
        self.ramp = np.exp(-1j * psi0 * np.arange(num_antennas))

    @classmethod
    @functools.cache
    def get(cls, num_antennas: int, grid_size: int) -> "_PatternContext":
        return cls(num_antennas, grid_size)

    def pattern(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pattern on the grid of u, or of each row of a block of vectors."""
        return np.fft.fft(self.ramp * u, n=self.grid_size, out=out)

    def bp(self, u: np.ndarray) -> np.ndarray:
        return np.abs(self.pattern(u)) ** 2 / self.num_antennas

    def backproject(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Least-squares vector (rows) whose pattern is closest to p (rows);
        out, when given, receives the full-length inverse DFT."""
        return self.ramp.conj() * np.fft.ifft(p, out=out)[..., : self.num_antennas]

    def atom_mse(self, g: np.ndarray, dictionary: SteeringDictionary) -> np.ndarray:
        """Squared pattern error delta * sum_l (bp_k[l] - g_l)^2 of every
        dictionary atom k, in closed form from two FFTs, without the atoms'
        patterns.

        With atoms on phi_k = -pi + 2 pi k / G, an atom's pattern is the Fejer
        kernel bp_k[l] = M^-2 sum_|d|<M (M - |d|) e^{j d (phi_k - psi_l)}. So
        with tau_d = e^{-j d psi_0} fft(g)[d], the cross term is
            X_k = sum_l bp_k[l] g_l
                = M^-2 [M tau_0 + 2 Re sum_{d=1}^{M-1} (M-d) (-1)^d tau_d e^{j 2 pi d k/G}],
        one length-G FFT. The grid sum of e^{-j n psi_l} vanishes unless L
        divides n, so the energy is
            sum_l bp_k[l]^2 = (L / M^4) [A_0 + 2 A_L cos(L (phi_k - psi_0))],
        with A_0 = M (2 M^2 + 1) / 3 and A_L = n (n + 1) (n + 2) / 6 for
        n = 2M - 1 - L > 0, else 0; it varies with k only when L <= 2M - 2.
        """
        m, grid_size = self.num_antennas, self.grid_size
        size = dictionary.atom_rows.shape[0]
        tau = self.ramp * np.fft.fft(g)[:m]
        coeff = (m - np.arange(m)) * dictionary.sign * tau
        coeff[1:] *= 2.0
        cross = np.fft.fft(coeff.conj(), n=size).real / (m * m)
        n = 2 * m - 1 - grid_size
        a_l = n * (n + 1) * (n + 2) // 6 if n > 0 else 0
        turns = (np.arange(size) * grid_size % size) / size  # L (phi_k - psi_0) / 2 pi + 1/2
        energy = m * (2 * m * m + 1) // 3 - 2 * a_l * np.cos(2.0 * math.pi * turns)
        energy *= grid_size / m**4
        return (energy - 2.0 * cross + g @ g) * self.delta


def fit_codeword(
    g_target: np.ndarray,
    num_antennas: int,
    num_rf_chains: int,
    dictionary: SteeringDictionary,
    rng: np.random.Generator,
    region: BeamRegion | None = None,
    iters: int = GS_ITERS,
    inits: int = GS_INITS,
) -> Codeword:
    """Fit a hybrid-constrained codeword whose gain pattern tracks g_target.

    Candidates come from alternating projections between the target magnitude
    sqrt(M * g_target) and the equal-gain feasible set, started from random
    phases, plus two safeguards fitted as one 2-row OMP block: the feasible
    projection of the zero-phase target and of the best single dictionary
    atom, found in closed form (_PatternContext.atom_mse). Every candidate is
    scored by the same squared pattern error, and the lowest wins; on a tie
    the earlier candidate does.

    The projections run for at most iters alternations. They stop early once
    no entry of the inits x M OMP output block has moved by _GS_TOL or more
    since the previous alternation; that block is not scored, because its
    rows are within _GS_TOL of rows already scored. Fits in a limit cycle
    never settle and run all iters. iters=0 scores the safeguards alone.
    """
    if inits < 1:
        raise ValueError(f"inits must be >= 1, got {inits}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    ctx = _PatternContext.get(num_antennas, g_target.shape[0])
    grid_size = g_target.shape[0]
    amplitude = np.sqrt(num_antennas * np.asarray(g_target, float))

    best_u: np.ndarray | None = None
    best_mse = math.inf

    def buffers(rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Patterns, their magnitudes and a real work block, rows x L each."""
        return (np.empty((rows, grid_size), complex), np.empty((rows, grid_size)),
                np.empty((rows, grid_size)))

    def score(block: np.ndarray, patterns: np.ndarray, mags: np.ndarray,
              err: np.ndarray) -> None:
        """Write the block's patterns and their magnitudes to the given
        buffers, and keep the block's lowest-error row when it beats the best
        so far."""
        nonlocal best_u, best_mse
        ctx.pattern(block, out=patterns)
        np.abs(patterns, out=mags)
        np.square(mags, out=err)
        err /= num_antennas
        err -= g_target
        err *= err
        errs = np.sum(err, axis=1) * ctx.delta
        row = int(np.argmin(errs))
        if errs[row] < best_mse:
            best_mse = float(errs[row])
            best_u = block[row].copy()  # not a view that keeps the block alive

    # Alternating-projection candidates from random phase starts, iterated as
    # one inits x M block: one OMP call and one FFT pair per iteration, on
    # inits x L buffers allocated once. Each start is a column of the draw.
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(grid_size, inits)).T.copy()
    batch = ctx.backproject(amplitude * np.exp(1j * phases))
    patterns, mags, work = buffers(inits)
    inverse = np.empty_like(patterns)
    previous = None
    for _ in range(iters):
        batch, _ = orthogonal_matching_pursuit(batch, dictionary, num_rf_chains)
        if previous is not None and np.max(np.abs(batch - previous)) < _GS_TOL:
            break
        # orthogonal_matching_pursuit returns a fresh array, so previous keeps
        # the last block by reference; an in-place OMP would need a copy here.
        previous = batch
        score(batch, patterns, mags, work)
        # keep each pattern's phase, take the target magnitude (phase 0 at nulls)
        null = mags == 0.0
        patterns[null] = 1.0
        mags[null] = 1.0
        patterns *= np.divide(amplitude, mags, out=work)
        batch = ctx.backproject(patterns, out=inverse)

    # Safeguards: the zero-phase target and the best single steering atom.
    best_atom = int(np.argmin(ctx.atom_mse(g_target, dictionary)))
    safeguards = np.stack([ctx.backproject(amplitude.astype(complex)),
                           dictionary.atom_rows[best_atom]])
    score(orthogonal_matching_pursuit(safeguards, dictionary, num_rf_chains)[0],
          *buffers(2))

    return Codeword(u=best_u, region=region, bp_samples=ctx.bp(best_u))


def _fit_region(region, seed_key, *, geom, y_design, num_antennas, num_rf_chains):
    dictionary = SteeringDictionary.build(num_antennas)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    g = position_pdf_to_bp(region, y_design, geom.rsu_height_m, num_antennas)
    return fit_codeword(g, num_antennas, num_rf_chains, dictionary, rng, region=region)


_BLAS_SET_THREADS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def single_blas_thread() -> None:
    """Run the loaded OpenBLAS on one thread; each pool process calls this
    when it starts.

    Each pool worker already takes a core, so BLAS threads on top of it would
    oversubscribe the machine. The library is located through the process's
    memory map; where no OpenBLAS is loaded this does nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def resolve_workers(workers: int | None) -> int:
    """The process count: workers when given, else V2I_THREADS when set, else
    the CPU count. A count below 1 is an error that names its source."""
    if workers is None:
        env = os.environ.get("V2I_THREADS")
        if not env:
            return max(1, os.cpu_count() or 1)
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"V2I_THREADS must be an integer >= 1, got {env!r}")
        return int(env)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


_pool_fn = None  # the function parallel_map sends to each pool process


def _set_pool_fn(fn) -> None:
    global _pool_fn
    single_blas_thread()
    _pool_fn = fn


def _call_pool_fn(args):
    return _pool_fn(*args)


def parallel_map(fn, arg_tuples: list[tuple], workers: int | None = None) -> list:
    """[fn(*args) for args in arg_tuples], in order, on a process pool of
    resolve_workers(workers) processes; serial for one worker or one call.

    fn, usually a functools.partial that binds what every call shares, goes
    to each process once through the pool initializer. Calls travel in chunks
    of 8, or smaller when that would leave fewer than 4 chunks per process.
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(arg_tuples) <= 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_pool_fn,
                             initargs=(fn,)) as pool:
        chunksize = min(8, max(1, len(arg_tuples) // (4 * workers)))
        return list(pool.map(_call_pool_fn, arg_tuples, chunksize=chunksize))


def build_codebook(
    geom: RoadGeometry,
    y_design: float,
    num_antennas: int,
    num_rf_chains: int,
    codewords: int | list[int] | tuple[int, ...],
    seed: int = 0,
    workers: int | None = None,
) -> Codebook:
    """Design a codebook; a list of codeword counts yields the concatenation
    of independent per-resolution designs."""
    if num_antennas < 1:
        raise ValueError(f"num_antennas must be >= 1, got {num_antennas}")
    _check_grid(DEFAULT_GRID, num_antennas)
    resolutions = (codewords,) if isinstance(codewords, int) else tuple(codewords)
    fit = functools.partial(
        _fit_region, geom=geom, y_design=y_design, num_antennas=num_antennas,
        num_rf_chains=num_rf_chains,
    )
    tasks = [
        (region, [seed, res_idx, reg_idx])
        for res_idx, q in enumerate(resolutions)
        for reg_idx, region in enumerate(divide_regions(geom, y_design, q))
    ]
    fitted = parallel_map(fit, tasks, workers)
    return Codebook(
        num_antennas=num_antennas,
        num_rf_chains=num_rf_chains,
        y_design=y_design,
        rsu_height=geom.rsu_height_m,
        resolutions=resolutions,
        codewords=tuple(fitted),
    )


def validate(book: Codebook) -> dict:
    """Partition and Parseval checks; returns measured worst-case numbers."""
    gap = 0.0
    for sl in book.resolution_slices():
        regions = [c.region for c in book.codewords[sl]]
        for left, right in zip(regions, regions[1:]):
            gap = max(gap, abs(right.nu_lb - left.nu_ub))
    target = 2.0 * math.pi / book.num_antennas
    integrals = [integrate_bp(c.bp_samples) for c in book.codewords]
    peak = max(float(c.bp_samples.max()) for c in book.codewords)
    norm_err = max(abs(np.linalg.norm(c.u) - 1.0) for c in book.codewords)
    return {
        "partition_gap": gap,
        "parseval_rel_err": max(abs(v - target) / target for v in integrals),
        "bp_peak": peak,
        "unit_norm_err": float(norm_err),
    }


def _fmt(x: float) -> str:
    return repr(float(x))


def save_codebook(book: Codebook, path: str) -> None:
    """Write the codebook as JSON with floats as decimal strings so a reload
    reproduces every bit."""
    doc = {
        "M": book.num_antennas,
        "N": book.num_rf_chains,
        "Q": book.size,
        "y_design": _fmt(book.y_design),
        "h": _fmt(book.rsu_height),
        "L": book.grid_size,
        "resolutions": list(book.resolutions),
        "regions": [
            {
                "nu_lb": _fmt(c.region.nu_lb),
                "nu_ub": _fmt(c.region.nu_ub),
                "rho_lb": _fmt(c.region.rho_lb),
                "rho_ub": _fmt(c.region.rho_ub),
            }
            for c in book.codewords
        ],
        "codewords": [
            [[_fmt(v.real), _fmt(v.imag)] for v in c.u] for c in book.codewords
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_codebook(path: str) -> Codebook:
    """Read a codebook that save_codebook wrote, by the rules of inputs (a number
    may also be its repr() string). A bad or unknown field, an N outside 1..M or
    counts that disagree raise a ValueError that names the field."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    name = f"codebook {path}"
    top = _Section(doc, name, "top level")
    m = top.take("M", _positive_integer)
    n = top.take("N", _kind(f"an integer in 1..{m}", lambda value: _is_integer(value)
                            and 1 <= value <= m))
    q = top.take("Q", _positive_integer)
    grid_size = top.take("L", _positive_integer, DEFAULT_GRID)  # _PatternContext checks L >= M
    y_design = top.take("y_design", _decimal)
    rsu_height = top.take("h", _decimal)
    resolutions = top.take("resolutions", _kind(
        "a list of positive integers", lambda value: isinstance(value, list)
        and all(_is_integer(c) and c > 0 for c in value), tuple))
    regions = top.take("regions", _list)
    vecs = top.take("codewords", _list)
    top.done()
    for key, count in [("regions", len(regions)), ("codewords", len(vecs)),
                       ("resolutions", sum(resolutions))]:
        if count != q:
            raise ValueError(f"{name}: {key!r} counts {count} codewords, 'Q' is {q}")
    ctx = _PatternContext.get(m, grid_size)
    words = []
    for index, (reg, vec) in enumerate(zip(regions, vecs)):
        try:  # the message leaves the vector out
            if not (isinstance(vec, list) and len(vec) == m
                    and all(isinstance(pair, list) and len(pair) == 2 for pair in vec)):
                raise TypeError
            u = np.array([_decimal(re) + 1j * _decimal(im) for re, im in vec])
        except TypeError:
            raise ValueError(f"{name} 'codewords'[{index}] must be a list of {m} [re, im] "
                             "pairs of finite numbers or their repr() strings") from None
        region = _Section(reg, f"{name} 'regions'[{index}]", "entry")
        bounds = BeamRegion(*(region.take(key, _decimal)
                              for key in ("nu_lb", "nu_ub", "rho_lb", "rho_ub")))
        region.done()
        words.append(Codeword(u=u, region=bounds, bp_samples=ctx.bp(u)))
    return Codebook(num_antennas=m, num_rf_chains=n, y_design=y_design, rsu_height=rsu_height,
                    resolutions=resolutions, codewords=tuple(words), grid_size=grid_size)
