import json
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2ibeam import codebook
from v2ibeam.array_channel import RoadGeometry
from v2ibeam.codebook import (
    DEFAULT_GRID,
    GS_ITERS,
    BeamRegion,
    Codebook,
    Codeword,
    _PatternContext,
    build_codebook,
    divide_regions,
    fit_codeword,
    geo_to_spatial,
    integrate_bp,
    narrowing_threshold,
    load_codebook,
    position_pdf_to_bp,
    psi_grid,
    save_codebook,
    spatial_to_geo,
    validate,
)
from v2ibeam.ekf import StateBelief
from v2ibeam.motion import LongTermTransition
from v2ibeam.sounding import Combiner, Sounding, SteeringDictionary, hybrid_approximation

BENCH_BOOK = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "data",
                          "gain_m64_q64_n4.json")
GEOM = RoadGeometry(7.5, 8.5, -75.0, 75.0)
K = math.sqrt(8.5**2 + 7.5**2)


def test_grid_covers_full_circle():
    g = psi_grid(256)
    assert len(g) == 256
    assert g[0] == pytest.approx(-math.pi + math.pi / 256)
    assert g[-1] == pytest.approx(math.pi - math.pi / 256)
    np.testing.assert_allclose(np.diff(g), 2 * math.pi / 256)


def test_integrate_bp_constant():
    assert integrate_bp(np.full(512, 3.0)) == pytest.approx(6.0 * math.pi)


def test_transform_roundtrip_on_region_endpoints():
    regions = divide_regions(GEOM, 8.5, 32)
    for r in regions:
        for nu, rho in ((r.nu_lb, r.rho_lb), (r.nu_ub, r.rho_ub)):
            assert geo_to_spatial(spatial_to_geo(nu, K), K) == pytest.approx(
                nu, abs=1e-10
            )
            assert spatial_to_geo(nu, K) == pytest.approx(rho, abs=1e-9)


@pytest.mark.parametrize("q", [32, 48, 64])
def test_divide_regions_exact_partition(q):
    regions = divide_regions(GEOM, 8.5, q)
    assert len(regions) == q
    nu_ub = geo_to_spatial(75.0, K)
    assert regions[0].nu_lb == -nu_ub
    assert regions[-1].nu_ub == pytest.approx(nu_ub, abs=0.0)
    for left, right in zip(regions, regions[1:]):
        assert left.nu_ub == right.nu_lb  # shared endpoints, no gaps
        assert left.nu_lb < left.nu_ub


def test_divide_regions_min_width_holds():
    from v2ibeam.codebook import _divide_half

    q = 64
    regions = divide_regions(GEOM, 8.5, q)
    nu_ub = geo_to_spatial(75.0, K)
    # recover the final division count: the smallest emitted width is the
    # clamp value 2 nu_ub / q_prime
    q_prime = q
    while q_prime <= 512 * q:
        halves = _divide_half(K, 75.0, nu_ub, q_prime)
        if 2 * len(halves) == q:
            break
        q_prime += 2
    nu_min = 2 * nu_ub / q_prime
    for r in regions:
        assert r.nu_ub - r.nu_lb >= nu_min - 1e-12


def test_divide_regions_mirror_symmetry():
    regions = divide_regions(GEOM, 8.5, 48)
    for left, right in zip(regions, reversed(regions)):
        assert left.nu_lb == pytest.approx(-right.nu_ub, abs=0.0)
        assert left.rho_lb == pytest.approx(-right.rho_ub, abs=0.0)


def test_divide_regions_converted_widths_strictly_decrease():
    # equal geographic slices convert to strictly narrower beam-regions as the
    # start position moves outward
    regions = divide_regions(GEOM, 8.5, 64)
    positive = [r for r in regions if r.nu_lb >= 0.0]
    rho_slice = positive[0].rho_ub - positive[0].rho_lb
    converted = [
        geo_to_spatial(r.rho_lb + rho_slice, K) - geo_to_spatial(r.rho_lb, K)
        for r in positive
    ]
    assert all(a > b for a, b in zip(converted, converted[1:]))


def test_divide_regions_emitted_widths_nonincreasing_before_edge():
    regions = divide_regions(GEOM, 8.5, 64)
    positive = [r for r in regions if r.nu_lb >= 0.0]
    widths = [r.nu_ub - r.nu_lb for r in positive]
    # the last region absorbs the tail remainder; all earlier widths shrink
    assert all(a >= b - 1e-12 for a, b in zip(widths[:-2], widths[1:-1]))


def test_divide_regions_layout_m96_q48():
    # layout sanity at the 96-antenna / 48-codeword design point: wide beams
    # at the road center, minimum-width beams at the edge, and near-equal
    # geographic slices over the unclamped interior
    regions = divide_regions(GEOM, 8.5, 48)
    positive = [r for r in regions if r.nu_lb >= 0.0]
    widths = [r.nu_ub - r.nu_lb for r in positive]
    assert widths[0] > 3 * min(widths)
    geo = [r.rho_ub - r.rho_lb for r in positive]
    interior = [g for w, g in zip(widths, geo) if w > min(widths) * 1.01]
    interior = interior[:-1] or interior
    assert max(interior) / min(interior) < 1.05
    # clamped edge regions cover ever larger stretches of road
    clamped = [g for w, g in zip(widths, geo) if abs(w - min(widths)) < 1e-9]
    assert all(b > a for a, b in zip(clamped, clamped[1:]))


def test_divide_regions_validation():
    with pytest.raises(ValueError):
        divide_regions(GEOM, 8.5, 33)
    with pytest.raises(ValueError):
        divide_regions(GEOM, 8.5, 0)
    with pytest.raises(ValueError):
        divide_regions(RoadGeometry(7.5, 8.5, -50.0, 75.0), 8.5, 32)


def test_narrowing_threshold_reference_value():
    expected = math.sqrt(150.0 * (150.0 + K * 64)) / 2.0
    got = narrowing_threshold(GEOM, 8.5, 64)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(181.19294058271453, abs=1e-9)


def test_narrowing_threshold_flat_limit():
    flat = RoadGeometry(1e-9, 0.0, -75.0, 75.0)
    assert narrowing_threshold(flat, 0.0, 64) == pytest.approx(75.0, rel=1e-4)


@pytest.mark.parametrize("q", [32, 64])
def test_narrowing_ratio_exceeds_one_beyond_threshold(q):
    # exact transform evaluation: equal slices starting past the threshold
    # always convert below the equal beam width
    x_star = narrowing_threshold(GEOM, 8.5, q)
    nu_slice = 2 * geo_to_spatial(75.0, K) / q
    rho_slice = 150.0 / q
    for p in np.linspace(x_star * 1.0001, 3 * x_star, 40):
        width = geo_to_spatial(p + rho_slice / 2, K) - geo_to_spatial(p - rho_slice / 2, K)
        assert nu_slice / width > 1.0


@pytest.mark.parametrize("q", [32, 64])
def test_narrowing_trend_in_asymptotic_regime(q):
    # within the road, the trend already holds for |x| > 3k
    nu_slice = 2 * geo_to_spatial(75.0, K) / q
    rho_slice = 150.0 / q
    edges = np.arange(-75.0, 75.0 - 1e-9, rho_slice)
    for lb in edges:
        mid = lb + rho_slice / 2
        if abs(mid) <= 3 * K:
            continue
        width = geo_to_spatial(lb + rho_slice, K) - geo_to_spatial(lb, K)
        assert nu_slice / width > 1.0


def test_target_pattern_mass_and_support():
    regions = divide_regions(GEOM, 8.5, 64)
    grid = psi_grid()
    for r in (regions[0], regions[20], regions[32], regions[-1]):
        g = position_pdf_to_bp(r, 8.5, 7.5, 64)
        mass = integrate_bp(g)
        assert mass == pytest.approx(2 * math.pi / 64, rel=1e-3)
        outside = (grid < r.nu_lb - 2e-3) | (grid > r.nu_ub + 2e-3)
        assert np.all(g[outside] == 0.0)


def test_target_pattern_symmetric_center_region():
    region = BeamRegion(
        nu_lb=-0.2, nu_ub=0.2,
        rho_lb=spatial_to_geo(-0.2, K), rho_ub=spatial_to_geo(0.2, K),
    )
    g = position_pdf_to_bp(region, 8.5, 7.5, 64)
    np.testing.assert_allclose(g, g[::-1], rtol=1e-9, atol=1e-12)
    # density grows toward the region edges per the (pi^2 - psi^2)^{-3/2} factor
    inside = np.nonzero(g)[0]
    mid = (inside[0] + inside[-1]) // 2
    assert g[inside[2]] > g[mid]
    assert g[inside[-3]] > g[mid]


def test_target_pattern_peak_grows_toward_edge():
    """The edge region's target peaks above unit gain (it is oversampled),
    and computing it emits no warning."""
    regions = divide_regions(GEOM, 8.5, 64)
    positive = [r for r in regions if r.nu_lb >= 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peaks = [position_pdf_to_bp(r, 8.5, 7.5, 64).max() for r in positive]
    assert peaks[-1] > peaks[0]
    assert peaks[-1] > 1.0


def _steering(m, grid_size):
    """Explicit M x L steering matrix e^{j m psi_l} on the cell-centred grid."""
    return np.exp(1j * np.arange(m)[:, None] * psi_grid(grid_size)[None, :])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.integers(1, 128), extra=st.integers(0, 4096), seed=st.integers(0, 2**32 - 1))
@example(m=128, extra=0, seed=0)
@example(m=1, extra=4095, seed=1)
def test_pattern_transforms_match_the_steering_matrix(m, extra, seed):
    grid_size = min(m + extra, 4096)
    ctx = _PatternContext.get(m, grid_size)
    steering = _steering(m, grid_size)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    p = rng.standard_normal((3, grid_size)) + 1j * rng.standard_normal((3, grid_size))
    want_p = u @ steering.conj()
    want_u = p @ steering.T / grid_size
    assert np.max(np.abs(ctx.pattern(u) - want_p)) <= 1e-12 * np.max(np.abs(want_p))
    assert np.max(np.abs(ctx.backproject(p) - want_u)) <= 1e-12 * np.max(np.abs(want_u))
    np.testing.assert_array_equal(ctx.pattern(u[1]), ctx.pattern(u)[1])


def test_pattern_grid_must_cover_the_antennas():
    with pytest.raises(ValueError, match=r"grid_size.*num_antennas"):
        build_codebook(GEOM, 8.5, DEFAULT_GRID + 1, 4, 2, workers=1)
    book = build_codebook(GEOM, 8.5, 8, 2, 2, seed=0, workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "book.json")
        save_codebook(book, path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["L"] = 7
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match=r"grid_size \(L\) = 7.*num_antennas \(M\) = 8"):
            load_codebook(path)


@pytest.mark.parametrize("corrupt,field", [
    (lambda doc: doc["regions"].pop(), "'regions'"),
    (lambda doc: doc["codewords"].pop(), "'codewords'"),
    (lambda doc: doc["resolutions"].append(1), "'resolutions'"),
    (lambda doc: doc.update(Q=5), "'regions'"),
    (lambda doc: doc["codewords"][1].pop(),
     r"'codewords'\[1\] must be a list of 8 \[re, im\] pairs"),
], ids=["regions", "codewords", "resolutions", "Q", "codeword_length"])
def test_load_codebook_rejects_inconsistent_counts(tmp_path, corrupt, field):
    book = build_codebook(GEOM, 8.5, 8, 2, 4, seed=0, workers=1)
    path = tmp_path / "book.json"
    save_codebook(book, str(path))
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=field):
        load_codebook(str(path))


@pytest.mark.parametrize("corrupt,field", [
    (lambda doc: doc.update(N=None), r"'N' = None: must be an integer in 1\.\.8"),
    (lambda doc: doc.update(N=0), r"'N' = 0: must be an integer in 1\.\.8"),
    (lambda doc: doc.update(N=9), r"'N' = 9: must be an integer in 1\.\.8"),
    (lambda doc: doc.update(M="8"), r"'M' = '8': must be a positive integer"),
    (lambda doc: doc["codewords"][1].__setitem__(3, 0.5), r"'codewords'\[1\] must be a list"),
    (lambda doc: doc["codewords"].__setitem__(2, 0.5), r"'codewords'\[2\] must be a list"),
    (lambda doc: doc.update(regions=5), r"'regions' = 5: must be a list"),
    (lambda doc: doc["codewords"][1][3].__setitem__(0, "nan"), r"'codewords'\[1\] must be"),
    (lambda doc: doc["regions"][2].update(nu_ub="inf"),
     r"'regions'\[2\] key 'nu_ub' = 'inf': must be a finite number"),
    (lambda doc: doc.update(h="-inf"), r"'h' = '-inf': must be a finite number"),
    (lambda doc: doc.update(resolutions=[4.0]),
     r"'resolutions' = \[4\.0\]: must be a list of positive integers"),
    (lambda doc: doc.update(l=doc.pop("L") // 2), r"unknown codebook .* keys at top level: l$"),
    (lambda doc: doc.update(width=1.0, note="x"),
     r"unknown codebook .* keys at top level: note, width$"),
    (lambda doc: doc["regions"][2].update(width="0.1"),
     r"unknown codebook .* 'regions'\[2\] keys at entry: width$"),
    # spellings float() takes but repr() never writes, and bools, which the
    # scenario and results-CSV readers reject too
    (lambda doc: doc.update(h="7_5"), r"'h' = '7_5': must be a finite number"),
    (lambda doc: doc.update(h=" 7.5 "), r"'h' = ' 7\.5 ': must be a finite number"),
    (lambda doc: doc.update(y_design="+8.5"), r"'y_design' = '\+8\.5': must be a finite number"),
    (lambda doc: doc["codewords"][1][3].__setitem__(0, "1E-1"), r"'codewords'\[1\] must be"),
    (lambda doc: doc.update(h=True), r"'h' = True: must be a finite number"),
    (lambda doc: doc["codewords"][1][3].__setitem__(1, True), r"'codewords'\[1\] must be"),
    (lambda doc: doc["regions"][0].update(rho_lb="-7_5"),
     r"'regions'\[0\] key 'rho_lb' = '-7_5': must be a finite number"),
], ids=["N_null", "N_zero", "N_above_M", "M_string", "entry_number", "codeword_number",
        "regions_number", "entry_nan", "region_inf", "h_inf", "resolution_float",
        "L_misspelt", "extra_key", "extra_region_key", "h_underscore", "h_spaces",
        "y_design_plus", "entry_upper_e", "h_bool", "entry_bool", "region_underscore"])
def test_load_codebook_rejects_malformed_fields(tmp_path, corrupt, field):
    book = build_codebook(GEOM, 8.5, 8, 2, 4, seed=0, workers=1)
    path = tmp_path / "book.json"
    save_codebook(book, str(path))
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=field):
        load_codebook(str(path))


def _pattern_mse(word, g):
    """The squared pattern error that fit_codeword scores a codeword by."""
    return float(np.sum((word.bp_samples - g) ** 2) * (2 * math.pi / g.shape[0]))


def test_fit_recovers_realizable_atom_pattern():
    m = 16
    d = SteeringDictionary.build(m)
    ctx = _PatternContext.get(m, 4096)
    target_bp = ctx.bp(d.atom_rows[20])
    rng = np.random.default_rng(0)
    word = fit_codeword(target_bp, m, 1, d, rng)
    assert _pattern_mse(word, target_bp) <= 1e-6


def test_fit_beats_best_single_steering_column():
    m = 16
    d = SteeringDictionary.build(m)
    dft = d.atom_rows[::4].T  # every fourth atom of the 4M grid is a DFT column
    ctx = _PatternContext.get(m, 4096)
    regions = divide_regions(GEOM, 8.5, 16)
    rng = np.random.default_rng(1)
    dft_bp = np.abs(_steering(m, 4096).conj().T @ dft) ** 2 / m
    for r in (regions[8], regions[12], regions[-1]):
        g = position_pdf_to_bp(r, 8.5, 7.5, m)
        word = fit_codeword(g, m, 4, d, rng, region=r)
        best_dft = float(
            np.min(np.sum((dft_bp - g[:, None]) ** 2, axis=0) * ctx.delta)
        )
        assert _pattern_mse(word, g) <= best_dft + 1e-12


@pytest.mark.parametrize("m,n,q,index,winner", [
    (16, 4, 16, 9, 0), (16, 4, 16, 0, 1),
    (16, 1, 16, 5, 0), (16, 1, 16, 8, 1),
    (32, 2, 8, 2, 0), (32, 2, 8, 7, 1),
])
def test_fit_without_iterations_returns_the_better_safeguard(m, n, q, index, winner):
    """With no alternating projections the fit is the hybrid approximation of
    the zero-phase target or of the best single atom, whichever has the
    lower pattern error; both are computed here from the steering matrix."""
    steering = _steering(m, 4096)
    delta = 2 * math.pi / 4096
    d = SteeringDictionary.build(m)
    g = position_pdf_to_bp(divide_regions(GEOM, 8.5, q)[index], 8.5, 7.5, m)

    def bp(u):
        return np.abs(steering.conj().T @ u) ** 2 / m

    atom_bp = bp(d.atom_rows.T).T
    atom = int(np.argmin(np.sum((atom_bp - g) ** 2, axis=1)))
    zero_phase = steering @ np.sqrt(m * g) / 4096
    refs = [hybrid_approximation(t, d, n).z for t in (zero_phase, d.atom_rows[atom])]
    errs = [np.sum((bp(z) - g) ** 2) * delta for z in refs]
    assert int(np.argmin(errs)) == winner
    word = fit_codeword(g, m, n, d, np.random.default_rng(0), iters=0)
    np.testing.assert_allclose(word.u, refs[winner], rtol=0, atol=1e-12)


def _region_target(m, grid_size, q, index):
    return position_pdf_to_bp(divide_regions(GEOM, 8.5, q)[index % q], 8.5, 7.5, m,
                              grid_size)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(m=st.integers(1, 128), extra=st.integers(0, 4096),
       q=st.sampled_from([2, 4, 8, 16, 64]), index=st.integers(0, 63))
# grids with M <= L <= 2M - 2, where the atoms' pattern energy varies with the atom
@example(m=64, extra=0, q=16, index=12)
@example(m=64, extra=1, q=64, index=63)
@example(m=64, extra=61, q=8, index=5)
@example(m=128, extra=0, q=64, index=40)
@example(m=128, extra=125, q=16, index=15)
@example(m=5, extra=2, q=4, index=3)
def test_atom_scores_match_the_steering_matrix(m, extra, q, index):
    grid_size = min(m + extra, 4096)
    d = SteeringDictionary.build(m)
    g = _region_target(m, grid_size, q, index)
    atom_bp = np.abs(_steering(m, grid_size).conj().T @ d.atom_rows.T).T ** 2 / m
    want = np.sum((atom_bp - g) ** 2, axis=1) * (2 * math.pi / grid_size)
    got = _PatternContext.get(m, grid_size).atom_mse(g, d)
    tol = 1e-12 * np.max(want)
    assert np.max(np.abs(got - want)) <= tol
    # the same argmin, up to atoms whose explicit scores tie within the tolerance
    assert int(np.argmin(got)) in np.flatnonzero(want <= want.min() + 2 * tol)


@pytest.mark.parametrize("m", [64, 128])
def test_fit_codeword_peak_memory(m):
    """A warmed fit at L = 4096 stays far below one G x L table of atom
    patterns (8 MB at M = 64)."""
    d = SteeringDictionary.build(m)
    g = _region_target(m, 4096, 16, 12)
    fit_codeword(g, m, 4, d, np.random.default_rng(0), iters=5)
    tracemalloc.start()
    try:
        fit_codeword(g, m, 4, d, np.random.default_rng(0), iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_fit_codeword_invariants():
    m = 16
    d = SteeringDictionary.build(m)
    regions = divide_regions(GEOM, 8.5, 16)
    g = position_pdf_to_bp(regions[9], 8.5, 7.5, m)
    word = fit_codeword(g, m, 4, d, np.random.default_rng(2), region=regions[9])
    assert np.linalg.norm(word.u) == pytest.approx(1.0, abs=1e-9)
    assert integrate_bp(word.bp_samples) == pytest.approx(2 * math.pi / m, rel=1e-3)
    assert word.bp_samples.max() <= 1.0 + 1e-6


@pytest.mark.parametrize("kwargs,name", [
    ({"inits": 0}, "inits"), ({"inits": -1}, "inits"), ({"iters": -3}, "iters"),
])
def test_fit_rejects_invalid_counts(kwargs, name):
    m = 16
    g = _region_target(m, 4096, 16, 3)
    with pytest.raises(ValueError, match=name):
        fit_codeword(g, m, 4, SteeringDictionary.build(m), np.random.default_rng(0), **kwargs)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=st.sampled_from([16, 32, 64, 96]), q=st.sampled_from([8, 16, 48, 64]),
       index=st.integers(0, 63), seed=st.integers(0, 2**32 - 1))
def test_convergence_stop_costs_no_fit_quality(m, q, index, seed):
    """The fit that stops once the projections settle is as good as the fit
    that runs all GS_ITERS alternations from the same starts."""
    d = SteeringDictionary.build(m)
    g = _region_target(m, 4096, q, index)
    stopped = fit_codeword(g, m, 4, d, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codebook, "_GS_TOL", 0.0)
        full = fit_codeword(g, m, 4, d, np.random.default_rng(seed))
    assert _pattern_mse(stopped, g) <= _pattern_mse(full, g) * (1.0 + 1e-12)


@pytest.mark.parametrize("m,q,index,iters,calls", [
    (16, 16, 0, GS_ITERS, 9),  # settles after 7 alternations
    (32, 16, 7, GS_ITERS, GS_ITERS + 1),  # a limit cycle: the cap stops it
    (32, 16, 7, 2 * GS_ITERS, 2 * GS_ITERS + 1),
])
def test_fit_stops_when_settled_and_at_the_cap(monkeypatch, m, q, index, iters, calls):
    """One OMP call per alternation, the settling check included, plus one
    for the safeguard block."""
    count = 0
    omp = codebook.orthogonal_matching_pursuit

    def counting(*args):
        nonlocal count
        count += 1
        return omp(*args)

    monkeypatch.setattr(codebook, "orthogonal_matching_pursuit", counting)
    g = _region_target(m, 4096, q, index)
    fit_codeword(g, m, 4, SteeringDictionary.build(m), np.random.default_rng(0), iters=iters)
    assert count == calls


def _small_book(codewords=8, m=16, seed=3):
    return build_codebook(GEOM, 8.5, m, 4, codewords, seed=seed, workers=1)


def test_build_codebook_single_resolution():
    book = _small_book()
    assert book.size == 8
    assert book.resolutions == (8,)
    checks = validate(book)
    assert checks["partition_gap"] == 0.0
    assert checks["parseval_rel_err"] <= 1e-3
    assert checks["bp_peak"] <= 1.0 + 1e-6


def test_build_codebook_multiresolution():
    book = _small_book(codewords=[4, 8])
    assert book.size == 12
    assert book.resolutions == (4, 8)
    slices = book.resolution_slices()
    assert [s.stop - s.start for s in slices] == [4, 8]
    checks = validate(book)
    assert checks["partition_gap"] == 0.0


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    m=st.integers(4, 24),
    q=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**16),
)
@example(m=16, q=8, seed=3)
def test_codebook_json_roundtrip_bitstable(m, q, seed):
    book = build_codebook(GEOM, 8.5, m, min(4, m), q, seed=seed, workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        path, path2 = os.path.join(tmp, "book.json"), os.path.join(tmp, "book2.json")
        save_codebook(book, path)
        loaded = load_codebook(path)
        assert loaded.size == book.size
        for a, b in zip(book.codewords, loaded.codewords):
            assert np.all(a.u == b.u)  # exact bits via repr round-trip
            assert a.region.nu_lb == b.region.nu_lb
            np.testing.assert_allclose(a.bp_samples, b.bp_samples, atol=1e-15)
        save_codebook(loaded, path2)
        with open(path, "rb") as fh, open(path2, "rb") as fh2:
            assert fh.read() == fh2.read()


def test_build_codebook_deterministic():
    b1 = _small_book(seed=7)
    b2 = _small_book(seed=7)
    for a, b in zip(b1.codewords, b2.codewords):
        assert np.all(a.u == b.u)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    m=st.integers(4, 24),
    q=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**16),
)
@example(m=16, q=8, seed=5)
def test_parallel_build_matches_serial(m, q, seed):
    saved = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 2):
            book = build_codebook(GEOM, 8.5, m, min(4, m), q, seed=seed, workers=workers)
            path = os.path.join(tmp, f"book{workers}.json")
            save_codebook(book, path)
            with open(path, "rb") as fh:
                saved.append(fh.read())
    assert saved[0] == saved[1]


def test_bench_book_is_the_fitted_book():
    """The committed benchmark book is the gain_m64 book fitted today, up to
    one unit-modulus factor per codeword."""
    fixture = load_codebook(BENCH_BOOK)
    built = build_codebook(GEOM, 8.5, 64, 4, 64, seed=1, workers=2)
    assert fixture.resolutions == built.resolutions
    for a, b in zip(fixture.codewords, built.codewords, strict=True):
        assert a.region == b.region
        assert abs(abs(np.vdot(a.u, b.u)) - 1.0) <= 1e-12
        np.testing.assert_allclose(a.bp_samples, b.bp_samples, rtol=0, atol=1e-10)


def _word(value):
    return Codeword(u=np.full(4, value), region=BeamRegion(0.0, 1.0, 0.0, 1.0),
                    bp_samples=np.full(8, value))


# Dataclasses that hold arrays compare and hash by identity, so they can key
# functools caches and sit in sets; field-wise == would compare the arrays.
@pytest.mark.parametrize("make", [
    lambda i: SteeringDictionary.build(8 + i),
    lambda i: Combiner(z=np.ones(4)),
    lambda i: Sounding(r=1j, z=np.ones(4), noise_var=0.5),
    lambda i: StateBelief(mean=np.zeros(3), cov=np.eye(3)),
    lambda i: _word(1.0),
    lambda i: Codebook(4, 1, 8.5, 7.5, (1,), (_word(1.0),)),
    lambda i: LongTermTransition(np.eye(3), np.zeros(3), np.eye(3)),
], ids=["SteeringDictionary", "Combiner", "Sounding", "StateBelief", "Codeword",
        "Codebook", "LongTermTransition"])
def test_array_dataclasses_compare_by_identity(make):
    a, b = make(0), make(1)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
