import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ivda import (
    Degenerate,
    IntervalFrame,
    InvertedTriangular,
    Kde,
    ShiftedBeta,
    Triangular,
    TruncatedNormal,
    Uniform,
    VariableMicrodata,
    correlation_from_cov,
    correlation_matrix,
    cov_model7,
    covariance_quantile_oracle,
    cross_moment,
    dist_sq_box,
    empirical_moment_summary,
    frechet_variance,
    frobenius_diff,
    jacobi_eigenvalues,
    oracle_dist_sq,
    sample_barycentre,
    symbolic_covariance,
)
from ivda._families import _cache_clear, _cached_cross_moment
from ivda.errors import DataValidationError, DomainError, NumericFailure
from ivda.moments import _closed_cross_moment

from conftest import ALL_FAMILIES, make_frame, make_latent, make_mixed_frame


def two_row_uniform_frame():
    return IntervalFrame([[0.0], [2.0]], [[2.0], [4.0]], ("x",), latents=(Uniform(),))


# --- hand linear algebra -----------------------------------------------------

def test_jacobi_on_known_matrices():
    assert np.allclose(jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])
    # 2x2 with analytic eigenvalues 1 and 3
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(jacobi_eigenvalues(m), [1.0, 3.0], atol=1e-12)
    with pytest.raises(DomainError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_matches_characteristic_roots(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        sym = 0.5 * (a + a.T)
        eigs = jacobi_eigenvalues(sym)
        # trace and Frobenius norm are eigenvalue invariants
        assert math.fsum(eigs) == pytest.approx(np.trace(sym), abs=1e-10)
        assert math.fsum(e * e for e in eigs) == pytest.approx(np.sum(sym * sym), abs=1e-9)


# --- barycentre ---------------------------------------------------------------

def test_barycentre_two_rows():
    bary = sample_barycentre(two_row_uniform_frame())
    iv = bary.box.intervals[0]
    assert (iv.lower, iv.upper) == (1.0, 3.0)
    assert bary.frechet_variance == pytest.approx(1.0, abs=1e-14)


def test_barycentre_single_row_is_itself():
    frame = IntervalFrame([[1.0, -2.0]], [[4.0, 0.0]], ("a", "b"),
                          latents=(Uniform(), Uniform()))
    bary = sample_barycentre(frame)
    assert [iv.lower for iv in bary.box.intervals] == [1.0, -2.0]
    assert [iv.upper for iv in bary.box.intervals] == [4.0, 0.0]
    assert bary.frechet_variance == 0.0


def test_barycentre_is_componentwise_means(rng):
    frame = make_frame(rng, 12, 3)
    bary = sample_barycentre(frame)
    c, r = frame.centres_ranges()
    assert np.array_equal(bary.centres, c.mean(axis=0))
    assert np.array_equal(bary.ranges, r.mean(axis=0))
    # the box view agrees to the last couple of bits
    assert np.allclose([iv.centre for iv in bary.box.intervals], bary.centres,
                       rtol=1e-15, atol=1e-15)


def test_barycentre_degenerate_column_keeps_zero_range():
    frame = IntervalFrame([[0.0, 1.0], [2.0, 3.0]], [[2.0, 1.0], [4.0, 3.0]],
                          ("x", "d"), latents=(Uniform(), Degenerate()))
    bary = sample_barycentre(frame)
    assert bary.box.intervals[1].range == 0.0


def test_frechet_variance_equals_mean_squared_distance(rng):
    for _ in range(30):
        frame = make_frame(rng, int(rng.integers(2, 12)), int(rng.integers(1, 4)))
        bary = sample_barycentre(frame)
        trace_form = frechet_variance(frame)
        direct = math.fsum(dist_sq_box(frame.row_box(i), bary.box)
                           for i in range(frame.n)) / frame.n
        assert abs(trace_form - direct) < 1e-9


def test_frechet_variance_is_bitwise_fsum_of_box_distances(rng):
    for n in (1, 2, 9, 40):
        frame = make_mixed_frame(rng, n)
        bary = sample_barycentre(frame)
        direct = math.fsum(dist_sq_box(frame.row_box(i), bary.box)
                           for i in range(frame.n)) / frame.n
        assert bary.frechet_variance == direct


def test_frechet_variance_constant_frame_is_zero():
    frame = IntervalFrame([[1.0]] * 4, [[3.0]] * 4, ("x",), latents=(Uniform(),))
    assert frechet_variance(frame) == pytest.approx(0.0, abs=1e-15)


def test_barycentre_first_order_optimality(rng):
    frame = make_frame(rng, 10, 2)
    bary = sample_barycentre(frame)
    c, r = frame.centres_ranges()
    summary_delta = [lat.second_moment / 4.0 for lat in frame.latents]
    summary_psi = [lat.mean for lat in frame.latents]

    def objective(cb, rb):
        total = 0.0
        for i in range(frame.n):
            for j in range(frame.p):
                dc = c[i, j] - cb[j]
                dr = r[i, j] - rb[j]
                total += dc * dc + summary_delta[j] * dr * dr + summary_psi[j] * dc * dr
        return total / frame.n

    cb = np.array([iv.centre for iv in bary.box.intervals])
    rb = np.array([iv.range for iv in bary.box.intervals])
    base = objective(cb, rb)
    for eps in (1e-3, 1e-2):
        for j in range(frame.p):
            for sign in (1.0, -1.0):
                cb2 = cb.copy()
                cb2[j] += sign * eps
                assert objective(cb2, rb) > base
                rb2 = rb.copy()
                rb2[j] += sign * eps
                assert objective(cb, rb2) > base


def test_empty_frame_errors():
    frame = two_row_uniform_frame()
    with pytest.raises(DataValidationError):
        symbolic_covariance(IntervalFrame([[0.0]], [[1.0]], ("x",), latents=(Uniform(),)))
    assert sample_barycentre(frame) is not None


# --- symbolic covariance -------------------------------------------------------

def test_two_row_variance():
    cov = symbolic_covariance(two_row_uniform_frame())
    # Var(C) + Var(R)/12 = 1 + 0
    assert cov.sigma_b[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert cov.divisor == "n"


def test_identical_triangular_shortcut_matches_quarter_srr(rng):
    frame = make_frame(rng, 15, 4, families=("triangular",))
    frame = frame.with_latents((Triangular(0.0),) * 4)
    cov = symbolic_covariance(frame)
    expected = cov.sigma_cc + cov.sigma_rr / 24.0
    assert np.max(np.abs(cov.sigma_b - expected)) < 1e-14


def test_identical_uniform_shortcut_matches_twelfth_srr(rng):
    frame = make_frame(rng, 9, 3)
    frame = frame.with_latents((Uniform(),) * 3)
    cov = symbolic_covariance(frame)
    expected = cov.sigma_cc + cov.sigma_rr / 12.0
    assert np.max(np.abs(cov.sigma_b - expected)) < 1e-14


def test_shortcut_equals_general_formula(rng):
    # identical asymmetric latents: the shortcut with the mean cross term
    # must equal the general Schur-product route
    frame = make_frame(rng, 8, 3).with_latents((Triangular(0.4),) * 3)
    cov = symbolic_covariance(frame)
    summary = cov.summary
    psi = np.diag(summary.psi)
    general = (cov.sigma_cc + 0.25 * summary.euu * cov.sigma_rr
               + 0.5 * cov.sigma_cr @ psi + 0.5 * psi @ cov.sigma_cr.T)
    assert np.max(np.abs(cov.sigma_b - general)) < 1e-13


def test_sigma_b_symmetric_and_trace_identity(rng):
    for _ in range(20):
        frame = make_frame(rng, int(rng.integers(3, 10)), int(rng.integers(1, 5)),
                           families=ALL_FAMILIES)
        cov = symbolic_covariance(frame)
        assert np.array_equal(cov.sigma_b, cov.sigma_b.T)
        assert np.all(np.diag(cov.sigma_b) >= -1e-12)
        assert abs(math.fsum(np.diag(cov.sigma_b)) - frechet_variance(frame)) < 1e-10


# a fixed pool keeps the cross-moment cache warm across examples
_LATENT_POOL = (Uniform(), Triangular(0.4), Triangular(-0.7), InvertedTriangular(),
                TruncatedNormal(0.2), ShiftedBeta(0.44, 2.15),
                Kde(np.random.default_rng(5).uniform(-1.0, 1.0, size=60)), Degenerate())


@st.composite
def _pooled_frames(draw):
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 5))
    if draw(st.booleans()):
        latents = (draw(st.sampled_from(_LATENT_POOL)),) * p
    else:
        latents = tuple(draw(st.lists(st.sampled_from(_LATENT_POOL), min_size=p, max_size=p)))
    offset = draw(st.sampled_from([0.0, 1e3, 1e8]))
    spread = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    c = offset + spread * draw(hnp.arrays(np.float64, (n, p), elements=st.floats(-1.0, 1.0)))
    r = draw(hnp.arrays(np.float64, (n, p), elements=st.floats(1e-3, 10.0)))
    r[:, [isinstance(lat, Degenerate) for lat in latents]] = 0.0
    return IntervalFrame(c - 0.5 * r, c + 0.5 * r, tuple(f"v{j}" for j in range(p)),
                         latents=latents)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_pooled_frames())
def test_closed_forms_agree_on_pooled_frames(frame):
    cov = symbolic_covariance(frame)
    mean_cross = cov.sigma_cr * cov.summary.psi
    explicit = (cov.sigma_cc + 0.25 * (cov.summary.euu * cov.sigma_rr)
                + 0.5 * (mean_cross + mean_cross.T))
    assert np.array_equal(cov.sigma_b, explicit)
    assert np.array_equal(cov.sigma_b, cov.sigma_b.T)
    vf = frechet_variance(frame)
    bound = 1e-12 * max(1.0, vf)
    assert abs(math.fsum(np.diag(cov.sigma_b)) - vf) <= bound
    assert abs(sample_barycentre(frame).frechet_variance - vf) <= bound


def test_degenerate_column_contributes_centre_covariances_only():
    rng = np.random.default_rng(4)
    lower = rng.uniform(-2, 0, size=(8, 2))
    upper = lower + rng.uniform(0.5, 2, size=(8, 2))
    lower[:, 1] = upper[:, 1] = rng.uniform(0, 1, size=8)   # zero-range column
    frame = IntervalFrame(lower, upper, ("x", "d"), latents=(Uniform(), Degenerate()))
    cov = symbolic_covariance(frame)
    assert cov.sigma_b[0, 1] == pytest.approx(cov.sigma_cc[0, 1], abs=1e-14)
    assert cov.sigma_b[1, 1] == pytest.approx(cov.sigma_cc[1, 1], abs=1e-14)


def test_covariance_reports_minimum_eigenvalue_but_does_not_assert_psd(rng):
    frame = make_frame(rng, 6, 3)
    cov = symbolic_covariance(frame)
    eigs = jacobi_eigenvalues(cov.sigma_b)
    assert eigs.shape == (3,)


def test_ddof1_mode_is_labelled(rng):
    frame = make_frame(rng, 6, 2)
    cov0 = symbolic_covariance(frame)
    cov1 = symbolic_covariance(frame, ddof=1)
    assert cov1.divisor == "n-1"
    assert np.allclose(cov1.sigma_b * (frame.n - 1) / frame.n, cov0.sigma_b)


# --- quantile-integral oracle ---------------------------------------------------

def test_oracle_constant_column_is_zero():
    frame = IntervalFrame([[0.0], [0.0]], [[2.0], [2.0]], ("x",), latents=(Uniform(),))
    assert covariance_quantile_oracle(frame, 0, 0) == pytest.approx(0.0, abs=1e-12)


def test_oracle_two_row_variance():
    assert covariance_quantile_oracle(two_row_uniform_frame(), 0, 0) == \
        pytest.approx(1.0, abs=1e-8)


def test_oracle_matches_closed_form(rng):
    frames = [make_frame(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
              for _ in range(25)]
    for frame in frames + [make_mixed_frame(rng, 200)]:
        cov = symbolic_covariance(frame)
        for i in range(frame.p):
            for j in range(i, frame.p):
                oracle = covariance_quantile_oracle(frame, i, j)
                assert abs(oracle - cov.sigma_b[i, j]) < 1e-8


def test_oracles_never_touch_the_closed_forms(rng, monkeypatch):
    frame = make_mixed_frame(rng, 12)
    sigma = symbolic_covariance(frame).sigma_b
    rows = frame.row_box(0), frame.row_box(1)
    dist_sq = dist_sq_box(*rows)

    def closed_form(*args, **kwargs):
        raise AssertionError("an oracle reached the closed-form path")

    for target in ("ivda.latent.cross_moment", "ivda.mallows.cross_moment",
                   "ivda.moments.cross_moment", "ivda.mallows._latent_moments",
                   "ivda._engine._latent_moments", "ivda.moments._latent_moments",
                   "ivda._barycentre._latent_moments", "ivda._engine._dist_sq_columns",
                   "ivda._barycentre._dist_sq_columns",
                   "ivda.moments.MomentSummary.from_latents",
                   "ivda._families._cached_cross_moment", "ivda.moments._table_rule"):
        monkeypatch.setattr(target, closed_form)
    for i in range(frame.p):
        for j in range(i, frame.p):
            assert abs(covariance_quantile_oracle(frame, i, j) - sigma[i, j]) < 1e-8
    oracle = math.fsum(oracle_dist_sq(x1, u, x2, u) for x1, x2, u in
                       zip(rows[0].intervals, rows[1].intervals, frame.latents))
    assert abs(oracle - dist_sq) < 1e-7


def test_no_library_path_reaches_the_adaptive_integrator(rng, monkeypatch):
    # quadrature.integrate stays for the benchmark's quadrature probe only
    def adaptive(*args, **kwargs):
        raise AssertionError("a library path reached quadrature.integrate")

    for target in ("ivda.quadrature.integrate", "ivda.quadrature._refine"):
        monkeypatch.setattr(target, adaptive)
    _cache_clear()
    symbolic_covariance(make_mixed_frame(rng, 12))
    empirical_moment_summary([VariableMicrodata(name="a", sample=rng.uniform(-0.8, 0.8, 200)),
                              VariableMicrodata(name="b", latent=Triangular(-0.3))])
    for f1, f2 in itertools.combinations_with_replacement(ALL_FAMILIES, 2):
        d1, d2 = make_latent(rng, f1), make_latent(rng, f2)
        if _closed_cross_moment(d1, d2) is None:
            assert math.isfinite(cross_moment(d1, d2))


# --- correlation -----------------------------------------------------------------

def test_correlation_unit_diagonal_and_bounds(rng):
    frame = make_frame(rng, 10, 4)
    corr = correlation_from_cov(symbolic_covariance(frame))
    assert np.all(np.diag(corr) == 1.0)
    assert np.all(np.abs(corr) <= 1.0 + 1e-10)


def test_correlation_diagonal_covariance_gives_identity():
    frame = IntervalFrame(
        [[0.0, 10.0], [1.0, 10.0], [0.0, 12.0], [1.0, 12.0]],
        [[2.0, 11.0], [3.0, 11.0], [2.0, 13.0], [3.0, 13.0]],
        ("a", "b"), latents=(Uniform(), Uniform()))
    cov = symbolic_covariance(frame)
    assert abs(cov.sigma_b[0, 1]) < 1e-14
    assert np.allclose(correlation_from_cov(cov), np.eye(2))


def test_correlation_zero_variance_names_variable():
    frame = IntervalFrame([[1.0, 0.0], [1.0, 1.0]], [[3.0, 2.0], [3.0, 3.0]],
                          ("flat", "ok"), latents=(Uniform(), Uniform()))
    with pytest.raises(NumericFailure, match="flat"):
        correlation_from_cov(symbolic_covariance(frame))


# --- comparison estimator ---------------------------------------------------------

def test_cov_model7_off_diagonal_is_centre_covariance(rng):
    frame = make_frame(rng, 12, 3)
    sigma7 = cov_model7(frame)
    cov = symbolic_covariance(frame)
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(sigma7[off], cov.sigma_cc[off])


def test_cov_model7_zero_range_frame_is_centre_covariance():
    rng = np.random.default_rng(9)
    c = rng.uniform(0, 1, size=(6, 2))
    frame = IntervalFrame(c, c, ("a", "b"), latents=(Degenerate(), Degenerate()))
    sigma7 = cov_model7(frame)
    cov = symbolic_covariance(frame)
    assert np.allclose(sigma7, cov.sigma_cc, atol=1e-15)


# --- frobenius ---------------------------------------------------------------------

def test_frobenius_examples(rng):
    assert frobenius_diff(np.eye(3), np.eye(3)) == 0.0
    assert frobenius_diff(np.eye(2), np.zeros((2, 2))) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(DomainError):
        frobenius_diff(np.eye(2), np.eye(3))
    # a synthetic estimator comparison reports a positive value
    frame = make_frame(rng, 10, 3)
    corr_b = correlation_from_cov(symbolic_covariance(frame))
    sigma7 = cov_model7(frame)
    d7 = np.sqrt(np.diag(sigma7))
    corr_7 = sigma7 / np.outer(d7, d7)
    value = frobenius_diff(corr_b, corr_7)
    assert value > 0.0
    assert round(value, 3) == pytest.approx(value, abs=5e-4)


@pytest.mark.parametrize("lower, upper", [
    ([[1e308], [1e308]], [[1.7e308], [1.7e308]]),
    ([[-1.7e308], [0.0]], [[1.7e308], [1.0]]),
], ids=["centre-mean-overflows", "range-overflows"])
def test_overflowing_moments_raise_without_warnings(lower, upper):
    frame = IntervalFrame(lower, upper, ("x",), latents=(Uniform(),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimator in (symbolic_covariance, frechet_variance, sample_barycentre, cov_model7):
            with pytest.raises(NumericFailure, match="not finite: the data overflow"):
                estimator(frame)


def test_non_finite_covariance_has_no_correlation():
    # the unit diagonal must not hide a NaN variance
    cov = symbolic_covariance(two_row_uniform_frame())
    for sigma in ([[np.nan]], [[np.inf]], [[1.0, np.nan], [np.nan, 1.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="correlation is not finite"):
                correlation_matrix(sigma)
    broken = type(cov)(np.array([[np.nan]]), cov.sigma_cc, cov.sigma_rr, cov.sigma_cr,
                       cov.summary, cov.names)
    with pytest.raises(NumericFailure, match="correlation is not finite"):
        correlation_from_cov(broken)
