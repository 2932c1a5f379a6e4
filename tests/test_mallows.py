import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ivda import (
    Box,
    Degenerate,
    Interval,
    IntervalFrame,
    Triangular,
    Uniform,
    cov_model7,
    covariance_quantile_oracle,
    dist_sq_box,
    dist_sq_general,
    dist_sq_iid,
    dist_sq_mahalanobis,
    dist_sq_musigma,
    dist_sq_symmetric,
    distance_matrix,
    frechet_variance,
    iso_distance_set,
    mahalanobis_form,
    oracle_dist_sq,
    reduced_vector,
    sample_barycentre,
    symbolic_covariance,
)
from ivda._engine import _ROW_BLOCK
from ivda.errors import DomainError, NumericFailure
from ivda.mallows import MomentSummary
from ivda.moments import jacobi_eigenvalues

from conftest import make_interval_arrays, make_latent, make_mixed_frame


def random_interval(rng, scale=4.0):
    c = float(rng.uniform(-5.0, 5.0))
    r = float(rng.uniform(0.0, scale))
    return Interval.from_centre_range(c, r)


# --- univariate forms -------------------------------------------------------

def test_identity_distance_is_zero():
    x = Interval(0.0, 2.0)
    assert dist_sq_general(x, Uniform(), x, Uniform()) == 0.0
    assert dist_sq_musigma(x, Uniform(), x, Uniform()) == 0.0
    assert dist_sq_iid(x, x, Triangular(0.3)) == 0.0


def test_uniform_vs_symmetric_triangular_example():
    # both intervals [-1, 1]: squared distance 1/3 + 1/6 - 2 * 7/30 = 1/30
    x = Interval(-1.0, 1.0)
    u, t0 = Uniform(), Triangular(0.0)
    assert dist_sq_general(x, u, x, t0) == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert dist_sq_musigma(x, u, x, t0) == pytest.approx(1.0 / 30.0, abs=1e-12)
    assert oracle_dist_sq(x, u, x, t0) == pytest.approx(1.0 / 30.0, abs=1e-7)


def test_interval_versus_point():
    # point 3 carries zero range and the degenerate latent
    d = dist_sq_general(Interval(0.0, 2.0), Uniform(), Interval(3.0, 3.0), Degenerate())
    assert d == pytest.approx(13.0 / 3.0, abs=1e-12)
    d2 = dist_sq_musigma(Interval(0.0, 2.0), Uniform(), Interval(3.0, 3.0), Degenerate())
    assert d2 == pytest.approx(13.0 / 3.0, abs=1e-12)


def test_iid_examples():
    a, b = Interval(-3.0, 5.0), Interval(0.0, 2.0)
    assert dist_sq_iid(a, b, Uniform()) == pytest.approx(3.0, abs=1e-12)
    assert dist_sq_iid(a, b, Triangular(0.0)) == pytest.approx(1.5, abs=1e-12)


def test_iid_asymmetric_triangular_matches_oracle():
    # dc = 1, dr = 2 under a mode-0.6 triangular latent
    latent = Triangular(0.6)
    x1 = Interval.from_centre_range(1.0, 3.0)
    x2 = Interval.from_centre_range(0.0, 1.0)
    expected = 1.0 + (0.36 + 1.0) / 6.0 + 0.2 * 1.0 * 2.0
    assert dist_sq_iid(x1, x2, latent) == pytest.approx(expected, abs=1e-12)
    assert oracle_dist_sq(x1, latent, x2, latent) == pytest.approx(expected, abs=1e-7)


def test_symmetric_delta_form():
    a, b = Interval(-3.0, 5.0), Interval(0.0, 2.0)
    assert dist_sq_symmetric(a, b, 1.0 / 12.0) == pytest.approx(3.0, abs=1e-12)
    assert dist_sq_symmetric(a, b, 0.0) == 0.0  # centres coincide
    assert dist_sq_symmetric(a, a, 0.2) == 0.0
    with pytest.raises(DomainError):
        dist_sq_symmetric(a, b, 0.3)


def test_form_equivalence_on_random_pairs(rng):
    for _ in range(300):
        u1 = make_latent(rng)
        u2 = make_latent(rng)
        x1, x2 = random_interval(rng), random_interval(rng)
        general = dist_sq_general(x1, u1, x2, u2)
        musigma = dist_sq_musigma(x1, u1, x2, u2)
        assert abs(general - musigma) < 1e-10


def test_general_matches_oracle_on_random_pairs(rng):
    for _ in range(60):
        u1 = make_latent(rng)
        u2 = make_latent(rng)
        x1, x2 = random_interval(rng), random_interval(rng)
        general = dist_sq_general(x1, u1, x2, u2)
        oracle = oracle_dist_sq(x1, u1, x2, u2)
        assert abs(general - oracle) < 1e-7


def test_metric_axioms_small(rng):
    latent = Triangular(-0.4)
    for _ in range(200):
        xa, xb, xc = (random_interval(rng) for _ in range(3))
        dab = math.sqrt(dist_sq_iid(xa, xb, latent))
        dba = math.sqrt(dist_sq_iid(xb, xa, latent))
        assert dab == dba
        dac = math.sqrt(dist_sq_iid(xa, xc, latent))
        dbc = math.sqrt(dist_sq_iid(xb, xc, latent))
        assert dac <= dab + dbc + 1e-9


# --- boxes ------------------------------------------------------------------

def test_box_distance_examples():
    u = Uniform()
    b1 = Box((Interval.from_centre_range(0, 2), Interval.from_centre_range(0, 1)),
             (u, u))
    b2 = Box((Interval.from_centre_range(1, 4), Interval.from_centre_range(2, 1)),
             (u, u))
    # centre diffs (1, 2), range diffs (2, 0)
    assert dist_sq_box(b1, b2) == pytest.approx(1.0 + 4.0 + 4.0 / 12.0, abs=1e-12)
    assert dist_sq_box(b1, b1) == 0.0


def test_box_p1_reduces_to_iid(rng):
    for _ in range(20):
        latent = make_latent(rng)
        x1, x2 = random_interval(rng), random_interval(rng)
        b1 = Box((x1,), (latent,))
        b2 = Box((x2,), (latent,))
        assert dist_sq_box(b1, b2) == dist_sq_iid(x1, x2, latent)


def test_box_mixed_latents_fall_back_to_general():
    x1, x2 = Interval(0.0, 2.0), Interval(1.0, 5.0)
    b1 = Box((x1,), (Uniform(),))
    b2 = Box((x2,), (Triangular(0.0),))
    assert dist_sq_box(b1, b2) == dist_sq_general(x1, Uniform(), x2, Triangular(0.0))


def test_box_dimension_mismatch():
    u = Uniform()
    b1 = Box((Interval(0, 1),), (u,))
    b2 = Box((Interval(0, 1), Interval(0, 1)), (u, u))
    with pytest.raises(DomainError):
        dist_sq_box(b1, b2)


def test_box_matrix_form_identity(rng):
    for _ in range(50):
        p = int(rng.integers(1, 5))
        latents = tuple(make_latent(rng) for _ in range(p))
        summary = MomentSummary.from_latents(latents)
        ivs1 = tuple(random_interval(rng) for _ in range(p))
        ivs2 = tuple(random_interval(rng) for _ in range(p))
        b1, b2 = Box(ivs1, latents), Box(ivs2, latents)
        dc = b1.centres - b2.centres
        dr = b1.ranges - b2.ranges
        matrix_form = float(dc @ dc + dr @ (summary.delta * dr) + dc @ (summary.psi * dr))
        assert abs(dist_sq_box(b1, b2) - matrix_form) < 1e-10


# --- Mahalanobis form -------------------------------------------------------

def test_mahalanobis_uniform_p1():
    form = mahalanobis_form((Uniform(),))
    assert np.allclose(form.h, [[1.0, 0.0], [0.0, 1.0 / 12.0]])
    assert np.allclose(form.h_inverse, [[1.0, 0.0], [0.0, 12.0]])
    assert np.allclose(form.q, [[12.0]])


def test_mahalanobis_asymmetric_triangular_p1():
    form = mahalanobis_form((Triangular(0.6),))
    delta = (0.36 + 1.0) / 24.0
    assert np.allclose(form.h, [[1.0, 0.1], [0.1, delta]], atol=1e-15)
    variance = (0.36 + 3.0) / 18.0
    assert np.allclose(form.q, [[4.0 / variance]])
    assert np.max(np.abs(form.h @ form.h_inverse - np.eye(2))) < 1e-10


def test_mahalanobis_degenerate_reduction():
    form = mahalanobis_form((Uniform(), Degenerate()))
    assert form.kept_indices == (0, 1, 2)
    assert form.h.shape == (4, 4)
    assert form.h_reduced.shape == (3, 3)
    assert form.h_inverse is None and form.q is None
    eigs = jacobi_eigenvalues(form.h)
    assert abs(eigs[0]) <= 1e-12          # one exact zero per degenerate dim
    assert eigs[1] > 0.0


def test_mahalanobis_equals_box_distance(rng):
    for _ in range(100):
        p = int(rng.integers(1, 5))
        latents = tuple(make_latent(rng) for _ in range(p))
        form = mahalanobis_form(latents)
        ivs1 = tuple(random_interval(rng) for _ in range(p))
        ivs2 = tuple(random_interval(rng) for _ in range(p))
        b1, b2 = Box(ivs1, latents), Box(ivs2, latents)
        got = dist_sq_mahalanobis(reduced_vector(b1, form), reduced_vector(b2, form), form)
        assert abs(got - dist_sq_box(b1, b2)) < 1e-10


def test_mahalanobis_positive_definite(rng):
    for _ in range(20):
        p = int(rng.integers(1, 5))
        latents = tuple(make_latent(rng) for _ in range(p))
        form = mahalanobis_form(latents)
        assert np.min(jacobi_eigenvalues(form.h)) > 0.0
        assert np.max(np.abs(form.h @ form.h_inverse - np.eye(2 * p))) < 1e-10


def test_mahalanobis_shape_mismatch():
    form = mahalanobis_form((Uniform(),))
    with pytest.raises(DomainError):
        dist_sq_mahalanobis(np.zeros(3), np.zeros(3), form)


# --- oracle -----------------------------------------------------------------

def test_oracle_identical_inputs_is_zero():
    x = Interval(-2.0, 7.0)
    assert oracle_dist_sq(x, Uniform(), x, Uniform()) == pytest.approx(0.0, abs=1e-14)


# --- iso-distance sets -------------------------------------------------------

def test_iso_distance_contains_known_points():
    x0 = Interval(-3.0, 5.0)
    points = iso_distance_set(x0, delta=1.0 / 12.0, radius=1.0, n_points=360)
    # (c, r) = (2, 8) at angle zero
    assert np.min(np.abs(points[:, 0] - 2.0) + np.abs(points[:, 1] - 8.0)) < 1e-9
    # (c, r) = (1, 8 + sqrt(12)) at the top of the ellipse
    target = np.abs(points[:, 0] - 1.0) + np.abs(points[:, 1] - (8.0 + math.sqrt(12.0)))
    assert np.min(target) < 1e-9


def test_iso_distance_nesting_in_r():
    x0 = Interval(-3.0, 5.0)
    r24 = iso_distance_set(x0, delta=1.0 / 24.0, radius=1.0)[:, 1]
    r12 = iso_distance_set(x0, delta=1.0 / 12.0, radius=1.0)[:, 1]
    # the lower-variance latent stretches the ellipse in the range direction
    assert r24.max() > r12.max()
    assert r24.min() < r12.min()


def test_iso_distance_clips_negative_ranges():
    points = iso_distance_set(Interval(0.0, 1.0), delta=0.01, radius=1.0)
    assert np.all(points[:, 1] >= 0.0)


def test_iso_distance_domain():
    with pytest.raises(DomainError):
        iso_distance_set(Interval(0, 1), delta=0.0, radius=1.0)
    with pytest.raises(DomainError):
        iso_distance_set(Interval(0, 1), delta=0.1, radius=0.0)


# --- distance matrices --------------------------------------------------------

def test_distance_matrix_properties(rng):
    n = 2 * _ROW_BLOCK + 5          # three row blocks, the last one ragged
    lower = rng.uniform(-3, 0, size=(n, 3))
    upper = lower + rng.uniform(0.1, 2, size=(n, 3))
    frame = IntervalFrame(lower, upper, ("a", "b", "c"),
                          latents=(Uniform(), Triangular(0.2), Uniform()))
    d1 = distance_matrix(frame)
    assert d1.shape == (n, n)
    assert np.array_equal(d1, d1.T)
    assert np.all(np.diag(d1) == 0.0)
    # threads= is accepted and has no effect
    assert np.array_equal(d1, distance_matrix(frame, threads=2))


def test_distance_matrix_is_bitwise_the_scalar_box_loop(rng):
    # one, two and three row blocks, full and ragged, on the triangle fill
    for n in (1, 2, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 5):
        frame = make_mixed_frame(rng, n)
        boxes = [frame.row_box(i) for i in range(n)]
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                expected[i, j] = expected[j, i] = math.sqrt(dist_sq_box(boxes[i], boxes[j]))
        assert np.array_equal(distance_matrix(frame), expected)


def test_distance_matrix_temporaries_stay_within_a_few_row_blocks(rng):
    # the output plus at most eight _ROW_BLOCK x n buffers
    n = 1000
    lower, upper = make_interval_arrays(rng, n, 4)
    frame = IntervalFrame(lower, upper, ("a", "b", "c", "d"),
                          latents=(Uniform(), Triangular(0.2), Uniform(), Triangular(-0.5)))
    tracemalloc.start()
    try:
        distance_matrix(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + 8 * 8 * _ROW_BLOCK * n


@pytest.mark.parametrize("latent", [Triangular(-0.9), Uniform()])
def test_overflowing_distance_raises(latent):
    # dr * dr overflows: an inf, or inf - inf = nan, must not become 0 or inf
    frame = IntervalFrame(np.array([[-1e200], [-1e154]]),
                          np.array([[1e200], [-1e154 + 1e140]]), ("x",), latents=(latent,))
    with pytest.raises(NumericFailure, match="not finite"):
        distance_matrix(frame)
    with pytest.raises(NumericFailure, match="not finite"):
        sample_barycentre(frame)
    with pytest.raises(NumericFailure, match="not finite"), \
            np.errstate(over="ignore", invalid="ignore"):
        dist_sq_box(frame.row_box(0), frame.row_box(1))
    # dc * dc overflows with dr = 0; with Uniform's psi = 0 the engine skips
    # the psi * dc * dr term and the clamp, and the inf must still be refused
    far = IntervalFrame([[-2.0 ** 664], [2.0 ** 664]],
                        [[-2.0 ** 664 + 2.0 ** 620], [2.0 ** 664 + 2.0 ** 620]], ("x",),
                        latents=(latent,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (distance_matrix, sample_barycentre):
            with pytest.raises(NumericFailure, match="not finite"):
                call(far)
    # finite bounds whose range overflows still pass the row check
    wide = IntervalFrame([[-1e308]], [[1e308]], ("x",), latents=(latent,))
    with np.errstate(over="ignore"):
        assert wide.checked_centres_ranges()[1][0, 0] == np.inf


def test_bounds_whose_sum_overflows_have_a_finite_centre():
    # 1e308 + 1.7e308 overflows, but the centre and every distance are finite
    frame = IntervalFrame([[1e308], [1e308]], [[1.7e308], [1.7e308]], ("x",),
                          latents=(Uniform(),))
    centre = 0.5 * 1e308 + 0.5 * 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frame.centres_ranges()[0].tolist() == [[centre], [centre]]
        assert distance_matrix(frame).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert Interval(np.float64(1e308), np.float64(1.7e308)).centre == centre
        assert frame.row_box(0).centres.tolist() == [centre]
        assert dist_sq_box(frame.row_box(0), frame.row_box(1)) == 0.0


def test_distance_side_forms_never_touch_cross_moments(rng, monkeypatch):
    # only the covariance reads E_UU; the distances need psi and delta alone
    def refuse(d1, d2):
        raise AssertionError(f"cross moment of {d1!r} and {d2!r} requested")

    monkeypatch.setattr("ivda.mallows.cross_moment", refuse)
    monkeypatch.setattr("ivda.moments.cross_moment", refuse)
    frame = make_mixed_frame(rng, 9)
    assert distance_matrix(frame).shape == (9, 9)
    assert sample_barycentre(frame).frechet_variance > 0.0
    assert frechet_variance(frame) > 0.0
    assert mahalanobis_form(frame.latents).p == frame.p


@pytest.mark.parametrize("case, message", [
    ("infinite upper", "a non-finite bound"),
    ("nan lower", "a non-finite bound"),
    ("crossed", "lower > upper"),
    ("zero range", "zero range and must use the degenerate latent"),
    ("degenerate latent", "a positive range but a degenerate latent"),
])
def test_engine_rejects_invalid_rows(rng, case, message):
    lower, upper = make_interval_arrays(rng, 5, 3)
    if case == "infinite upper":
        upper[2, 1] = np.inf
    elif case == "nan lower":
        lower[2, 1] = np.nan
    elif case == "crossed":
        lower[2, 1] = upper[2, 1] + 1.0
    elif case == "zero range":
        lower[2, 1] = upper[2, 1]
    else:
        lower[:, 1] = upper[:, 1]
        lower[2, 1] -= 1.0
    middle = Degenerate() if case == "degenerate latent" else Triangular(0.2)
    frame = IntervalFrame(lower, upper, ("a", "b", "c"), latents=(Uniform(), middle, Uniform()))
    calls = [distance_matrix, sample_barycentre, symbolic_covariance, frechet_variance,
             lambda f: covariance_quantile_oracle(f, 0, 1)]
    if case in ("zero range", "degenerate latent"):
        # model 7 reads no latent, so a range that does not match it is no error there
        assert np.all(np.isfinite(cov_model7(frame)))
    else:
        calls.append(cov_model7)
    for call in calls:
        with pytest.raises(DomainError, match=f"^row 2, variable b: {message}$"):
            call(frame)


# each guard of the quadratic form and the iso-distance set, with the
# message it must give
_REFUSALS = {
    "form-no-latent": (lambda: mahalanobis_form(()),
                       "at least one latent distribution is required"),
    "reduced-vector-length": (
        lambda: reduced_vector(Box((Interval(0, 1), Interval(0, 2)), (Uniform(), Uniform())),
                               mahalanobis_form((Uniform(),))),
        "box dimension does not match the quadratic form"),
    "iso-too-few-points": (lambda: iso_distance_set(Interval(0, 1), 0.1, 1.0, n_points=3),
                           "n_points must be at least 4"),
    "iso-too-many-points": (
        lambda: iso_distance_set(Interval(0, 1), 0.1, 1.0, n_points=2 ** 20 + 1),
        "n_points must be at most 1048576, got 1048577"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_each_form_guard_refuses_its_input(case):
    call, message = _REFUSALS[case]
    with pytest.raises(DomainError, match=message):
        call()
