import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ivda import (
    Box,
    Degenerate,
    Interval,
    IntervalFrame,
    InvertedTriangular,
    Kde,
    ShiftedBeta,
    Triangular,
    TruncatedNormal,
    Uniform,
    cov_model7,
    covariance_quantile_oracle,
    dist_sq_box,
    distance_matrix,
    frechet_variance,
    load_interval_csv,
    sample_barycentre,
    symbolic_covariance,
)
from ivda.errors import DataValidationError, DomainError


def test_centre_range_roundtrip_machine_precision(rng):
    for _ in range(200):
        a = float(rng.uniform(-100, 100))
        b = a + float(rng.uniform(0, 50))
        iv = Interval(a, b)
        back = Interval.from_centre_range(iv.centre, iv.range)
        scale = max(1.0, abs(a), abs(b))
        assert abs(back.lower - a) <= 4e-16 * scale
        assert abs(back.upper - b) <= 4e-16 * scale


def test_centre_range_roundtrip_exact_on_dyadic_values():
    # representable halves round-trip to the last bit
    iv = Interval(-3.0, 5.0)
    back = Interval.from_centre_range(iv.centre, iv.range)
    assert (back.lower, back.upper) == (-3.0, 5.0)


def test_interval_examples():
    assert Interval(0.0, 2.0).centre == 1.0
    assert Interval(0.0, 2.0).range == 2.0
    assert Interval(-3.0, 5.0).centre == 1.0
    assert Interval(-3.0, 5.0).range == 8.0


def test_interval_rejects_disorder_and_nonfinite():
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(float("nan"), 1.0)
    with pytest.raises(DomainError):
        Interval.from_centre_range(0.0, -1.0)


def test_box_zero_range_requires_degenerate_latent():
    Box((Interval(1.0, 1.0),), (Degenerate(),))
    with pytest.raises(DomainError):
        Box((Interval(1.0, 1.0),), (Uniform(),))
    with pytest.raises(DomainError):
        Box((), ())


def test_box_positive_range_refuses_the_degenerate_latent():
    # a degenerate latent would drop the ranges and leave the centres alone
    with pytest.raises(DomainError, match="dimension 0: a positive range but a degenerate"):
        dist_sq_box(Box((Interval(0.0, 2.0),), (Degenerate(),)),
                    Box((Interval(1.0, 5.0),), (Degenerate(),)))


def test_box_vector_layout():
    box = Box((Interval(0.0, 2.0), Interval(1.0, 1.0)), (Uniform(), Degenerate()))
    assert np.allclose(box.as_vector(), [1.0, 1.0, 2.0, 0.0])


def test_frame_centres_ranges():
    frame = IntervalFrame([[1.0, 2.0]], [[1.0, 4.0]], ("a", "b"))
    c, r = frame.centres_ranges()
    assert np.allclose(c, [[1.0, 3.0]])
    assert np.allclose(r, [[0.0, 2.0]])


def test_engines_share_one_read_only_check_per_frame(monkeypatch):
    calls = []
    split = IntervalFrame.centres_ranges

    def counted(frame):
        calls.append(frame)
        return split(frame)

    monkeypatch.setattr(IntervalFrame, "centres_ranges", counted)
    frame = IntervalFrame([[0.0, 1.0], [2.0, 2.0]], [[1.0, 3.0], [4.0, 5.0]], ("a", "b"),
                          latents=(Uniform(), Triangular(0.5)))
    for engine in (distance_matrix, sample_barycentre, symbolic_covariance):
        engine(frame)
    assert calls == [frame]
    c, r = frame.checked_centres_ranges()
    assert not c.flags.writeable and not r.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        r[0, 0] = 0.0
    # a bounds-only check is not the engines' one
    assert frame.checked_centres_ranges(latents=False)[1].flags.writeable
    # a refused frame is checked, and refused, on every call
    calls.clear()
    bad = frame.with_latents({"a": Degenerate()})
    for engine in (distance_matrix, sample_barycentre, symbolic_covariance, distance_matrix):
        with pytest.raises(DomainError, match="row 0, variable a"):
            engine(bad)
    assert calls == [bad] * 4
    # new latents make a new frame, which checks its bounds again
    calls.clear()
    again = bad.with_latents({"a": Uniform()})
    assert distance_matrix(again).tolist() == distance_matrix(frame).tolist()
    assert calls == [again]


@pytest.mark.parametrize("field, value", [("names", ("x", "y")),
                                          ("latents", (Degenerate(), Uniform())),
                                          ("labels", ("r0", "r1"))])
def test_frame_fields_are_read_only(field, value):
    # the frame caches its check against its fields, so a field assigned after
    # the check would leave that check stale
    frame = IntervalFrame([[0.0, 1.0], [2.0, 2.0]], [[1.0, 3.0], [4.0, 5.0]], ("a", "b"),
                          latents=(Uniform(), Triangular(0.5)))
    distance_matrix(frame)
    with pytest.raises(AttributeError):
        setattr(frame, field, value)
    assert frame.names == ("a", "b") and frame.labels is None
    assert frame.latents == (Uniform(), Triangular(0.5))


def test_validate_reports_order_violation():
    lower = np.zeros((5, 3))
    upper = np.ones((5, 3))
    upper[3, 2] = -1.0
    frame = IntervalFrame(lower, upper, ("a", "b", "c"))
    violations = frame.validate()
    assert [(v.rule, v.row, v.column) for v in violations] == [("order", 3, 2)]
    # idempotent and total
    assert [(v.rule, v.row, v.column) for v in frame.validate()] == [("order", 3, 2)]


def test_validate_reports_nan_as_violation():
    frame = IntervalFrame([[float("nan")]], [[1.0]], ("a",))
    rules = {v.rule for v in frame.validate()}
    assert rules == {"not-finite"}


def test_validate_zero_range_latent_mismatch():
    frame = IntervalFrame([[1.0], [2.0]], [[1.0], [2.0]], ("a",), latents=(Uniform(),))
    rules = [v.rule for v in frame.validate()]
    assert rules == ["degenerate-latent-mismatch"]
    fixed = frame.with_latents((Degenerate(),))
    assert fixed.validate() == []


def test_validate_mixed_zero_range():
    frame = IntervalFrame([[0.0], [1.0]], [[0.0], [3.0]], ("a",))
    rules = [v.rule for v in frame.validate()]
    assert rules == ["mixed-zero-range"]


def test_validate_clean_frame_is_empty(rng):
    lower = rng.uniform(-5, 0, size=(10, 4))
    upper = lower + rng.uniform(0.1, 3, size=(10, 4))
    frame = IntervalFrame(lower, upper, tuple("abcd"),
                          latents=(Uniform(),) * 4)
    assert frame.validate() == []


def test_with_latents_by_name_and_row_box():
    frame = IntervalFrame([[0.0, 1.0]], [[2.0, 3.0]], ("a", "b"))
    with pytest.raises(DataValidationError):
        frame.row_box(0)
    frame2 = frame.with_latents({"a": Uniform(), "b": Triangular(0.5)})
    box = frame2.row_box(0)
    assert box.latents == (Uniform(), Triangular(0.5))
    with pytest.raises(DomainError):
        frame.with_latents({"zzz": Uniform()})


def test_frame_shape_validation():
    with pytest.raises(DomainError):
        IntervalFrame([[0.0]], [[1.0, 2.0]], ("a", "b"))
    with pytest.raises(DomainError):
        IntervalFrame([[0.0]], [[1.0]], ("a", "a"))
    with pytest.raises(DomainError):
        IntervalFrame([[0.0]], [[1.0]], ("a",), labels=("x", "y"))


def test_validate_degenerate_latent_with_positive_ranges():
    frame = IntervalFrame([[0.0], [1.0]], [[2.0], [1.5]], ("a",), latents=(Degenerate(),))
    violations = frame.validate()
    assert [(v.rule, v.column) for v in violations] == [("degenerate-latent-mismatch", 0)]
    assert "positive ranges but a degenerate latent" in violations[0].message


def test_validate_mixed_column_reports_the_mix_whatever_its_latent():
    frame = IntervalFrame([[0.0], [1.0]], [[0.0], [3.0]], ("a",))
    for latent in (Uniform(), Degenerate()):
        assert [v.rule for v in frame.with_latents((latent,)).validate()] == ["mixed-zero-range"]


# the pool of test_moments' pooled frames: their cross moments are cached once
_RULE_POOL = (Uniform(), Triangular(0.4), Triangular(-0.7), InvertedTriangular(),
              TruncatedNormal(0.2), ShiftedBeta(0.44, 2.15),
              Kde(np.random.default_rng(5).uniform(-1.0, 1.0, size=60)), Degenerate())
_CELLS = ("positive", "zero", "nan", "inf", "-inf", "crossed")


@st.composite
def _frames_with_bad_cells(draw):
    """A valid frame over every latent family, then up to three cells set
    positive, zero, NaN, infinite or crossed."""
    n = draw(st.integers(2, 5))
    p = draw(st.integers(1, 3))
    latents = tuple(draw(st.lists(st.sampled_from(_RULE_POOL), min_size=p, max_size=p)))
    degenerate = np.array([isinstance(lat, Degenerate) for lat in latents])
    lower = draw(hnp.arrays(np.float64, (n, p), elements=st.floats(-5.0, 5.0)))
    width = draw(hnp.arrays(np.float64, (n, p), elements=st.floats(0.1, 3.0)))
    upper = lower + np.where(degenerate, 0.0, width)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, p - 1), st.sampled_from(_CELLS))
    for i, j, cell in draw(st.lists(cells, max_size=3)):
        if cell == "positive":
            upper[i, j] = lower[i, j] + 1.0
        elif cell == "zero":
            upper[i, j] = lower[i, j]
        elif cell == "nan":
            lower[i, j] = np.nan
        elif cell == "inf":
            upper[i, j] = np.inf
        elif cell == "-inf":
            lower[i, j] = -np.inf
        else:
            lower[i, j] = upper[i, j] + 1.0
    return IntervalFrame(lower, upper, tuple(f"v{j}" for j in range(p)), latents=latents)


def _refuses(call, *args):
    try:
        call(*args)
    except DomainError:
        return True
    return False


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_frames_with_bad_cells())
def test_validate_the_engines_and_row_box_share_one_rule(frame):
    lower, upper = frame.lower, frame.upper
    degenerate = np.array([isinstance(lat, Degenerate) for lat in frame.latents])
    with np.errstate(invalid="ignore", over="ignore"):
        bad_bounds = ~(np.isfinite(lower) & np.isfinite(upper)) | (lower > upper)
        bad = bad_bounds | ((upper - lower == 0.0) != degenerate)
        valid = not bad.any()
        assert (frame.validate() == []) == valid
        assert _refuses(frame.checked_centres_ranges) != valid
        for call in (distance_matrix, sample_barycentre, symbolic_covariance,
                     frechet_variance, lambda f: covariance_quantile_oracle(f, 0, f.p - 1)):
            assert _refuses(call, frame) != valid
        # model 7 reads no latent, so only the bounds decide
        assert _refuses(cov_model7, frame) == bool(bad_bounds.any())
        refused = [i for i in range(frame.n) if _refuses(frame.row_box, i)]
        assert refused == np.flatnonzero(bad.any(axis=1)).tolist()


def _interval_csv(directory, text):
    path = directory / "iv.csv"
    path.write_text(text, encoding="utf-8")
    return path


# each guard of the frame, the box and the interval reader, as a call on a
# scratch directory with the error and the message it must give
_REFUSALS = {
    "frame-repeated-name": (
        lambda d: IntervalFrame([[0, 0]], [[1, 1]], ("a", "a")),
        DomainError, "variable names must be unique"),
    "frame-latent-count": (
        lambda d: IntervalFrame([[0, 0]], [[1, 1]], ("a", "b"), latents=(Uniform(),)),
        DomainError, "expected 2 latent entries, got 1"),
    "csv-mixed-encodings": (
        lambda d: load_interval_csv(_interval_csv(d, "label,a.lo,a.r\nr1,0,1\n")),
        DataValidationError, "variable 'a' mixes column encodings"),
    "csv-no-interval-column": (
        lambda d: load_interval_csv(_interval_csv(d, "label\nr1\n")),
        DataValidationError, "no interval columns found"),
    "csv-no-data-row": (
        lambda d: load_interval_csv(_interval_csv(d, "label,a.lo,a.hi\n")),
        DataValidationError, "no data rows"),
    "box-latent-count": (
        lambda d: Box((Interval(0, 1), Interval(0, 1)), (Uniform(),)),
        DomainError, "one latent distribution is required per dimension"),
    "box-not-an-interval": (
        lambda d: Box(((0.0, 1.0),), (Uniform(),)),
        DomainError, "dimension 0 is not an Interval"),
    "box-no-latent": (
        lambda d: Box((Interval(0, 1),), (None,)),
        DomainError, "dimension 0 has no latent distribution"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_each_frame_and_box_guard_refuses_its_input(tmp_path, case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
