"""The value classes compare, hash, print and refuse assignment as the
``@dataclass`` classes they replace did: each repr below is the dataclass
one, and equality and hashing go by the tuple of fields, except for the
records whose fields may hold arrays, which go by identity as with
``@dataclass(eq=False)``."""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from ivda import (
    Box,
    DataValidationError,
    Degenerate,
    Interval,
    IntervalFrame,
    InvertedTriangular,
    Kde,
    ShiftedBeta,
    Triangular,
    TruncatedNormal,
    Uniform,
    latent_from_dict,
    latent_to_dict,
)
from ivda._value import Frozen, Record, Value
from ivda.cli import main
from ivda.estimation import ModeEstimates, VariableMicrodata
from ivda.ingest import AggregateResult, AggregationReport, MicroRecord, ScaledSample, aggregate
from ivda.interval import Violation
from ivda.mallows import MahalanobisForm, MomentSummary, mahalanobis_form
from ivda.moments import Barycentre, SymbolicCovariance, sample_barycentre, symbolic_covariance


def _frame():
    return IntervalFrame([[0.0, 1.0], [1.0, 3.0]], [[2.0, 2.0], [2.0, 4.0]], ["x", "y"],
                         latents=(Uniform(), Triangular(0.5)))


# (factory, its repr): each factory builds a new, equal value on every call
_VALUES = {
    "Interval": (lambda: Interval(1.0, 2.5), "Interval(lower=1.0, upper=2.5)"),
    "Box": (lambda: Box((Interval(0.0, 1.0), Interval(2.0, 2.0)), (Uniform(), Degenerate())),
            "Box(intervals=(Interval(lower=0.0, upper=1.0), Interval(lower=2.0, upper=2.0)), "
            "latents=(Uniform(), Degenerate()))"),
    "Violation": (lambda: Violation("order", 0, 1, "lower > upper at row 0, variable y"),
                  "Violation(rule='order', row=0, column=1, "
                  "message='lower > upper at row 0, variable y')"),
    "Uniform": (Uniform, "Uniform()"),
    "Triangular": (lambda: Triangular(-0.3), "Triangular(mode=-0.3)"),
    "InvertedTriangular": (InvertedTriangular, "InvertedTriangular()"),
    "TruncatedNormal": (TruncatedNormal, "TruncatedNormal(sigma2=0.1111111111111111)"),
    "ShiftedBeta": (lambda: ShiftedBeta(0.44, 2.15), "ShiftedBeta(alpha=0.44, beta=2.15)"),
    "Degenerate": (Degenerate, "Degenerate()"),
    "MomentSummary": (lambda: MomentSummary(psi=np.array([0.0]), delta=np.array([0.25]),
                                            euu=np.array([[1.0]])),
                      "MomentSummary(psi=array([0.]), delta=array([0.25]), euu=array([[1.]]))"),
    "MahalanobisForm": (lambda: MahalanobisForm(h=np.array([[1.0]]), kept_indices=(0,)),
                        "MahalanobisForm(h=array([[1.]]), kept_indices=(0,), h_inverse=None, "
                        "q=None)"),
    "ModeEstimates": (lambda: ModeEstimates(modes=np.array([0.5]), m_hat=0.5),
                      "ModeEstimates(modes=array([0.5]), m_hat=0.5, symmetric=None)"),
    "VariableMicrodata": (lambda: VariableMicrodata("x", latent=Uniform()),
                          "VariableMicrodata(name='x', latent=Uniform(), sample=None)"),
    "MicroRecord": (lambda: MicroRecord(("a", 1), "x", 1.5),
                    "MicroRecord(key=('a', '1'), variable='x', value=1.5)"),
    "ScaledSample": (lambda: ScaledSample("x", [0.5], rows=("a",)),
                     "ScaledSample(variable='x', values=array([0.5]), rows=('a',))"),
    "AggregationReport": (AggregationReport, "AggregationReport(dropped_rows=[])"),
    "AggregateResult": (lambda: aggregate([MicroRecord(("a",), "x", 1.0),
                                           MicroRecord(("a",), "x", 3.0)]),
                        "AggregateResult(names=('x',), labels=('a',), lower=[[1.0]], "
                        "upper=[[3.0]], samples={'x': (('a', 'a'), [-1.0, 1.0])}, "
                        "report=AggregationReport(dropped_rows=[]))"),
    "Barycentre": (lambda: sample_barycentre(_frame()), None),
    "SymbolicCovariance": (lambda: symbolic_covariance(_frame()), None),
}
# the records whose fields may hold arrays, each built here with arrays of
# several entries, which have no truth value and no hash
_RECORDS = {
    "MomentSummary": lambda: MomentSummary.from_latents([Uniform(), Triangular(0.2)]),
    "Barycentre": lambda: sample_barycentre(_frame()),
    "SymbolicCovariance": lambda: symbolic_covariance(_frame()),
    "MahalanobisForm": lambda: mahalanobis_form(_frame().latents),
    "ModeEstimates": lambda: ModeEstimates(modes=np.array([0.5, -0.25]), m_hat=0.125),
    "ScaledSample": lambda: ScaledSample("x", [0.5, -0.5]),
    "VariableMicrodata": lambda: VariableMicrodata("x", sample=[0.5, -0.5]),
}
_MUTABLE = {"AggregationReport", "AggregateResult"}


def test_every_value_class_is_covered():
    classes = {cls.__name__ for base in (Frozen, Value) for cls in _subclasses(base)}
    assert classes - {"Frozen", "Record"} == set(_VALUES)
    assert {cls.__name__ for cls in _subclasses(Record)} == set(_RECORDS)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_repr_equality_and_hash(name):
    build, shown = _VALUES[name]
    value = build()
    assert type(value).__name__ == name
    if shown is not None:
        assert repr(value) == shown
    # never equal to a value of another class, even one with the same fields
    assert value != (Degenerate() if name == "Uniform" else Uniform())
    if name in _RECORDS:
        return                      # see test_records_compare_and_hash_by_identity
    # equal to a rebuilt value
    assert value == build()
    fields = tuple(getattr(value, field) for field in type(value)._fields)
    if name in _MUTABLE:
        with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
            hash(value)
    else:
        assert hash(value) == hash(fields) == hash(build())


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_compare_and_hash_by_identity(name):
    value, twin = _RECORDS[name](), _RECORDS[name]()
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert hash(value) == object.__hash__(value)
    assert len({value, twin, value}) == 2


@pytest.mark.parametrize("name", sorted(set(_VALUES) - _MUTABLE))
def test_frozen_values_refuse_assignment(name):
    value = _VALUES[name][0]()
    field = type(value)._fields[0] if type(value)._fields else "anything"
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", sorted(set(_VALUES) - _MUTABLE))
def test_frozen_values_copy_and_pickle(name):
    value = _VALUES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        if name in _RECORDS:        # equal to itself alone, so compare what it holds
            assert twin is not value and repr(twin) == repr(value)
        else:
            assert twin == value and hash(twin) == hash(value)
    if name == "TruncatedNormal":
        assert pickle.loads(pickle.dumps(value)).second_moment == value.second_moment


def test_mutable_values_assign_and_keep_cached_properties():
    report = AggregationReport()
    report.dropped_rows.append(("a", ["empty cell x"]))
    assert report == AggregationReport([("a", ["empty cell x"])])
    assert AggregationReport().dropped_rows == []      # a new list for each report
    result = _VALUES["AggregateResult"][0]()
    assert result.frame is result.frame                # cached in the instance __dict__
    result.labels = ("b",)
    assert result != _VALUES["AggregateResult"][0]()
    assert isinstance(result, AggregateResult)


# each family's JSON spec, in the order of its fields
_SPECS = [
    (Uniform(), {"family": "uniform"}),
    (Triangular(-0.34), {"family": "triangular", "mode": -0.34}),
    (InvertedTriangular(), {"family": "inverted_triangular"}),
    (TruncatedNormal(0.2), {"family": "truncated_normal", "sigma2": 0.2}),
    (ShiftedBeta(0.44, 2.15), {"family": "shifted_beta", "alpha": 0.44, "beta": 2.15}),
    (Degenerate(), {"family": "degenerate"}),
]


@pytest.mark.parametrize("dist, spec", _SPECS, ids=[spec["family"] for _, spec in _SPECS])
def test_each_family_round_trips_through_its_spec(dist, spec):
    assert list(latent_to_dict(dist).items()) == list(spec.items())
    back = latent_from_dict(json.loads(json.dumps(spec)))
    assert back == dist and hash(back) == hash(dist)


def test_kde_round_trips_through_its_spec(tmp_path):
    dist = Kde(np.linspace(-0.9, 0.8, 40), bandwidth=0.2)
    (tmp_path / "u.txt").write_text("".join("%.18e\n" % v for v in dist.sample.tolist()),
                                    encoding="utf-8")
    spec = latent_to_dict(dist, sample_path="u.txt")
    assert spec == {"family": "kde", "sample_path": "u.txt", "bandwidth": 0.2}
    back = latent_from_dict(spec, base_dir=tmp_path)
    assert back == dist and hash(back) == hash(dist)


@pytest.mark.parametrize("spec, dist", [
    ({"family": "triangular"}, Triangular(0.0)),
    ({"family": "truncated_normal"}, TruncatedNormal(1.0 / 9.0)),
    ({"family": "uniform", "mode": 0.5}, Uniform()),
], ids=["triangular-mode", "truncated-normal-sigma2", "extra-key-ignored"])
def test_a_spec_without_an_optional_field_takes_its_default(spec, dist):
    # the spec's default, the constructor's and the value pinned here agree
    back = latent_from_dict(spec)
    assert back == dist == type(dist)() and hash(back) == hash(dist)


def test_a_spec_without_a_required_field_is_refused():
    with pytest.raises(DataValidationError, match="missing field 'alpha'"):
        latent_from_dict({"family": "shifted_beta", "beta": 2.0})


def test_refused_frame_writes_its_violations(tmp_path, capsys):
    path = tmp_path / "iv.csv"
    path.write_text("label,x.lo,x.hi,y.lo,y.hi\na,2,1,0,1\nb,0,1,nan,1\n", encoding="utf-8")
    code = main(["distance", "--intervals", str(path), "--latents", "uniform",
                 "--out", str(tmp_path / "d.csv")])
    stderr = capsys.readouterr().err
    assert code == 2
    assert stderr == json.dumps({"error": {
        "type": "validation", "message": f"{path}: 2 validation violation(s)",
        "violations": [
            {"rule": "order", "row": 0, "column": 0,
             "message": "lower > upper at row 0, variable x"},
            {"rule": "not-finite", "row": 1, "column": 1,
             "message": "non-finite bound at row 1, variable y"},
        ]}}) + "\n"
