"""The result records store read-only arrays: their own copies, or an array
already read-only that owns its memory."""

import dataclasses

import numpy as np
import pytest

from qbdpoisson import (QbdModel, RhsSpec, _linalg, poisson, probabilistic,
                        qme, shift, solve_poisson, spectral, triple)

RECORDS = (qme.QmeSolutions, qme.StationaryData, poisson.GroupInverseData,
           poisson.PoissonSolution, spectral.SpectralSplit,
           triple.ResolventData, triple.ResolventTriple, shift.ShiftData,
           probabilistic.ProbSolution)


def array_fields(cls):
    """Names of the fields annotated as arrays (``Array`` or ``Array | None``)."""
    return [f.name for f in dataclasses.fields(cls) if "Array" in str(f.type)]


def assert_arrays_readonly(record):
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, (type(record).__name__, field.name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_readonly_copies_of_its_arrays(cls):
    names = array_fields(cls)
    assert names
    sources = {name: np.arange(4.0 + k, 8.0 + k).reshape(2, 2)
               for k, name in enumerate(names)}
    # the other fields are not looked at when a record is built
    record = cls(**{f.name: sources.get(f.name)
                    for f in dataclasses.fields(cls)})
    for source in sources.values():
        source[...] = -1.0
    for k, name in enumerate(names):
        value = getattr(record, name)
        assert isinstance(value, np.ndarray), name
        assert not value.flags.writeable, name
        np.testing.assert_array_equal(
            value, np.arange(4.0 + k, 8.0 + k).reshape(2, 2), err_msg=name)
        with pytest.raises(ValueError):
            value[0, 0] = 0.0


def test_optional_array_field_stays_none():
    gi = poisson.GroupInverseData(Pstar=np.eye(2), sharp=np.eye(2),
                                  pi_star=None, recurrent=False)
    assert gi.pi_star is None


@pytest.mark.parametrize("fixture", ["pr1", "tr1", "nr1"])
def test_cold_solve_builds_readonly_records(fixture, request, monkeypatch):
    model = request.getfixturevalue(fixture)
    g = request.getfixturevalue(fixture + "_rhs")
    built = []
    for cls in RECORDS:
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    sol = solve_poisson(model, g)
    kinds = {type(record) for record in built}
    assert {qme.QmeSolutions, spectral.SpectralSplit, triple.ResolventData,
            poisson.GroupInverseData, poisson.PoissonSolution} <= kinds
    if fixture == "nr1":
        assert shift.ShiftData in kinds
    assert any(record is sol for record in built)
    for record in built:
        assert_arrays_readonly(record)


def _readonly(a):
    a.setflags(write=False)
    return a


def _adopters(a):
    """The array fields built from ``a`` by a record, a model and a rhs."""
    model = QbdModel(B=a, A_neg=a, A0=a, A1=a)
    record = triple.ResolventData(W=a, W_inv=a)
    return [_linalg.as_readonly(a), model.B, model.A1, RhsSpec(a).blocks,
            record.W, record.W_inv]


def test_readonly_owned_float_array_is_adopted():
    # an array that is read-only and owns its memory is kept, not copied, by
    # as_readonly and the records; a model and a rhs copy it, since the
    # caller who owns it can turn its writes back on
    a = _readonly(np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert a.flags.owndata
    record = triple.ResolventData(W=a, W_inv=a)
    assert _linalg.as_readonly(a) is a and record.W is a and record.W_inv is a
    model = QbdModel(B=a, A_neg=a, A0=a, A1=a)
    for value in (model.B, model.A1, RhsSpec(a).blocks):
        assert not np.shares_memory(value, a) and not value.flags.writeable
        np.testing.assert_array_equal(value, a)


def test_a_caller_cannot_change_a_model_under_its_cached_plan(pr1, pr1_rhs):
    # the owner of a read-only array turns its writes back on and writes:
    # neither the model's blocks, the rhs, nor the plan cached on the model
    # see it, so a later solve gives the same bits
    a = _readonly(np.array([[0.5, 0.5], [0.25, 0.75]]))
    model = QbdModel(B=a, A_neg=a, A0=a, A1=a)
    a.setflags(write=True)
    a[0, 0] = 9
    np.testing.assert_array_equal(model.B, [[0.5, 0.5], [0.25, 0.75]])
    sources = [_readonly(np.array(getattr(pr1, name)))
               for name in ("B", "A_neg", "A0", "A1")]
    sources.append(_readonly(np.array(pr1_rhs.blocks)))
    model, rhs = QbdModel(*sources[:4]), RhsSpec(sources[4])
    before = poisson.solve_poisson(model, rhs)          # caches the plan
    for source in sources:
        source.setflags(write=True)
        source[...] = 9.0
    after = poisson.solve_poisson(model, rhs)
    for name in ("B", "A_neg", "A0", "A1"):
        np.testing.assert_array_equal(getattr(model, name), getattr(pr1, name))
    np.testing.assert_array_equal(rhs.blocks, pr1_rhs.blocks)
    assert after.u.tobytes() == before.u.tobytes()
    assert after.u.tobytes() == poisson.solve_poisson(pr1, pr1_rhs).u.tobytes()


@pytest.mark.parametrize("source", [
    np.array([[0.5, 0.5], [0.25, 0.75]]),               # writeable
    _readonly(np.eye(2, 4))[:, :2],                     # read-only view
    _readonly(np.array([[1, 0], [0, 1]])),              # read-only int
], ids=["writeable", "readonly_view", "readonly_int"])
def test_other_arrays_are_copied(source):
    writeable = source.flags.writeable
    for value in _adopters(source):
        assert value is not source and not np.shares_memory(value, source)
        assert value.dtype == np.float64 and not value.flags.writeable
        np.testing.assert_array_equal(value, source)
    assert source.flags.writeable == writeable      # never frozen in place


def test_writes_to_a_writeable_source_never_reach_the_record():
    source = np.full((2, 2), 0.25)
    values = _adopters(source)
    source[...] = -1.0
    for value in values:
        np.testing.assert_array_equal(value, np.full((2, 2), 0.25))
