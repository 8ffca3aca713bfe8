"""The result records store read-only copies of their array fields."""

import dataclasses

import numpy as np
import pytest

from qbdpoisson import (poisson, probabilistic, qme, shift, solve_poisson,
                        spectral, triple)

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
