import json
import re

import numpy as np
import pytest

from qbdpoisson import (ModelValidationError, QbdModel, RhsSpec, load_problem,
                        serialize_problem, validate)
from qbdpoisson import cli
from qbdpoisson.model import parse_problem

from conftest import rhs, scalar_model

PR1_DOC = json.dumps({
    "m": 1, "B": [[0.8]], "A_minus": [[0.6]], "A0": [[0.2]], "A1": [[0.2]],
    "g": [[1.0], [-3.0]],
})

NR1_DOC = json.dumps({
    "m": 1, "B": [[0.6]], "A_minus": [[0.4]], "A0": [[0.2]], "A1": [[0.4]],
    "g": [[1.0], [-2.0]],
})


def test_load_accepts_valid_documents():
    model, g = load_problem(PR1_DOC)
    assert model.m == 1
    assert model.A_neg[0, 0] == 0.6
    assert g.N == 1
    np.testing.assert_array_equal(g.blocks, [[1.0], [-3.0]])

    model, g = load_problem(NR1_DOC)
    assert model.B[0, 0] == 0.6
    assert g.block(1)[0] == -2.0


def test_load_rejects_bad_row_sum():
    doc = json.dumps({"m": 1, "B": [[0.5]], "A_minus": [[0.5]], "A0": [[0.5]],
                      "A1": [[0.5]], "g": [[1.0]]})
    with pytest.raises(ModelValidationError, match="repeating row 0.*1.5"):
        load_problem(doc)


def test_load_rejects_parse_and_shape_errors():
    with pytest.raises(ModelValidationError, match="parse failure"):
        load_problem("{not json")
    with pytest.raises(ModelValidationError, match="missing fields"):
        load_problem(json.dumps({"m": 1}))
    doc = json.dumps({"m": 2, "B": [[0.8]], "A_minus": [[0.6]], "A0": [[0.2]],
                      "A1": [[0.2]], "g": [[1.0]]})
    with pytest.raises(ModelValidationError, match="shape"):
        load_problem(doc)
    doc = json.dumps({"m": 1, "B": [[0.8]], "A_minus": [[0.6]], "A0": [[0.2]],
                      "A1": [[0.2]], "g": []})
    with pytest.raises(ModelValidationError, match="'g'"):
        load_problem(doc)


def _pr1_with(**fields):
    doc = json.loads(PR1_DOC)
    doc.update(fields)
    return doc


@pytest.mark.parametrize("fields, message", [
    ({"B": [["x"]]}, "field 'B' is not a numeric matrix"),
    ({"A1": [[0.2], [0.1, 0.1]]}, "field 'A1' is not a numeric matrix"),
    ({"g": [["x"]]}, "field 'g' is not a numeric vector list"),
    ({"g": [[1.0], [2.0, 3.0]]}, "field 'g' is not a numeric vector list"),
    ({"m": 0}, "field 'm' must be a positive integer, got 0"),
    ({"m": 1.0}, "field 'm' must be a positive integer, got 1.0"),
    ({"m": "1"}, "field 'm' must be a positive integer, got '1'"),
    ({"m": True}, "field 'm' must be a positive integer, got True"),
], ids=["nonnumeric_B", "ragged_A1", "nonnumeric_g", "ragged_g", "m_zero",
        "m_float", "m_string", "m_bool"])
def test_parse_refusal_names_its_field(fields, message):
    with pytest.raises(ModelValidationError, match=re.escape(message)):
        parse_problem(_pr1_with(**fields))


@pytest.mark.parametrize("document", [42, None, [PR1_DOC]],
                         ids=["int", "none", "list"])
def test_parse_refuses_unsupported_document_type(document):
    with pytest.raises(ModelValidationError,
                       match=f"unsupported document type {type(document).__name__}$"):
        parse_problem(document)


@pytest.mark.parametrize("document", [json.loads(PR1_DOC), PR1_DOC.encode(),
                                      bytearray(PR1_DOC.encode())],
                         ids=["dict", "bytes", "bytearray"])
def test_parse_reads_dict_and_bytes_as_the_json_text(document):
    model, g = parse_problem(document)
    ref_model, ref_g = parse_problem(PR1_DOC)
    for name in ("B", "A_neg", "A0", "A1"):
        np.testing.assert_array_equal(getattr(model, name), getattr(ref_model, name))
    np.testing.assert_array_equal(g.blocks, ref_g.blocks)


def test_model_refuses_inconsistent_and_non_square_blocks():
    with pytest.raises(ModelValidationError, match="inconsistent shapes"):
        QbdModel(B=[[1.0]], A_neg=np.eye(2), A0=np.eye(2), A1=np.eye(2))
    block = np.full((2, 3), 0.1)
    with pytest.raises(ModelValidationError,
                       match=re.escape("must be square matrices, got shape (2, 3)")):
        QbdModel(B=block, A_neg=block, A0=block, A1=block)
    cube = np.zeros((1, 1, 1))
    with pytest.raises(ModelValidationError, match="must be square matrices"):
        QbdModel(B=cube, A_neg=cube, A0=cube, A1=cube)


@pytest.mark.parametrize("blocks", [[1.0, 2.0], np.zeros((0, 2))],
                         ids=["one_dimensional", "empty"])
def test_rhs_refuses_a_non_matrix(blocks):
    with pytest.raises(ModelValidationError,
                       match="rhs must be a nonempty list of equal-length vectors"):
        RhsSpec(blocks)


def test_load_rejects_entry_out_of_range():
    doc = json.dumps({"m": 1, "B": [[1.6]], "A_minus": [[0.6]], "A0": [[0.2]],
                      "A1": [[-0.6]], "g": [[0.0]]})
    with pytest.raises(ModelValidationError, match="outside"):
        load_problem(doc)


def test_serialize_roundtrip_is_bit_exact():
    # decimals that are not exactly representable still round-trip in binary64
    model = QbdModel(B=[[0.7, 0.1], [0.2, 0.6]],
                     A_neg=[[0.05, 0.1], [0.1, 0.05]],
                     A0=[[0.3, 0.35], [0.35, 0.3]],
                     A1=[[0.1, 0.1], [0.15, 0.05]])
    g = rhs([0.1, -0.3], [1e-17, 2.0 / 3.0])
    loaded_model, loaded_g = load_problem(serialize_problem(model, g))
    for name in ("B", "A_neg", "A0", "A1"):
        np.testing.assert_array_equal(getattr(loaded_model, name),
                                      getattr(model, name))
    np.testing.assert_array_equal(loaded_g.blocks, g.blocks)


def test_validate_passes_clean_model(pr1):
    report = validate(pr1)
    assert report.passed
    assert report.boundary_rowsum_residual <= 1e-15
    assert report.repeating_rowsum_residual <= 1e-15
    assert report.phase_graph_irreducible
    assert report.truncation_irreducible
    assert not report.warnings


def test_validate_warns_without_down_transitions():
    # no way down from level 1: strongly connected phase graph, but the
    # 3-level truncation is not
    model = scalar_model(0.0, 0.5, 0.5, 0.5)
    report = validate(model)
    assert report.passed
    assert not report.truncation_irreducible
    assert report.warnings


def test_validate_reports_perturbed_row_sum(pr1):
    model = QbdModel(B=[[0.79]], A_neg=pr1.A_neg, A0=pr1.A0, A1=pr1.A1)
    report = validate(model)
    assert not report.passed
    assert report.boundary_rowsum_residual == pytest.approx(0.01, abs=1e-15)
    assert any("level-0" in f for f in report.failures)


def test_validate_detects_reducible_phase_graph():
    model = QbdModel(B=[[0.5, 0.0], [0.0, 0.5]],
                     A_neg=[[0.25, 0.0], [0.0, 0.25]],
                     A0=[[0.25, 0.0], [0.0, 0.25]],
                     A1=[[0.5, 0.0], [0.0, 0.5]])
    report = validate(model)
    assert not report.phase_graph_irreducible
    assert not report.passed


def closure_connected(a) -> bool:
    """Oracle: every node reaches every other when (adj | I)^n has no zero
    entry; taken by repeated squaring of 0/1 floats, whose products are
    walk counts of at most n, where an integer matrix_power overflows."""
    reach = ((a > 0.0) | np.eye(len(a), dtype=bool)).astype(float)
    for _ in range(max(1, int(np.ceil(np.log2(len(a)))))):
        reach = (reach @ reach > 0.0).astype(float)
    return bool(reach.all())


def irreducibility_against_closure(model):
    """validate's two connectivity flags, each next to the oracle's."""
    zero = np.zeros((model.m, model.m))
    truncation = np.block([[model.B, model.A1, zero],
                           [model.A_neg, model.A0, model.A1],
                           [zero, model.A_neg, model.A0]])
    report = validate(model)
    return ((report.phase_graph_irreducible, report.truncation_irreducible),
            (closure_connected(model.repeating_sum()),
             closure_connected(truncation)))


@pytest.mark.parametrize("m", [1, 2, 8, 24, 64])
def test_connectivity_flags_match_the_closure_on_random_graphs(m):
    # phase graphs of m nodes and truncations of 3m (up to 192), at mean
    # out-degrees per block from 0.2 to 4; both answers occur for each flag
    gen = np.random.default_rng(m)
    seen = set()
    for degree in (0.2, 0.5, 1.0, 2.0, 4.0):
        for _ in range(6):
            blocks = [gen.random((m, m)) * (gen.random((m, m)) < degree / m)
                      for _ in range(4)]
            got, want = irreducibility_against_closure(QbdModel(*blocks))
            assert got == want
            seen.add(want)
    assert {phase for phase, _ in seen} == ({True} if m == 1 else {True, False})
    assert {trunc for _, trunc in seen} == {True, False}


@pytest.mark.parametrize("broken", [False, True], ids=["cycle", "broken"])
def test_connectivity_flags_on_a_192_node_cycle(broken):
    # the longest breadth-first search: one directed cycle through every phase
    cycle = np.roll(np.eye(192), 1, axis=1)
    if broken:
        cycle[100, 101] = 0.0
    zero = np.zeros((192, 192))
    got, want = irreducibility_against_closure(QbdModel(cycle, zero, cycle, zero))
    assert got == want == (not broken, False)


@pytest.mark.parametrize("nan_at, connected", [((2, 0), False), ((0, 2), True)],
                         ids=["closing_edge", "extra_edge"])
def test_connectivity_flags_read_nan_as_no_edge(nan_at, connected):
    # a 3-cycle 0 -> 1 -> 2 -> 0 in A0; the NaN replaces the edge closing the
    # cycle, or adds a reverse edge the cycle does not need
    a0 = np.roll(np.eye(3), 1, axis=1) * 0.5
    a0[nan_at] = np.nan
    a_pm = np.eye(3) * 0.25
    got, want = irreducibility_against_closure(QbdModel(a0 + a_pm, a_pm, a0, a_pm))
    assert got == want
    assert got[0] == connected


def test_connectivity_flags_of_a_1x1_zero_block():
    # one phase reaches itself; the truncation's three levels have no edges
    zero = np.zeros((1, 1))
    got, want = irreducibility_against_closure(QbdModel(zero, zero, zero, zero))
    assert got == want == (True, False)


@pytest.mark.parametrize("seed", range(8))
def test_validate_rejects_any_perturbed_invariant(seed):
    # perturbing one random entry beyond tolerance always fails validation
    from qbdpoisson import random_model, Classification
    gen = np.random.Generator(np.random.Philox(key=seed + 55))
    model = random_model(seed, seed % 4 + 1, Classification.POSITIVE_RECURRENT)
    name = ("B", "A_neg", "A0", "A1")[seed % 4]
    block = np.array(getattr(model, name))
    i = gen.integers(model.m)
    j = gen.integers(model.m)
    block[i, j] += 1e-6
    fields = {n: getattr(model, n) for n in ("B", "A_neg", "A0", "A1")}
    fields[name] = block
    assert not validate(QbdModel(**fields)).passed


def test_rhs_block_access():
    g = rhs([1.0], [-3.0])
    assert g.N == 1
    assert g.m == 1
    assert g.block(0)[0] == 1.0
    assert g.block(5)[0] == 0.0
    with pytest.raises(IndexError):
        g.block(-1)


def test_model_arrays_are_readonly(pr1):
    with pytest.raises(ValueError):
        pr1.B[0, 0] = 0.0
    g = rhs([1.0])
    with pytest.raises(ValueError):
        g.blocks[0, 0] = 2.0


def test_stochastic_tol_sits_inside_its_tenfold_band(tmp_path, capsys):
    # rows 5e-12 above 1 lie between STOCHASTIC_TOL = 1e-12 and 10x of it:
    # validate names both, and solve refuses the model before the QME solve
    doc = json.loads(PR1_DOC)
    doc["A0"][0][0] += 5e-12
    doc["B"][0][0] += 5e-12
    report = validate(parse_problem(doc)[0])
    assert report.tol == 1e-12
    assert [re.sub(r" sums to .*", "", f) for f in report.failures] == [
        "level-0 row 0 of B + A1", "repeating row 0 of A_neg + A0 + A1"]
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["solve", "-o", str(tmp_path / "out"), str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ModelValidationError"
    assert "level-0 row 0" in err["message"] and "repeating row 0" in err["message"]
