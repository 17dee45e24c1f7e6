"""JSON document round trips and validation."""

from __future__ import annotations

import decimal
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from vest import (
    DenseMatrix,
    FunctionalMatrix,
    MSequenceResult,
    Semiring,
    VerificationReport,
    VerificationRow,
    VestInstance,
    instance_fingerprint,
    new_instance,
    parse_graph,
    reduce_graph,
)
from vest.documents import (
    DocumentError,
    InstanceDocument,
    count_text,
    dumps,
    dumps_instance,
    instance_to_dict,
    loads_instance,
    msequence_to_dict,
    verification_to_dict,
    verification_to_text,
)

from helpers import path_graph, random_functional_matrix, random_graph, random_rational_instance

DATA = Path(__file__).parent / "data"


def test_rational_instance_round_trip():
    inst = new_instance(
        Semiring.RATIONAL,
        (Fraction(1, 2), -2),
        (DenseMatrix(((Fraction(-1, 3), 0), (1, 1))),),
        DenseMatrix(((0, Fraction(5),),)),
    )
    doc = InstanceDocument(inst, {"note": "tiny"})
    loaded = loads_instance(dumps_instance(doc))
    assert loaded.instance == inst
    assert loaded.metadata == {"note": "tiny"}


def test_rationals_serialize_as_strings():
    # a matrix that is not functional stays dense rows of exact strings; a
    # selector of single 1s is written as its row actions
    inst = new_instance(
        Semiring.RATIONAL, (Fraction(1, 2), 1),
        (DenseMatrix(((1, Fraction(-2, 3)), (0, 5))),), DenseMatrix(((1, 0),)))
    data = instance_to_dict(InstanceDocument(inst, {}))
    assert data["v"] == ["1/2", "1"]
    assert data["transformations"][0] == [["1", "-2/3"], ["0", "5"]]
    assert data["selector"] == {"actions": [0]}


def test_gf2_entries_serialize_as_ints():
    inst = reduce_graph(path_graph(2)).instance
    data = instance_to_dict(InstanceDocument(inst, {}))
    assert all(e in (0, 1) for e in data["v"])
    assert all(type(j) is int for j in data["selector"]["actions"])


@pytest.mark.parametrize("semiring, rows, written", [
    # an entry outside {0, 1}, or two 1s in a row, keeps the dense rows
    (Semiring.RATIONAL, ((1, Fraction(1, 2)),), [["1", "1/2"]]),
    (Semiring.RATIONAL, ((1, 1), (0, 0)), [["1", "1"], ["0", "0"]]),
    (Semiring.GF2, ((1, 1), (0, 1)), [[1, 1], [0, 1]]),
])
def test_selectors_that_are_not_row_actions_stay_dense_rows(semiring, rows, written):
    inst = new_instance(semiring, (1, 0), (FunctionalMatrix((1, 0)),), DenseMatrix(rows))
    assert isinstance(inst.selector, DenseMatrix)
    text = dumps_instance(InstanceDocument(inst, {}))
    assert json.loads(text)["selector"] == written
    assert loads_instance(text).instance == inst


def _random_gf2_instance(rng) -> VestInstance:
    d = rng.randint(1, 5)

    def rows(count):
        return DenseMatrix(tuple(tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(count)))

    transformations = [rows(d) if rng.random() < 0.5 else random_functional_matrix(rng, d)
                       for _ in range(rng.randint(1, 3))]
    return new_instance(Semiring.GF2, rows(1).rows[0], transformations, rows(rng.randint(1, 3)))


# metadata travels as free JSON: int keys, nesting, empty containers, non-ASCII
_METADATA = {
    "ints": {1: "one", 10: [2, {3: []}]},
    "nested": {"a": {"b": [[], {}]}, "c": [{"d": [[1], [2, 3]]}]},
    "empty": [{}, [], ""],
    "rows": [[1, 2], [3]],
    "text": "Z\u00fcrich \u2192 \u2211",
    "\u00e9": None,
}


def _writer_cases():
    """(document, is an instance document) pairs of every kind written."""
    rng = random.Random(9)
    cases = []
    for i in range(15):
        for inst in (_random_gf2_instance(rng), random_rational_instance(rng)):
            cases.append((instance_to_dict(InstanceDocument(inst, {"i": i})), True))
    for n in (1, 4, 7):
        g = random_graph(rng, n, 0.5)
        for sem in Semiring:
            inst = reduce_graph(g, sem).instance
            cases.append((instance_to_dict(InstanceDocument(inst, _METADATA)), True))
    p3 = reduce_graph(path_graph(3)).instance
    for values in ((1, math.factorial(25), 0), ()):
        cases.append((msequence_to_dict(MSequenceResult(p3, "dedup", values)), False))
    for passed in (True, False):
        cases.append((verification_to_dict(_sample_report(passed)), False))
    cases.append(({"metadata": _METADATA, "list": [[{}], [[]], []], "x": 1.5}, False))
    return cases


def test_serialization_is_byte_stable():
    # every kind of document parses as json.dumps would write it, and a
    # loaded document re-dumps byte for byte
    for data, is_instance in _writer_cases():
        text = dumps(data)
        assert json.loads(text) == json.loads(json.dumps(data, indent=2, sort_keys=True))
        assert text.endswith("}\n") and text.isascii()
        assert dumps(json.loads(text)) == text
        if is_instance:
            assert dumps_instance(loads_instance(text)) == text


def test_functional_instances_round_trip_to_equal_instances():
    inst = reduce_graph(path_graph(3)).instance
    loaded = loads_instance(dumps_instance(InstanceDocument(inst, {}))).instance
    # functional transformations are written as row actions and load as such
    assert all(isinstance(t, FunctionalMatrix) for t in loaded.transformations)
    assert loaded.functional_forms == inst.functional_forms
    assert loaded == inst
    assert instance_fingerprint(loaded) == instance_fingerprint(inst)


def test_file_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    doc = InstanceDocument(reduce_graph(path_graph(2)).instance, {"src": "p2"})
    path.write_text(dumps_instance(doc))
    loaded = loads_instance(path.read_text())
    assert loaded.instance == doc.instance
    assert loaded.metadata == doc.metadata


def test_declared_shape_must_match_content():
    data = instance_to_dict(InstanceDocument(reduce_graph(path_graph(2)).instance, {}))
    data["d"] = 99
    with pytest.raises(DocumentError):
        loads_instance(dumps(data))


def test_instance_document_rejections():
    good = instance_to_dict(InstanceDocument(reduce_graph(path_graph(2)).instance, {}))

    def broken(**changes):
        data = dict(good, **changes)
        for key, val in list(data.items()):
            if val is None:
                del data[key]
        return dumps(data)

    with pytest.raises(DocumentError):
        loads_instance("not json")
    with pytest.raises(DocumentError):
        loads_instance("[1, 2]")
    with pytest.raises(DocumentError):
        loads_instance(broken(format="something-else"))
    with pytest.raises(DocumentError):
        loads_instance(broken(version=4))
    with pytest.raises(DocumentError):
        loads_instance(broken(semiring="gf3"))
    with pytest.raises(DocumentError):
        loads_instance(broken(transformations=[]))
    with pytest.raises(DocumentError):
        loads_instance(broken(metadata="free text"))
    with pytest.raises(DocumentError):
        loads_instance(broken(v=None))
    with pytest.raises(DocumentError):
        loads_instance(broken(selector=[[1.5]]))
    with pytest.raises(DocumentError):
        loads_instance(broken(selector=[["1/0"]]))
    with pytest.raises(DocumentError):
        loads_instance(broken(selector=[[1, 0], [1]]))
    # gf2 document with an out-of-domain entry
    with pytest.raises(DocumentError):
        loads_instance(broken(v=[2] + good["v"][1:]))


def _dense_rows(inst, matrix) -> list:
    rows = matrix.dense().rows if isinstance(matrix, FunctionalMatrix) else matrix.rows
    return [[e if inst.semiring is Semiring.GF2 else str(e) for e in row] for row in rows]


def _old_text(inst, metadata, version) -> str:
    """The document of *inst* at *version* 1 or 2, which the library no
    longer writes: the selector as dense rows and, at version 1, every
    transformation too."""
    data = instance_to_dict(InstanceDocument(inst, metadata))
    data["version"] = version
    data["selector"] = _dense_rows(inst, inst.selector)
    if version == 1:
        data["transformations"] = [_dense_rows(inst, t) for t in inst.transformations]
    return dumps(data)


@pytest.mark.parametrize("name, graph_file, fingerprint", [
    ("p3_v1.json", None, "c856d5a204b55949"),
    ("g6_v1.json", "g6.txt", "6a373667f9c2d8a7"),
])
def test_version_1_documents_still_load(name, graph_file, fingerprint):
    # written by `vest reduce` before version 2 existed
    text = (DATA / name).read_text()
    assert '"version": 1' in text
    g = path_graph(3) if graph_file is None else parse_graph((DATA / graph_file).read_text())
    doc = loads_instance(text)
    assert doc.instance == reduce_graph(g).instance
    # every dense vertex matrix is held only as row actions
    transformations = doc.instance.transformations
    assert all(isinstance(t, FunctionalMatrix) for t in transformations)
    assert all(form is t for form, t in zip(doc.instance.functional_forms, transformations))
    assert instance_fingerprint(doc.instance) == fingerprint
    assert doc.metadata["source_vertices"] == g.n
    # re-dumped as version 3, byte for byte what reduce writes today
    assert dumps_instance(doc) == dumps_instance(InstanceDocument(reduce_graph(g).instance,
                                                                  doc.metadata))


@pytest.mark.parametrize("name", ["g6_v1.json", "g6_v2.json", "g6_v3.json"])
def test_compiled_documents_load_the_selector_as_row_actions(name):
    # versions 1 and 2 write the selector as dense rows of single 1s,
    # version 3 as its row actions
    doc = loads_instance((DATA / name).read_text())
    compiled = reduce_graph(parse_graph((DATA / "g6.txt").read_text())).instance
    assert isinstance(doc.instance.selector, FunctionalMatrix)
    assert doc.instance.selector.actions == compiled.selector.actions
    assert doc.instance.selector.ncols == doc.instance.d == 19
    # every version re-dumps as the version 3 that reduce writes
    assert dumps_instance(doc) == (DATA / "g6_v3.json").read_text()


def test_version_1_and_2_documents_agree():
    rng = random.Random(44)
    instances = [random_rational_instance(rng) for _ in range(40)]
    for n in (1, 2, 5, 9):
        g = random_graph(rng, n, 0.4)
        instances += [reduce_graph(g, Semiring.GF2).instance,
                      reduce_graph(g, Semiring.RATIONAL).instance]
    for inst in instances:
        v3 = dumps_instance(InstanceDocument(inst, {"n": 1}))
        assert '"version": 3' in v3
        loaded = [loads_instance(text) for text in
                  (_old_text(inst, {"n": 1}, 1), _old_text(inst, {"n": 1}, 2), v3)]
        for doc in loaded:
            assert doc.instance == inst
            assert instance_fingerprint(doc.instance) == instance_fingerprint(inst)
            # any version re-dumps as version 3
            assert dumps_instance(doc) == v3


def test_compiled_documents_grow_quadratically():
    # n=16, p=.75 is the graph size of the cli-pipeline benchmark workload
    for n, p, most in ((16, 0.75, 4_500), (100, 0.3, 200_000)):
        inst = reduce_graph(random_graph(random.Random(n), n, p)).instance
        text = dumps_instance(InstanceDocument(inst, {}))
        assert len(text.encode()) <= most
        loaded = loads_instance(text).instance
        assert instance_fingerprint(loaded) == instance_fingerprint(inst)


def test_version_2_transformation_rejections():
    good = instance_to_dict(InstanceDocument(reduce_graph(path_graph(2)).instance, {}))
    d = good["d"]
    identity = list(range(d))
    assert good["transformations"][0].keys() == {"actions"}

    def with_first(transformation):
        return dumps(dict(good, transformations=[transformation] + good["transformations"][1:]))

    loads_instance(with_first({"actions": identity}))
    loads_instance(with_first({"actions": [None] * d}))
    bad = [
        {"actions": [d] + identity[1:]},          # source out of range
        {"actions": [-1] + identity[1:]},
        {"actions": [True] + identity[1:]},       # bool
        {"actions": [0.0] + identity[1:]},        # float
        {"actions": ["0"] + identity[1:]},
        {"actions": identity[1:]},                # wrong length
        {"actions": identity + [0]},
        {},                                       # missing actions
        {"rows": identity},
        {"actions": identity, "extra": 1},
        {"actions": "0,1"},                       # not a list
        {"actions": None},
    ]
    for transformation in bad:
        with pytest.raises(DocumentError):
            loads_instance(with_first(transformation))
    # row actions are a version 2 form
    with pytest.raises(DocumentError):
        loads_instance(dumps(dict(good, version=1)))
    for version in (0, 4, True, "2"):
        with pytest.raises(DocumentError):
            loads_instance(dumps(dict(good, version=version)))


def test_version_3_round_trip_in_both_semirings():
    rng = random.Random(45)
    for n in (1, 4, 8):
        g = random_graph(rng, n, 0.5)
        for semiring in Semiring:
            inst = reduce_graph(g, semiring).instance
            text = dumps_instance(InstanceDocument(inst, {"n": n}))
            data = json.loads(text)
            assert data["version"] == 3
            assert data["selector"] == {"actions": list(inst.selector.actions)}
            loaded = loads_instance(text)
            assert isinstance(loaded.instance.selector, FunctionalMatrix)
            assert loaded.instance == inst
            assert instance_fingerprint(loaded.instance) == instance_fingerprint(inst)
            assert dumps_instance(loaded) == text


def test_version_3_selector_rejections():
    good = instance_to_dict(InstanceDocument(reduce_graph(path_graph(2)).instance, {}))
    del good["h"]  # so that a selector of another length is refused for itself
    d = good["d"]
    actions = good["selector"]["actions"]
    assert actions and good["version"] == 3

    def with_selector(selector, **changes):
        return dumps(dict(good, selector=selector, **changes))

    for fine in ([None], [d - 1, 0, None, d - 1], actions):
        assert loads_instance(with_selector({"actions": fine})).instance.selector.actions == tuple(fine)
    bad = [
        {"actions": [d] + actions[1:]},           # source out of range
        {"actions": [-1] + actions[1:]},
        {"actions": [True] + actions[1:]},        # bool
        {"actions": [0.0] + actions[1:]},         # float
        {"actions": ["0"] + actions[1:]},
        {"actions": []},
        {},                                       # missing actions
        {"rows": actions},
        {"actions": actions, "extra": 1},
        {"actions": actions, "ncols": d},
        {"actions": "0,1"},                       # not a list
        {"actions": None},
    ]
    for selector in bad:
        with pytest.raises(DocumentError, match="^selector"):
            loads_instance(with_selector(selector))
    # row actions are a version 3 form for the selector
    inst = reduce_graph(path_graph(2)).instance
    for version in (1, 2):
        older = json.loads(_old_text(inst, {}, version))
        loads_instance(dumps(older))
        with pytest.raises(DocumentError, match="version 3"):
            loads_instance(dumps(dict(older, selector={"actions": actions})))


def test_bad_dense_entries_are_named_by_place():
    # new_instance checks each entry once; a refusal names the entry
    good = json.loads(_old_text(reduce_graph(path_graph(2)).instance, {}, 1))
    d = good["d"]
    for key, value, place in [
        ("v", [0] * (d - 1) + [2], "v"),
        ("v", [0] * (d - 1) + [1.0], "v"),
        ("selector", [[0] * d, [0] * (d - 1) + ["x"]], "selector row 1"),
        ("transformations", [[[0] * d] * (d - 1) + [[0] * (d - 1) + [None]]],
         f"transformation 0 row {d - 1}"),
    ]:
        with pytest.raises(DocumentError, match=f"^{place}: bad entry"):
            loads_instance(dumps(dict(good, **{key: value})))
    rational = json.loads((DATA / "q_small.json").read_text())
    transformations = rational["transformations"]
    transformations[2][0] = ["1/0", "0", "0"]
    with pytest.raises(DocumentError, match="^transformation 2 row 0: bad entry '1/0'"):
        loads_instance(dumps(rational))
    # a refusal that is not an entry's is named by new_instance
    with pytest.raises(DocumentError, match="invalid instance"):
        loads_instance(dumps(dict(good, selector=[[0] * (d + 1)])))


def test_an_empty_start_vector_is_refused_by_name():
    # refused before any matrix is read against d = 0
    data = {"format": "vest-instance", "version": 3, "semiring": "gf2", "v": [],
            "transformations": [{"actions": [None, 0]}], "selector": {"actions": [0]}}
    with pytest.raises(DocumentError, match="^v: the start vector is empty"):
        loads_instance(dumps(data))


def test_deeply_nested_json_is_a_document_error():
    with pytest.raises(DocumentError):
        loads_instance("[" * 100000)


def test_msequence_counts_are_written_as_decimal_strings():
    res = MSequenceResult(reduce_graph(path_graph(3)).instance, "dedup",
                          (1, math.factorial(30), 0))
    data = msequence_to_dict(res)
    assert data["values"][1]["m_k"] == str(math.factorial(30))


def test_counts_past_the_int_text_limit_are_written_exactly():
    # str() of an int refuses more than 4,300 digits by default; 7**6000
    # has 5,071, and every writer of counts gives all of them
    big = 7 ** 6000
    exact = str(decimal.Decimal(big))
    assert len(exact) == 5071 and count_text(big) == exact and count_text(-12) == "-12"
    res = MSequenceResult(reduce_graph(path_graph(3)).instance, "dedup", (0, big))
    assert msequence_to_dict(res)["values"][1]["m_k"] == exact
    report = VerificationReport(3, 2, Semiring.GF2, "dedup",
                                (VerificationRow(9, big, big, big, True, 0.001),))
    row = verification_to_dict(report)["rows"][0]
    assert row["m_k"] == row["d_k"] == row["expected"] == exact
    assert verification_to_text(report).count(exact) == 3


def test_booleans_are_not_read_as_ints():
    # JSON true loads as a bool, which Python counts as the int 1; with
    # d = h = m = 1, true would match each declared size
    inst = new_instance(Semiring.GF2, (1,), (FunctionalMatrix((0,)),), DenseMatrix(((1,),)))
    data = instance_to_dict(InstanceDocument(inst, {}))
    assert (data["d"], data["h"], data["m"]) == (1, 1, 1)
    assert loads_instance(dumps(data)).instance == inst
    for key in ("version", "d", "h", "m"):
        with pytest.raises(DocumentError):
            loads_instance(dumps(dict(data, **{key: True})))


def _sample_report(passed=True):
    rows = (
        VerificationRow(0, 0, 0, 0, True, 0.001),
        VerificationRow(1, 1, 1, 1, passed, 0.002),
    )
    return VerificationReport(3, 2, Semiring.GF2, "dedup", rows)


def test_verification_report_flags():
    assert _sample_report(True).all_pass
    assert not _sample_report(False).all_pass


def test_verification_renderings():
    report = _sample_report(True)
    data = verification_to_dict(report)
    assert data["all_pass"] is True
    assert data["rows"][1]["m_k"] == "1"
    text = verification_to_text(report)
    assert "all counts match" in text
    assert "[ok]" in text
    bad = verification_to_text(_sample_report(False))
    assert "MISMATCH" in bad
