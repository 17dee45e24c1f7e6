"""End-to-end command-line behavior, driven through main()."""

from __future__ import annotations

import decimal
import io
import json
import sys
import time
import weakref
from pathlib import Path

import pytest

import vest.cli
import vest.graphs
from vest import (FunctionalMatrix, Semiring, VestError, instance_fingerprint, parse_graph,
                  reduce_graph)
from vest.cli import main
from vest.documents import dumps_instance, loads_instance
from vest.evaluate import PackedEngine, engine_for

from helpers import Reference, count_hashes

P3_EDGELIST = "3 2\n0 1\n1 2\n"
P3_DIMACS = "c path\np edge 3 2\ne 1 2\ne 2 3\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_EDGELIST)
    return str(path)


@pytest.fixture
def p3_instance(tmp_path, p3_file):
    out = str(tmp_path / "p3.json")
    assert main(["reduce", "-i", p3_file, "-o", out]) == 0
    return out


def test_reduce_writes_a_loadable_document(p3_instance, capsys):
    doc = loads_instance(Path(p3_instance).read_text())
    assert doc.instance.d == 10 and doc.instance.m == 3 and doc.instance.h == 6
    assert doc.metadata["source_vertices"] == 3
    assert doc.metadata["source_edges"] == 2


def test_reduce_to_stdout_splits_summary_to_stderr(p3_file, capsys):
    assert main(["reduce", "-i", p3_file]) == 0
    captured = capsys.readouterr()
    doc = loads_instance(captured.out)
    assert doc.instance.m == 3
    assert "dimension 10" in captured.err


@pytest.mark.parametrize("name", ["g6", "g12"])
def test_reduce_reproduces_the_golden_document(name, capsys):
    # the golden files pin the written layout; CI diffs the same output
    # against them. g12 has vertices of degree 1 to 5.
    assert main(["reduce", "-i", str(DATA / f"{name}.txt")]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}_v3.json").read_text()


def test_reduce_accepts_dimacs(tmp_path, capsys):
    path = tmp_path / "p3.col"
    path.write_text(P3_DIMACS)
    assert main(["reduce", "-i", str(path), "--format", "dimacs"]) == 0
    doc = loads_instance(capsys.readouterr().out)
    assert doc.instance.m == 3


def test_reduce_semiring_flag(p3_file, capsys):
    assert main(["reduce", "-i", p3_file, "--semiring", "q"]) == 0
    text = capsys.readouterr().out
    doc = loads_instance(text)
    assert doc.instance.semiring.value == "q"
    # written at version 3, the selector as row actions, and read back
    assert json.loads(text)["selector"] == {"actions": [0, 1, 3, 4, 6, 7]}
    assert doc.instance == reduce_graph(parse_graph(P3_EDGELIST), Semiring.RATIONAL).instance
    assert dumps_instance(doc) == text


def test_eval_text_output(p3_instance, capsys):
    assert main(["eval", "-i", p3_instance, "--kmax", "3"]) == 0
    assert capsys.readouterr().out == "M_0 = 0\nM_1 = 1\nM_2 = 6\nM_3 = 6\n"


def test_eval_json_output(p3_instance, capsys):
    assert main(["eval", "-i", p3_instance, "--kmax", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "vest-msequence"
    assert [row["m_k"] for row in data["values"]] == ["0", "1", "6", "6"]


def test_eval_hashes_only_for_json(p3_instance, capsys, monkeypatch):
    # only the count-sequence document reads the instance's digest
    hashed = count_hashes(monkeypatch)
    assert main(["eval", "-i", p3_instance, "--kmax", "2"]) == 0
    assert capsys.readouterr().out == "M_0 = 0\nM_1 = 1\nM_2 = 6\n"
    assert hashed == []
    assert main(["eval", "-i", p3_instance, "--kmax", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["instance"] == "c856d5a204b55949"
    assert len(hashed) == 1


def test_eval_prints_counts_past_the_int_text_limit(tmp_path, capsys):
    # 16 identity steps and a zero selector accept all 16**k sequences;
    # 16**3572 has 4,302 digits, past the 4,300 that str() of an int allows
    # by default, and the CLI still prints it exactly, as text and as JSON
    path = tmp_path / "all16.json"
    path.write_text(json.dumps({
        "format": "vest-instance", "version": 3, "semiring": "gf2", "d": 1, "h": 1,
        "m": 16, "v": [1], "transformations": [{"actions": [0]}] * 16,
        "selector": {"actions": [None]}, "metadata": {}}))
    exact = decimal.Decimal(16 ** 3572)
    assert main(["eval", "-i", str(path), "--kmax", "3572"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("M_3572 = ") and len(last) == len("M_3572 = ") + 4302
    assert decimal.Decimal(last.split(" = ")[1]) == exact
    assert main(["eval", "-i", str(path), "--kmax", "3572", "--json"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert decimal.Decimal(values[-1]["m_k"]) == exact and values[3]["m_k"] == "4096"


def test_eval_methods_match(p3_instance, capsys):
    assert main(["eval", "-i", p3_instance, "--kmax", "2", "--method", "brute"]) == 0
    brute = capsys.readouterr().out
    assert main(["eval", "-i", p3_instance, "--kmax", "2", "--method", "dedup"]) == 0
    assert capsys.readouterr().out == brute


def test_eval_output_file(p3_instance, tmp_path):
    out = tmp_path / "counts.txt"
    assert main(["eval", "-i", p3_instance, "--kmax", "1", "-o", str(out)]) == 0
    assert out.read_text() == "M_0 = 0\nM_1 = 1\n"


def test_rational_fixture_counts_are_pinned(capsys):
    # q_small.json has fractional entries and dense non-functional
    # transformations; CI diffs the same eval output against q_small_m4.txt.
    # q_small_indent2.json is the same document in the json.dumps(indent=2)
    # layout of earlier releases, which still loads and re-dumps to it.
    text = (DATA / "q_small.json").read_text()
    doc = loads_instance(text)
    assert instance_fingerprint(doc.instance) == "7c51e395f0a53454"
    for source in (text, (DATA / "q_small_indent2.json").read_text()):
        assert loads_instance(source) == doc
        assert dumps_instance(loads_instance(source)) == text
    assert Reference(doc.instance).counts(4) == (0, 2, 5, 14, 41)
    pinned = (DATA / "q_small_m4.txt").read_text()
    assert pinned == "".join(f"M_{k} = {m}\n" for k, m in enumerate((0, 2, 5, 14, 41)))
    for method in ("dedup", "brute"):
        assert main(["eval", "-i", str(DATA / "q_small.json"), "--kmax", "4",
                     "--method", method]) == 0
        assert capsys.readouterr().out == pinned


def test_support_fixture_counts_are_pinned(capsys):
    # q_support.json holds only row actions and a start vector with zeros and
    # entries outside {0, 1}; CI diffs the same eval output against
    # q_support_m4.txt, whose counts were written when such an instance ran
    # on the generic engine. It now runs on the packed one.
    inst = loads_instance((DATA / "q_support.json").read_text()).instance
    assert 0 in inst.v and any(e not in (0, 1) for e in inst.v)
    assert all(isinstance(t, FunctionalMatrix) for t in (inst.selector, *inst.transformations))
    assert isinstance(engine_for(inst), PackedEngine)
    assert Reference(inst).counts(4) == (0, 1, 2, 5, 12)
    pinned = (DATA / "q_support_m4.txt").read_text()
    assert pinned == "".join(f"M_{k} = {m}\n" for k, m in enumerate((0, 1, 2, 5, 12)))
    for method in ("dedup", "brute"):
        assert main(["eval", "-i", str(DATA / "q_support.json"), "--kmax", "4",
                     "--method", method]) == 0
        assert capsys.readouterr().out == pinned


def test_mixed_fixture_counts_are_pinned(capsys):
    # q_mixed.json puts a dense transformation beside row-action ones and a
    # selector held as row actions, with a zero row, on the generic engine;
    # CI diffs the same eval output against q_mixed_m4.txt
    inst = loads_instance((DATA / "q_mixed.json").read_text()).instance
    assert isinstance(inst.selector, FunctionalMatrix) and None in inst.selector.actions
    assert not isinstance(engine_for(inst), PackedEngine)
    assert Reference(inst).counts(4) == (0, 0, 1, 5, 21)
    pinned = (DATA / "q_mixed_m4.txt").read_text()
    assert pinned == "".join(f"M_{k} = {m}\n" for k, m in enumerate((0, 0, 1, 5, 21)))
    for method in ("dedup", "brute"):
        assert main(["eval", "-i", str(DATA / "q_mixed.json"), "--kmax", "4",
                     "--method", method]) == 0
        assert capsys.readouterr().out == pinned


def test_check_accept_and_reject(p3_instance, capsys):
    assert main(["check", "-i", p3_instance, "--seq", "1"]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"
    assert main(["check", "-i", p3_instance, "--seq", "0"]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"
    # repeated vertex never accepts
    assert main(["check", "-i", p3_instance, "--seq", "1,1"]) == 1


def test_check_empty_sequence(p3_instance, capsys):
    assert main(["check", "-i", p3_instance, "--seq", ""]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"


def test_check_bad_sequences(p3_instance, capsys):
    assert main(["check", "-i", p3_instance, "--seq", "9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["check", "-i", p3_instance, "--seq", "zero"]) == 2
    assert "not an integer" in capsys.readouterr().err


def test_domsets(p3_file, capsys):
    assert main(["domsets", "-i", p3_file, "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "D_2 = 3"


def test_domsets_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(P3_EDGELIST))
    assert main(["domsets", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "D_1 = 1"


# a self-loop at the file's vertex 1, then the edge between the two vertices
SELF_LOOP_GRAPHS = {"dimacs": "p edge 2 2\ne 1 1\ne 1 2\n", "edgelist": "2 2\n1 1\n0 1\n"}


@pytest.mark.parametrize("fmt", SELF_LOOP_GRAPHS)
def test_graph_warnings_are_one_line_naming_the_file_vertex(fmt, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SELF_LOOP_GRAPHS[fmt]))
    assert main(["domsets", "--format", fmt, "--k", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "D_1 = 2\n"
    assert captured.err == "warning: ignoring self-loop at vertex 1\n"


def test_verify_passes_on_sound_compilation(p3_file, capsys):
    assert main(["verify", "-i", p3_file, "--kmax", "3"]) == 0
    out = capsys.readouterr().out
    assert "all counts match" in out
    assert "M_2 = 6" in out and "D_2 = 3" in out


def test_verify_json(p3_file, capsys):
    assert main(["verify", "-i", p3_file, "--kmax", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_pass"] is True
    assert [row["m_k"] for row in data["rows"]] == ["0", "1", "6"]


def test_verify_brute_method(p3_file, capsys):
    assert main(["verify", "-i", p3_file, "--kmax", "2", "--method", "brute"]) == 0
    assert "evaluator: brute" in capsys.readouterr().out


def test_verify_detects_sabotage(p3_file, capsys):
    assert main(["verify", "-i", p3_file, "--kmax", "3", "--corrupt"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_missing_input_file_is_a_usage_error(capsys):
    assert main(["eval", "-i", "/no/such/file.json", "--kmax", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 seven\n")
    assert main(["domsets", "-i", str(bad), "--k", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_malformed_instance_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["eval", "-i", str(bad), "--kmax", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_kmax_is_required(p3_instance):
    with pytest.raises(SystemExit) as err:
        main(["eval", "-i", p3_instance])
    assert err.value.code == 2


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["verify", "--kmax", "-1"],
    ["eval", "--kmax", "-1"],
    ["domsets", "--k", "-1"],
])
def test_negative_lengths_are_usage_errors(args, p3_file, p3_instance, capsys):
    source = p3_instance if args[0] == "eval" else p3_file
    assert main([args[0], "-i", source] + args[1:]) == 2
    _assert_one_line_error(capsys)


def test_huge_dedup_lengths_are_refused_at_once(p3_file, p3_instance, capsys):
    start = time.perf_counter()
    for args in (["eval", "-i", p3_instance], ["verify", "-i", p3_file]):
        assert main(args + ["--kmax", str(10**21)]) == 2
        _assert_one_line_error(capsys)
    assert time.perf_counter() - start < 1.0


def test_huge_brute_force_lengths_are_refused_at_once(p3_file, p3_instance, capsys):
    # m = 3: length 17 is the first past the brute-force cap of 10**8
    # sequences, so neither command may count lengths 0..16 first
    start = time.perf_counter()
    for args in (["eval", "-i", p3_instance], ["verify", "-i", p3_file]):
        for k_max in (17, 10**21):
            assert main(args + ["--method", "brute", "--kmax", str(k_max)]) == 2
            _assert_one_line_error(capsys)
    assert time.perf_counter() - start < 1.0


def test_verify_refuses_a_subset_job_past_the_cap_before_counting(tmp_path, capsys,
                                                                  monkeypatch):
    # C(6, 3) = 20 sets: under a cap of 19, --kmax 3 on six vertices is
    # refused before any row is counted
    monkeypatch.setattr(vest.graphs, "DEFAULT_SUBSET_CAP", 19)
    path = tmp_path / "e6.txt"
    path.write_text("6 0\n")
    for method in ("dedup", "brute"):
        assert main(["verify", "-i", str(path), "--kmax", "3", "--method", method]) == 2
        _assert_one_line_error(capsys)
    assert main(["verify", "-i", str(path), "--kmax", "2"]) == 0


def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("3 2\n0 1\n1 2\nc café\n".encode("latin-1"))
    for args in (["domsets", "-i", str(bad), "--k", "1"],
                 ["verify", "-i", str(bad), "--kmax", "1"],
                 ["eval", "-i", str(bad), "--kmax", "1"],
                 ["check", "-i", str(bad), "--seq", "0"]):
        assert main(args) == 2
        _assert_one_line_error(capsys)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()),
                                                      encoding="utf-8"))
    assert main(["domsets", "--k", "1"]) == 2
    _assert_one_line_error(capsys)


def _bad_instance_documents(good_path, tmp_path):
    good = json.loads(Path(good_path).read_text())
    d, actions = good["d"], good["selector"]["actions"]
    broken = {
        "deep": "[" * 100000,
        "long_int": '{"v": [' + "1" * 5000 + "]}",
        "version4": json.dumps(dict(good, version=4)),
        "action": json.dumps(dict(good, transformations=[{"actions": [True] * good["d"]}])),
        "selector_v2": json.dumps(dict(good, version=2)),
        "dense_entry": json.dumps(dict(good, v=[2] * d)),
        "dense_rows": json.dumps(dict(good, transformations=["x"])),
        "rational_null": json.dumps(dict(good, semiring="q", v=[None] * d)),
    }
    for i, selector in enumerate([
            {"actions": [d] + actions[1:]}, {"actions": [-1] + actions[1:]},
            {"actions": [True] + actions[1:]}, {"actions": [0.5] + actions[1:]},
            {"actions": ["0"] + actions[1:]}, {"actions": []}, {},
            {"actions": actions, "extra": 1}]):
        broken[f"selector{i}"] = json.dumps(dict(good, selector=selector))
    for name, text in broken.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        yield str(path)


@pytest.mark.parametrize("command", [["eval", "--kmax", "1"], ["check", "--seq", "0"]])
def test_bad_instance_documents_are_usage_errors(command, p3_instance, tmp_path, capsys):
    for path in _bad_instance_documents(p3_instance, tmp_path):
        assert main([command[0], "-i", path] + command[1:]) == 2
        _assert_one_line_error(capsys)


@pytest.mark.parametrize("edge, message", [
    ("e 1 2 3", "line 2: expected 'e u v', got 'e 1 2 3'"),
    ("e 1 x", "line 2: non-integer endpoint in 'e 1 x'"),
])
def test_malformed_dimacs_edge_lines_are_usage_errors(edge, message, tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_text(f"p edge 3 1\n{edge}\n")
    assert main(["domsets", "-i", str(path), "--format", "dimacs", "--k", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class _Held:
    pass


@pytest.mark.parametrize("error", [MemoryError, VestError])
def test_error_line_is_written_once_the_failed_call_is_freed(error, p3_instance, monkeypatch):
    # the handler's traceback holds the frames of the failed call, and all
    # they hold: the "error:" line is written only once they are freed
    refs, alive = [], []

    def m_sequence(*args, **kwargs):
        held = _Held()
        refs.append(weakref.ref(held))
        raise error("no room for the level")

    class Stderr(io.StringIO):
        def write(self, text):
            alive.append(refs[0]() is not None)
            return super().write(text)

    monkeypatch.setattr(vest.cli, "m_sequence", m_sequence)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["eval", "-i", p3_instance, "--kmax", "2"]) == 2
    assert alive and not any(alive)
    err = sys.stderr.getvalue()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# 10**12 vertices: the adjacency list alone would take 8 TB, so allocating
# it fails at once. 10**19 vertices do not even fit a list index.
HUGE_VERTEX_COUNTS = (10**12, 10**19)
HUGE_GRAPHS = {"edgelist": "{} 0\n", "dimacs": "p edge {} 0\n"}


@pytest.mark.parametrize("fmt", HUGE_GRAPHS)
@pytest.mark.parametrize("command", [["domsets", "--k", "1"], ["verify", "--kmax", "1"],
                                     ["reduce"]])
def test_graph_too_large_to_allocate_is_a_usage_error(command, fmt, tmp_path, capsys):
    path = tmp_path / "huge.txt"
    for n in HUGE_VERTEX_COUNTS:
        path.write_text(HUGE_GRAPHS[fmt].format(n))
        assert main([command[0], "-i", str(path), "--format", fmt] + command[1:]) == 2
        _assert_one_line_error(capsys)
