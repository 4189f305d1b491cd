import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcrystal import veritas
from nilcrystal.cli import main
from nilcrystal.fields import RationalField, default_field
from nilcrystal.linalg import Mat
from nilcrystal.prepmod import module as pmodule
from nilcrystal.prepmod import simple, zero_module
from nilcrystal.rootsys import CartanGraph, a_n, affine_a1, d4

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


@pytest.fixture
def a2_graph(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(a_n(2).to_dict()))
    return str(path)


def run(args):
    return main(args)


def test_roots_table(a2_graph, capsys):
    assert run(["--graph", a2_graph, "roots", "1", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "[1, 0]" in out and "[1, 1]" in out and "[0, 1]" in out


def test_roots_json_config_embedded(a2_graph, capsys):
    code = run(["--graph", a2_graph, "--json", "--no-timestamp",
                "roots", "1", "2", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betas"] == [[1, 0], [1, 1], [0, 1]]
    assert payload["config"]["seed"] == 0
    assert "timestamp" not in payload["config"]


def test_roots_non_reduced_exits_2(a2_graph):
    assert run(["--graph", a2_graph, "roots", "1", "1"]) == 2


def test_paper_order_flag(a2_graph, capsys):
    run(["--graph", a2_graph, "--json", "--no-timestamp", "--paper-order",
         "roots", "1", "2", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["word"] == [1, 2, 1]  # palindrome; flag accepted


def test_modules_summary(a2_graph, capsys):
    assert run(["--graph", a2_graph, "modules", "V", "1", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "(1, 0)" in out and "(1, 1)" in out


def test_modules_empty_word(a2_graph, capsys):
    assert run(["--graph", a2_graph, "--json", "--no-timestamp",
                "modules", "M"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modules"] == []


def test_modules_family_n_is_an_unknown_choice(a2_graph, capsys):
    # The families are M and V; N exits 4 like any other unknown choice.
    assert run(["--graph", a2_graph, "modules", "N", "1", "2", "1"]) == 4
    assert "invalid choice: 'N'" in capsys.readouterr().err


def test_extract_simple(a2_graph, tmp_path, capsys):
    mpath = tmp_path / "s2.json"
    simple(a_n(2), 2, field=default_field()).dump(str(mpath))
    assert run(["--graph", a2_graph, "extract", str(mpath), "1", "2", "1"]) == 0
    assert "[0, 0, 1]" in capsys.readouterr().out


def test_extract_zero_module(a2_graph, tmp_path, capsys):
    mpath = tmp_path / "z.json"
    zero_module(a_n(2), default_field()).dump(str(mpath))
    assert run(["--graph", a2_graph, "extract", str(mpath), "1", "2", "1"]) == 0
    assert "[0, 0, 0]" in capsys.readouterr().out


def test_extract_corrupt_file_exits_3(a2_graph, tmp_path):
    mpath = tmp_path / "bad.json"
    mpath.write_text('{"nonsense": 1}')
    assert run(["--graph", a2_graph, "extract", str(mpath), "1", "2", "1"]) == 3


def test_extract_off_stratum_exits_1(a2_graph, tmp_path):
    mpath = tmp_path / "s1.json"
    simple(a_n(2), 1, field=default_field()).dump(str(mpath))
    assert run(["--graph", a2_graph, "extract", str(mpath), "2"]) == 1


@pytest.mark.parametrize("n", [65, 10**6], ids=["65", "1e6"])
def test_graph_files_over_the_vertex_cap_exit_2_and_3(tmp_path, capsys, n):
    # A graph file past the cap exits 2, and a module file whose graph is
    # past it exits 3, both before anything is built.
    big = {"vertices": n, "edges": []}
    gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
    gpath.write_text(json.dumps(big))
    mpath.write_text(json.dumps({"graph": big, "field": {"kind": "rational"}, "dims": [],
                                 "arrows": []}))
    assert run(["--graph", str(gpath), "roots", "1"]) == 2
    assert f"at most 64 vertices, got {n}" in capsys.readouterr().err
    assert run(["--graph", str(GRAPHS / "a2.json"), "extract", str(mpath), "1"]) == 3
    assert f"at most 64 vertices, got {n}" in capsys.readouterr().err


def test_missing_graph_exits_4(tmp_path):
    assert run(["--graph", str(tmp_path / "nope.json"), "roots", "1"]) == 4


def test_closed_output_pipe_exits_4_without_traceback():
    # The read end is closed before the command starts, so its first write
    # meets a broken pipe however short the output is.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(GRAPHS.parent / "src"), env.get("PYTHONPATH")) if p)
    try:
        for words in (["modules", "V", "1", "2", "1", "3", "2", "1"], ["roots", "1"]):
            done = subprocess.run(
                [sys.executable, "-m", "nilcrystal.cli", "--graph", str(GRAPHS / "a3.json"),
                 "--json", *words], stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120)
            assert (done.returncode, done.stderr) == (4, "")
    finally:
        os.close(write_end)


def test_small_prime_rejected(a2_graph):
    assert run(["--graph", a2_graph, "--field", "prime:97",
                "modules", "M", "1"]) == 2


def test_composite_modulus_rejected():
    assert run(["--graph", str(GRAPHS / "a3.json"), "--field", "prime:4294967296",
                "verify", "modules"]) == 2


@pytest.mark.parametrize("spec", ["prime:abc", "prime:7", "float"])
def test_bad_field_exits_2_for_every_command(a2_graph, tmp_path, spec):
    mpath = tmp_path / "s.json"
    simple(a_n(2), 2, field=default_field()).dump(str(mpath))
    for command in (["roots", "1"], ["extract", str(mpath), "2"]):
        assert run(["--graph", a2_graph, "--field", spec] + command) == 2


def _module_file(tmp_path, graph, dims, arrows):
    gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
    gpath.write_text(json.dumps(graph.to_dict()))
    mpath.write_text(json.dumps({
        "graph": graph.to_dict(),
        "field": {"kind": "prime", "p": default_field().p},
        "dims": dims,
        "arrows": arrows,
    }))
    return str(gpath), str(mpath)


@pytest.mark.parametrize("dims", [[1], [1, -1, 0]])
def test_extract_malformed_dims_exits_3(tmp_path, capsys, dims):
    gpath, mpath = _module_file(tmp_path, a_n(3), dims, [])
    assert run(["--graph", gpath, "extract", mpath, "1"]) == 3
    assert "dims" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("edge", False), ("dir", 1.0), ("entries", "")],
                         ids=["bool-edge", "float-dir", "string-entries"])
def test_extract_mistyped_arrow_field_exits_3(tmp_path, capsys, field, value):
    # Each of these read as the arrow it resembles: False == 0, 1.0 == 1,
    # and a string iterates as its characters.
    arrows = [{"edge": 0, "dir": 1, "entries": []}, {"edge": 0, "dir": -1, "entries": []}]
    arrows[0][field] = value
    gpath, mpath = _module_file(tmp_path, a_n(2), [1, 0], arrows)
    assert run(["--graph", gpath, "extract", mpath, "1"]) == 3
    assert "must be" in capsys.readouterr().err


def test_extract_refuses_a_module_past_the_dimension_cap_before_building(tmp_path, capsys,
                                                                       monkeypatch):
    graph, cap = CartanGraph(1, ()), pmodule.FILE_DIM_CAP
    # The cap itself loads and extracts, in a fraction of a second.
    gpath, mpath = _module_file(tmp_path, graph, [cap], [])
    assert run(["--graph", gpath, "extract", mpath, "1"]) == 0
    assert capsys.readouterr().out == f"a = [{cap}]\n"

    def refuse(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(Mat, "identity", staticmethod(refuse))
    monkeypatch.setattr(Mat, "zero", staticmethod(refuse))
    gpath, mpath = _module_file(tmp_path, graph, [cap + 1], [])
    assert run(["--graph", gpath, "extract", mpath, "1"]) == 3
    assert f"at most {cap}, got {cap + 1}" in capsys.readouterr().err


def test_extract_zero_denominator_exits_3(tmp_path):
    gpath, mpath = _module_file(tmp_path, a_n(2), [1, 1], [
        {"edge": 0, "dir": 1, "entries": ["1/0"]}, {"edge": 0, "dir": -1, "entries": ["0"]}])
    data = json.loads(Path(mpath).read_text())
    Path(mpath).write_text(json.dumps(dict(data, field={"kind": "rational"})))
    assert run(["--graph", gpath, "extract", mpath, "1"]) == 3


@pytest.mark.parametrize("entry", [1.9, True], ids=["float", "bool"])
def test_extract_non_string_prime_entry_exits_3(tmp_path, capsys, entry):
    # Over F_p as over Q, an entry must be a string: int() would read 1.9
    # and true as 1.
    gpath, mpath = _module_file(tmp_path, a_n(2), [1, 1], [
        {"edge": 0, "dir": 1, "entries": [entry]}, {"edge": 0, "dir": -1, "entries": ["0"]}])
    assert run(["--graph", gpath, "extract", mpath, "1"]) == 3
    assert "must be a string" in capsys.readouterr().err


def test_extract_non_nilpotent_exits_3(tmp_path, capsys):
    # x0 y0 + x1 y1 = 1 - 1 = 0 holds at both vertices, but y0 x0 = 1 is an
    # invertible cycle, so no power of the radical vanishes.
    arrows = [{"edge": e, "dir": d, "entries": [v]}
              for e, d, v in ((0, 1, "1"), (0, -1, "1"), (1, 1, "1"), (1, -1, "-1"))]
    gpath, mpath = _module_file(tmp_path, affine_a1(), [1, 1], arrows)
    assert run(["--graph", gpath, "extract", mpath, "1"]) == 3
    assert "not nilpotent" in capsys.readouterr().err


def test_verify_exit_codes(a2_graph, tmp_path):
    out = tmp_path / "rep.json"
    code = run(["--graph", a2_graph, "--seed", "7", "--out", str(out),
                "verify", "all", "--word", "1", "2", "1",
                "--bound", "1", "--corpus", "5", "--maxlen", "2"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {r["check_id"] for r in payload["reports"]} >= {
        "reflection-contracts", "modules", "cross-model", "transitions"}


def test_verify_summary_says_when_a_check_was_vacuous(capsys):
    # A one-letter word has no braid moves, so the transitions check passes
    # without checking anything, and the summary line says so.
    code = run(["--graph", str(GRAPHS / "a3.json"), "--json", "--no-timestamp",
                "verify", "transitions", "--word", "1"])
    assert code == 0
    out, err = capsys.readouterr()
    (rep,) = json.loads(out)["reports"]
    assert rep["outcome"] == "vacuous-pass"
    assert err.startswith("transitions: VACUOUS (no braid moves for this word) (")
    assert "PASS" not in err


def test_verify_summary_calls_an_empty_mutated_corpus_vacuous(capsys):
    # With no corpus the mutated contracts check nothing: that is not a
    # missed mutation.
    code = run(["--graph", str(GRAPHS / "a3.json"), "--no-timestamp",
                "verify", "reflection-contracts", "--corpus", "0"])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in err] == [
        "reflection-contracts: VACUOUS (empty corpus)",
        "reflection-contracts-mutated: VACUOUS (empty corpus)",
    ]


def test_verify_summary_calls_contracts_on_a_graph_without_vertices_vacuous(tmp_path, capsys):
    # No vertex to reflect at and none to draw a corpus module on.
    path = tmp_path / "g0.json"
    path.write_text(json.dumps({"vertices": 0, "edges": []}))
    assert run(["--graph", str(path), "--no-timestamp",
                "verify", "reflection-contracts"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in err] == [
        "reflection-contracts: VACUOUS (graph has no vertices)",
        "reflection-contracts-mutated: VACUOUS (graph has no vertices)",
    ]


@pytest.mark.parametrize("graph", ["a2.json", "affine_a1.json"])
def test_verify_summary_calls_a_graph_without_a_sign_witness_vacuous(capsys, graph):
    # No vertex is fed from two places, so both signs build valid modules.
    code = run(["--graph", str(GRAPHS / graph), "--no-timestamp",
                "verify", "reflection-contracts", "--corpus", "2"])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in err] == [
        "reflection-contracts: PASS",
        "reflection-contracts-mutated: VACUOUS (no sign witness on this graph)",
    ]


def test_verify_summary_fails_a_mutated_run_that_passes(monkeypatch, capsys):
    # A mutated run that checks contracts and passes them missed the mutation.
    real = veritas.check_reflection_contracts

    def unmutated(g, size, rng, fld=None, twist=1):
        r = real(g, size, rng, fld=fld)
        if twist != 1:
            r.check_id = "reflection-contracts-mutated"
        return r

    monkeypatch.setattr(veritas, "check_reflection_contracts", unmutated)
    code = run(["--graph", str(GRAPHS / "a3.json"), "--no-timestamp",
                "verify", "reflection-contracts", "--corpus", "2"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[1].startswith("reflection-contracts-mutated: FAIL (mutation not detected) (")


@pytest.mark.parametrize("flag", ["--bound", "--samples", "--maxlen", "--corpus"])
def test_verify_negative_counts_exit_4(a2_graph, flag):
    assert run(["--graph", a2_graph, "verify", "cross-model", "--word", "1", "2",
                flag, "-1"]) == 4


def test_verify_needs_word(a2_graph):
    assert run(["--graph", a2_graph, "verify", "cross-model"]) == 4


def test_verify_all_needs_word_before_any_suite_runs(a2_graph, monkeypatch):
    calls = []
    monkeypatch.setattr(veritas, "check_reflection_contracts", lambda *a, **k: calls.append(a))
    assert run(["--graph", a2_graph, "verify", "all"]) == 4
    assert calls == []


@pytest.mark.parametrize("args", [
    ["--out", "{missing}", "roots", "1", "2"],
    ["--out", "{missing}", "verify", "reflection-contracts", "--corpus", "0"],
    ["--no-timestamp", "--out", "{report}", "verify", "reflection-contracts", "--corpus", "0",
     "--csv", "{missing}"],
], ids=["out", "verify-out", "csv"])
def test_unwritable_output_path_exits_4(tmp_path, capsys, args):
    paths = {"missing": str(tmp_path / "no-such-dir" / "x"), "report": str(tmp_path / "r.json")}
    code = run(["--graph", str(GRAPHS / "a3.json")] + [a.format(**paths) for a in args])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {paths['missing']}: ")
    assert "Traceback" not in err


def test_byte_identical_reruns(a2_graph, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        run(["--graph", a2_graph, "--json", "--no-timestamp", "--out", str(p),
             "modules", "M", "1", "2", "1"])
    assert p1.read_bytes() == p2.read_bytes()


# sha256 of the canonical JSON of `verify all` on A3 at seed 7, each
# report's `wall_time` dropped. A change that keeps every outcome, witness,
# count and draw keeps these digests.
VERIFY_ALL_SHA256 = {
    None: "ce9ee82a90474e9cb557de5b332b24eb43abaed66556e9372ba01ae64f270abf",
    "rat": "8637764a884ae0a985b667bb4312ce561bf5ff794c98b02b54e4b63c0b2bc4bf",
}


@pytest.mark.parametrize("field", list(VERIFY_ALL_SHA256), ids=["prime", "rat"])
def test_verify_all_reports_are_pinned(field, monkeypatch, capsys):
    monkeypatch.chdir(GRAPHS.parent)  # the config records the graph path as given
    args = ["--graph", "graphs/a3.json", "--seed", "7", "--json", "--no-timestamp"]
    args += ["--field", field] if field else []
    assert run(args + ["verify", "all", "--word", "1", "2", "1", "--bound", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for rep in payload["reports"]:
        del rep["wall_time"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == VERIFY_ALL_SHA256[field]


@pytest.mark.parametrize("graph", [
    [], None, {"vertices": "2", "edges": [[1, 2]]}, {"vertices": 2.5, "edges": []},
    {"vertices": 2, "edges": 5}, {"vertices": 2, "edges": [None]},
    {"vertices": 2, "edges": [[1, 2]], "orientation": 3},
])
def test_mistyped_graph_file_exits_4(tmp_path, graph):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    assert run(["--graph", str(path), "roots", "1"]) == 4


@pytest.mark.parametrize("content", [
    b"[" * 200_000, b"\xff\xfe{", b"1" * 4_301,
], ids=["nested-200000-deep", "not-utf-8", "4301-digit-integer"])
def test_files_json_cannot_parse_exit_4_as_a_graph_and_3_as_a_module(tmp_path, capsys,
                                                                      content):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    assert run(["--graph", str(path), "roots", "1"]) == 4
    assert "cannot read graph file" in capsys.readouterr().err
    assert run(["--graph", str(GRAPHS / "a2.json"), "extract", str(path), "1"]) == 3
    assert "invalid module file" in capsys.readouterr().err


def test_orientation_is_the_edge_multiset_in_any_order(tmp_path):
    # Frozensets compare by inclusion, so sorting a list of them does not
    # put it in a canonical order: a check by sorted lists refused this file.
    path = tmp_path / "g.json"
    good = {"vertices": 3, "edges": [[1, 2], [2, 3]], "orientation": [[3, 2], [2, 1]]}
    path.write_text(json.dumps(good))
    assert run(["--graph", str(path), "roots", "1", "2", "1"]) == 0
    assert CartanGraph.from_dict(good).edges == ((3, 2), (2, 1))
    double = {"vertices": 2, "edges": [[1, 2], [1, 2]], "orientation": [[2, 1], [1, 2]]}
    assert CartanGraph.from_dict(double).edges == ((2, 1), (1, 2))
    for data in (dict(good, orientation=[[3, 2]]),
                 dict(good, orientation=[[3, 2], [2, 1], [1, 2]]),
                 dict(good, orientation=[[3, 1], [2, 1]]),
                 dict(double, orientation=[[2, 1], [2, 1], [1, 2]])):
        path.write_text(json.dumps(data))
        assert run(["--graph", str(path), "roots", "1", "2", "1"]) == 4


# Small, often malformed inputs for the fuzzers below.
_junk = st.sampled_from([None, True, -1, 2.5, "2", "", [], {}, [None], [[1, 2, 3]]])
_pairs = st.one_of(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), max_size=3),
                   _junk)
_graphs = st.one_of(
    st.sampled_from([g.to_dict() for g in (a_n(2), a_n(3), affine_a1(), d4())]),
    st.fixed_dictionaries({"vertices": st.one_of(st.integers(0, 3), _junk), "edges": _pairs},
                          optional={"orientation": _pairs}),
    _junk,
)
_sound_modules = [m.to_dict() for fld in (default_field(), RationalField())
                  for m in veritas.random_corpus(a_n(2), 3, random.Random(0), fld)
                  + [zero_module(affine_a1(), fld), simple(a_n(3), 2, field=fld)]]
_entries = st.lists(st.sampled_from(["0", "1", "-1", "2/3", "1/0", "1/2/3", "x", "",
                                     1, 0.5, None]), max_size=4)


@st.composite
def _modules(draw):
    """A sound module file, with up to two of its fields replaced."""
    data = json.loads(json.dumps(draw(st.sampled_from(_sound_modules))))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["graph", "field", "p", "dims", "arrows", "edge", "dir",
                                    "drop"] + ["entries"] * 4))
        arrows = data.get("arrows")
        if key in ("graph", "dims", "arrows", "field"):
            data[key] = draw(_graphs if key == "graph" else st.one_of(
                _junk, st.lists(st.integers(-1, 2), max_size=3)))
        elif key == "p" and isinstance(data.get("field"), dict):
            data["field"] = {"kind": "prime", "p": draw(st.sampled_from([7, 4, -5, "7"]))}
        elif key == "drop" and data:
            del data[draw(st.sampled_from(sorted(data)))]
        elif isinstance(arrows, list) and arrows and isinstance(arrows[0], dict):
            arrows[draw(st.integers(0, len(arrows) - 1))][key] = draw(
                _entries if key == "entries" else st.one_of(st.integers(-1, 2), _junk))
    return data


_fields = st.sampled_from(["rat", "prime", "prime:4294967311", "prime:2305843009213693951",
                           "prime:7", "prime:4", "prime:x", "prime:-5", "float", "", "-x"])


@settings(max_examples=60, deadline=None)
@given(graph=_graphs, spec=_fields, word=st.lists(st.integers(-1, 3), max_size=4),
       command=st.sampled_from(["roots", "modules M", "modules V", "modules N"]))
def test_bad_graph_files_fields_and_words_map_to_exit_codes(tmp_path_factory, graph, spec,
                                                            word, command):
    path = tmp_path_factory.getbasetemp() / "fuzz-graph.json"
    path.write_text(json.dumps(graph))
    args = ["--graph", str(path), "--field", spec] + command.split()
    assert run(args + [str(x) for x in word]) in {0, 1, 2, 3, 4}


@settings(max_examples=60, deadline=None)
@given(module=_modules(), spec=_fields,
       word=st.lists(st.integers(-1, 3), min_size=1, max_size=3))
def test_bad_module_files_map_to_exit_codes(tmp_path_factory, module, spec, word):
    path = tmp_path_factory.getbasetemp() / "fuzz-module.json"
    path.write_text(json.dumps(module))
    args = ["--graph", str(GRAPHS / "a2.json"), "--field", spec, "extract", str(path)]
    assert run(args + [str(x) for x in word]) in {0, 1, 2, 3, 4}
