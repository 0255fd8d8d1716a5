"""End-to-end tests of the command line front end via run()."""

import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from char2conf import cli, linalg, oracle
from char2conf.cli import (
    CommandResult, main, parse_arf, parse_degrees, parse_vector, render_arf,
    run,
)
from char2conf.confgeo import CLASS_TABLE, Geometry, build_geometry
from char2conf.gf2field import Arf, GF2Field
from char2conf.quadspace import QuadraticForm

GF2 = GF2Field(1)
GF4 = GF2Field(2)


def test_field_arithmetic():
    assert run(["field", "--n", "4", "trace", "5"]).payload == "0"
    assert run(["field", "--n", "4", "sqrt", "5"]).payload == "3"
    assert run(["field", "--n", "4", "inv", "5"]).payload == "11"
    assert run(["field", "--n", "4", "h", "5"]).payload == "7"
    assert run(["field", "--n", "2", "mul", "2", "3"]).payload == "1"
    assert run(["field", "--n", "2", "add", "2", "3"]).payload == "1"
    assert run(["field", "--n", "2", "div", "3", "2"]).payload == "2"


def test_field_solve():
    r = run(["field", "--n", "2", "solve", "1"])
    assert r.exit_code == 0
    assert r.payload == "2 3"
    r = run(["field", "--n", "2", "solve", "2"])
    assert r.exit_code == 0
    assert r.payload == "no solution (trace 1)"


def test_field_json_document():
    r = run(["field", "--n", "2", "solve", "1", "--json"])
    doc = json.loads(r.payload)
    assert doc["result"] == [2, 3]
    assert doc["field"] == {"n": 2, "modulus": 7}


def test_field_input_errors():
    assert run(["field", "trace", "5"]).exit_code == 1          # no --n
    assert run(["field", "--n", "2", "add", "1"]).exit_code == 1
    assert run(["field", "--n", "2", "trace", "1", "2"]).exit_code == 1
    assert run(["field", "--n", "1", "div", "1", "0"]).exit_code == 1
    assert run(["field", "--n", "2", "trace", "9"]).exit_code == 1


def test_bad_integers_name_the_option_and_the_text(tmp_path, capsys):
    # an integer that does not parse is one line naming where it came
    # from and the text, never Python's own int() message
    geometry = tmp_path / "g.json"
    run(["build", "--n", "1", "--arf-p", "e", "--arf-l", "e",
         "--out", str(geometry)])
    points = ["--p1", "0,0,0,1,0,0", "--p2", "0,0,0,1,0,0"]
    for argv, message in (
            (["field", "--n", "3", "mul", "1", "zz"],
             "field mul: 'zz' is not an integer"),
            (["field", "--n", "3", "--modulus", "zz", "add", "1", "2"],
             "--modulus: 'zz' is not an integer"),
            (["build", "--n", "2", "--arf-p", "raw:", "--arf-l", "e"],
             "--arf-p 'raw:': '' is not an integer"),
            (["build", "--n", "2", "--arf-p", "e", "--arf-l", "0",
              "--arf-v", "raw:x1"],
             "--arf-v 'raw:x1': 'x1' is not an integer"),
            (["distance", str(geometry), "--line", "1,0,,1,0,1"] + points,
             "--line '1,0,,1,0,1': '' is not an integer"),
            (["distance", str(geometry), "--line", "1,0,0,1,0,1",
              "--p1", "0,0,0,1,0,0", "--p2", "0,q,0,1,0,0"],
             "--p2 '0,q,0,1,0,0': 'q' is not an integer")):
        capsys.readouterr()
        r = run(argv)
        assert (r.exit_code, r.payload) == (1, "")
        assert capsys.readouterr().err == "error: %s\n" % message
    assert run(["field", "--n", "3", "--modulus", "0xb", "mul", "0x2",
                "3"]).payload == "6"


def test_unknown_command_and_flags():
    assert run(["bogus"]).exit_code == 1
    assert run([]).exit_code == 1
    assert run(["table", "--wat"]).exit_code == 1


def test_table_text():
    r = run(["table"])
    assert r.exit_code == 0
    lines = r.payload.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["Arf(P)", "\\", "Arf(L)", "e", "inf", "0"]
    assert "Laguerre/Galilei" in lines[2]
    assert lines[3].endswith("anti-de Sitter")


def test_table_json():
    doc = json.loads(run(["table", "--json"]).payload)
    assert doc["rows"] == ["e", "inf", "0"]
    assert doc["columns"] == ["e", "inf", "0"]
    assert doc["cells"][0][0] == "elliptic"
    assert doc["cells"][1][1] == "laguerre-galilei"
    assert doc["cells"][2][2] == "anti-de-sitter"
    flat = [name for row in doc["cells"] for name in row]
    assert sorted(flat) == sorted(CLASS_TABLE.values())


@pytest.mark.parametrize("n", [1, 2])
def test_build_classify_round_trip(n, tmp_path):
    classes = ["0", "e", "inf"]
    for cp, cl in itertools.product(classes, classes):
        out = tmp_path / ("g_%d_%s_%s.json" % (n, cp, cl))
        r = run(["build", "--n", str(n), "--arf-p", cp, "--arf-l", cl,
                 "--out", str(out)])
        assert r.exit_code == 0
        assert r.payload == ""
        doc = json.loads(run(["classify", str(out), "--json"]).payload)
        assert doc["arf_p"] == cp
        assert doc["arf_l"] == cl
        assert doc["class"] == CLASS_TABLE[(cp, cl)]


def test_build_stdout_parses_as_geometry():
    r = run(["build", "--n", "2", "--arf-p", "raw:2", "--arf-l", "raw:3"])
    assert r.exit_code == 0
    g = Geometry.from_json(json.loads(r.payload))
    assert g.is_valid()
    assert g.field.n == 2


def test_classify_rejects_bad_geometry(tmp_path):
    r = run(["build", "--n", "1", "--arf-p", "e", "--arf-l", "e"])
    doc = json.loads(r.payload)
    doc["omega"] = [0, 0, 0, 0, 0, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["classify", str(bad)]).exit_code == 1


@pytest.mark.parametrize("command", ["classify", "arf"])
@pytest.mark.parametrize("text", ["{}", "[1,2]"])
def test_malformed_document_is_one_line_error(tmp_path, capsys, command,
                                              text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    r = run([command, str(bad)])
    assert (r.exit_code, r.payload) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,path", [
    ("classify", ("field", "n")),
    ("classify", ("form", "coeffs", 0, 1)),
    ("classify", ("omega", 0)),
    ("arf", ("field", "n")),
    ("arf", ("coeffs", 1, 0)),
], ids=["field-n", "form-coeff", "omega", "form-field-n", "coeff-zero"])
def test_json_booleans_are_not_integers(tmp_path, capsys, command, path):
    # JSON true/false load as bool, a subclass of int: replace one integer
    # of a valid document by the boolean of the same truth value
    doc = json.loads(run(["build", "--n", "1", "--arf-p", "e",
                          "--arf-l", "e"]).payload)
    if command == "arf":
        doc = doc["form"]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bool(parent[path[-1]])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    r = run([command, str(bad)])
    assert (r.exit_code, r.payload) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_form_over_another_field_is_one_line_error(tmp_path,
                                                           capsys):
    doc = build_geometry(GF4, Arf.finite(2), Arf.finite(2)).to_json()
    doc["form"] = build_geometry(GF2, Arf.finite(1),
                                 Arf.finite(1)).form.to_json()
    bad = tmp_path / "mixed.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    r = run(["classify", str(bad)])
    assert (r.exit_code, r.payload) == (1, "")
    err = capsys.readouterr().err
    assert err == "error: form field disagrees with geometry field\n"


def test_build_out_into_missing_directory_is_one_line_error(tmp_path,
                                                            capsys):
    out = tmp_path / "missing" / "g.json"
    r = run(["build", "--n", "1", "--arf-p", "e", "--arf-l", "e",
             "--out", str(out)])
    assert (r.exit_code, r.payload) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["classify", "arf", "distance"])
def test_deeply_nested_document_is_one_line_error(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    argv = [command, str(deep)]
    if command == "distance":
        argv += ["--line", "1,0,0,1,0,1", "--p1", "0,0,0,1,0,0",
                 "--p2", "0,0,0,1,0,0"]
    r = run(argv)
    assert (r.exit_code, r.payload) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("command", ["arf", "classify", "distance"])
@pytest.mark.parametrize("content", [b"", b'{"field": {"n": 1, "modu',
                                     b"\xff\xfe\x00\x01binary",
                                     b'{"n": ' + b"1" * 5000 + b"}"],
                         ids=["empty", "truncated", "binary", "huge-int"])
def test_unreadable_document_names_the_file(tmp_path, capsys, command,
                                            content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [command, str(bad)]
    if command == "distance":
        argv += ["--line", "1,0,0,1,0,1", "--p1", "0,0,0,1,0,0",
                 "--p2", "0,0,0,1,0,0"]
    r = run(argv)
    assert (r.exit_code, r.payload) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: %s: not a JSON document (" % bad)
    assert err.endswith(")\n") and err.count("\n") == 1


def test_distance_matrix_pair(tmp_path):
    out = tmp_path / "ell.json"
    run(["build", "--n", "1", "--arf-p", "e", "--arf-l", "e",
         "--out", str(out)])
    r = run(["distance", str(out), "--line", "1,0,0,1,0,1",
             "--p1", "0,0,0,1,0,0", "--p2", "0,1,1,1,1,0", "--json"])
    assert r.exit_code == 0
    doc = json.loads(r.payload)
    assert doc["kind"] == "orthogonal"
    assert doc["group_order"] == 3
    assert len(doc["pair"]) == 2
    m1, m2 = [tuple(tuple(row) for row in m) for m in doc["pair"]]
    prod = linalg.mat_mul(GF2, m1, m2)
    assert prod == linalg.identity(6)


def test_distance_same_point_is_identity(tmp_path):
    out = tmp_path / "ell.json"
    run(["build", "--n", "1", "--arf-p", "e", "--arf-l", "e",
         "--out", str(out)])
    doc = json.loads(run(
        ["distance", str(out), "--line", "1,0,0,1,0,1",
         "--p1", "0,0,0,1,0,0", "--p2", "0,0,0,1,0,0", "--json"]).payload)
    assert doc["pair"] == [[list(row) for row in linalg.identity(6)]]


def test_distance_on_a_degenerate_pair_line(tmp_path):
    # the line's restricted pairing has a kernel plane; the JSON is the
    # byte-exact output of the per-shape line group builders
    out = tmp_path / "par.json"
    run(["build", "--n", "1", "--arf-p", "e", "--arf-l", "inf",
         "--out", str(out)])
    r = run(["distance", str(out), "--line", "1,0,0,0,0,1",
             "--p1", "0,0,1,1,0,0", "--p2", "0,0,0,1,0,0", "--json"])
    assert r.exit_code == 0
    assert r.payload == (
        '{"group_order": 2, "kind": "degenerate-pair", "pair": '
        '[[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], '
        '[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 1]]]}')


def test_distance_input_errors(tmp_path, capsys):
    out = tmp_path / "ell.json"
    run(["build", "--n", "1", "--arf-p", "e", "--arf-l", "e",
         "--out", str(out)])
    r = run(["distance", str(out), "--line", "1,0,0", "--p1", "0,0,0,1,0,0",
             "--p2", "0,0,0,1,0,0"])
    assert r.exit_code == 1
    # the marked line of the frame is ideal, so no group exists on it
    g = Geometry.from_json(json.loads((out).read_text()))
    ideal = ",".join(str(x) for x in g.l.rep)
    r = run(["distance", str(out), "--line", ideal, "--p1", "0,0,0,1,0,0",
             "--p2", "0,0,0,1,0,0"])
    assert r.exit_code == 1
    # an ideal line whose restricted kernel plane is totally singular is
    # refused as a precondition, not reported as a broken invariant
    out = tmp_path / "hyp.json"
    run(["build", "--n", "1", "--arf-p", "0", "--arf-l", "0",
         "--out", str(out)])
    capsys.readouterr()
    r = run(["distance", str(out), "--line", "0,0,0,0,1,1",
             "--p1", "0,0,0,1,0,0", "--p2", "0,0,0,1,0,0"])
    assert r.exit_code == 1 and r.payload == ""
    err = capsys.readouterr().err
    assert err.startswith("error: no line group") and err.count("\n") == 1


def test_distance_on_an_invalid_geometry_names_its_flags(tmp_path, capsys):
    # B is degenerate; the refusal names the flags, not a broken invariant
    rows = [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    g = Geometry(QuadraticForm(GF2Field(1), rows), (1, 0, 0, 0, 0, 0),
                 (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0))
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(g.to_json()))
    r = run(["distance", str(path), "--line", "0,0,0,0,1,0",
             "--p1", "0,0,0,1,0,0", "--p2", "0,0,0,1,0,0"])
    assert (r.exit_code, r.payload) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: bilinear form is degenerate;")
    assert err.count("\n") == 1


def test_verify_range_exit_zero(tmp_path):
    outfile = tmp_path / "reports.jsonl"
    r = run(["verify", "--suite", "lindex", "--n", "2..8",
             "--out", str(outfile)])
    assert r.exit_code == 0
    lines = r.payload.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("[ok  ]") for line in lines)
    saved = [json.loads(x) for x in outfile.read_text().splitlines()]
    assert [d["field_n"] for d in saved] == list(range(2, 9))
    assert all(d["cases_checked"] > 0 and d["failures"] == [] for d in saved)


def test_verify_json_single_document():
    r = run(["verify", "--suite", "transformation", "--n", "1,2", "--json"])
    assert r.exit_code == 0
    doc = json.loads(r.payload)
    assert doc["ok"] is True
    assert doc["suites"] == ["transformation"]
    assert [rep["field_n"] for rep in doc["reports"]] == [1, 2]


def test_verify_all_small_degree():
    r = run(["verify", "--suite", "all", "--n", "1"])
    assert r.exit_code == 0
    assert len(r.payload.splitlines()) == 6  # arf runs two dimensions


def test_verify_arf_past_its_cap_is_an_error(capsys):
    for argv in (["verify", "--suite", "arf", "--n", "5"],
                 ["verify", "--suite", "arf", "--n", "5", "--json"],
                 ["verify", "--suite", "arf", "--n", "8"]):
        capsys.readouterr()
        r = run(argv)
        assert r.exit_code == 1 and r.payload == ""
        err = capsys.readouterr().err
        assert err.startswith("error: arf suite capped at degree 4")
        assert err.count("\n") == 1


def test_verify_range_past_the_cap_refuses_before_any_work(
        capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the cap check")

    for name in oracle.SUITES:
        monkeypatch.setitem(oracle.SUITES, name,
                            (never,) + oracle.SUITES[name][1:])
    monkeypatch.setattr(oracle, "verify_arf_wellposed", never)
    for argv, refusal in (
            (["verify", "--suite", "lindex", "--n", "1..9"],
             "image scaling check capped at degree 8"),
            (["verify", "--suite", "all", "--n", "1..4"],
             "replacement sweep capped at degree 3")):
        capsys.readouterr()
        r = run(argv)
        assert r.exit_code == 1 and r.payload == ""
        assert capsys.readouterr().err == "error: %s\n" % refusal


def test_verify_degree_below_one_refuses_before_any_work(
        capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the degree check")

    for name in oracle.SUITES:
        monkeypatch.setitem(oracle.SUITES, name,
                            (never,) + oracle.SUITES[name][1:])
    monkeypatch.setattr(oracle, "verify_arf_wellposed", never)
    for argv, refusal in (
            (["verify", "--suite", "transformation", "--n", "3,0"],
             "degree 0 outside 1..16"),
            (["verify", "--suite", "lindex", "--n", "8,-1"],
             "degree -1 outside 1..16"),
            # a cap refusal wins over a degree no field has
            (["verify", "--suite", "lindex", "--n", "0,9"],
             "image scaling check capped at degree 8")):
        capsys.readouterr()
        r = run(argv)
        assert r.exit_code == 1 and r.payload == ""
        assert capsys.readouterr().err == "error: %s\n" % refusal


def full_range_degrees(text):
    """A reference parse_degrees that builds every degree of every range."""
    out = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("empty degree range")
    return out


def test_verify_ranges_act_as_if_built_whole(monkeypatch):
    def stub(field, *args, **kwargs):
        return oracle.VerificationReport("stub", field.n, 1, [])

    for name in oracle.SUITES:
        monkeypatch.setitem(oracle.SUITES, name,
                            (oracle._unsampled(stub),)
                            + oracle.SUITES[name][1:])
    monkeypatch.setattr(oracle, "verify_arf_wellposed", stub)
    # argparse is the slow part: build one parser and parse each argv once
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    parsed = {}
    parse_args = parser.parse_args

    def parse_once(argv):
        if tuple(argv) not in parsed:
            parsed[tuple(argv)] = parse_args(argv)
        return parsed[tuple(argv)]

    monkeypatch.setattr(parser, "parse_args", parse_once)
    errors = []
    monkeypatch.setattr(cli, "_log", errors.append)

    def outcome(argv):
        del errors[:]
        r = run(argv)
        return r.exit_code, r.payload, list(errors)

    argvs = [["verify", "--suite", suite, "--n=%d..%d" % (lo, hi)]
             for suite in sorted(oracle.SUITES) + ["all"]
             for lo, hi in itertools.product(range(-20, 41), repeat=2)]
    got = [outcome(argv) for argv in argvs]
    monkeypatch.setattr(cli, "parse_degrees", full_range_degrees)
    for argv, result in zip(argvs, got):
        assert result == outcome(argv), argv
    assert {result[0] for result in got} == {0, 1}


def test_verify_degrees_may_start_with_a_dash(capsys):
    def outcome(argv):
        capsys.readouterr()
        r = run(argv)
        return r.exit_code, r.payload, capsys.readouterr().err

    for value in ("-3..5", "-1", "-3,4", "-2..-1", "-0"):
        for suite in ("lindex", "all"):
            spaced = outcome(["verify", "--suite", suite, "--n", value])
            assert spaced == outcome(
                ["verify", "--suite", suite, "--n=" + value])
            assert spaced[:2] == (1, "")
            assert spaced[2].startswith("error: ")
            assert spaced[2].count("\n") == 1
    assert outcome(["verify", "--suite", "lindex", "--n", "-3..5"]) \
        == (1, "", "error: degree -3 outside 1..16\n")
    # an option after --n is still a missing value, and nothing after --
    # is read as a degree
    for argv in (["verify", "--suite", "lindex", "--n", "--json"],
                 ["verify", "--suite", "lindex", "--n"],
                 ["verify", "--suite", "lindex", "--", "--n", "-3"]):
        code, payload, err = outcome(argv)
        assert (code, payload) == (1, "")
        assert ("--n -3\n" in err if "--" in argv else
                "error: argument --n: expected one argument" in err)
    # only verify's --n takes a range
    assert outcome(["field", "--n", "-3", "add", "1", "1"])[0] == 1


def test_verify_empty_degree_list_is_an_error(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran on an empty degree list")

    for name in oracle.SUITES:
        monkeypatch.setitem(oracle.SUITES, name,
                            (never,) + oracle.SUITES[name][1:])
    for argv in (["verify", "--suite", "lindex", "--n", ""],
                 ["verify", "--suite", "all", "--n="],
                 ["verify", "--suite", "arf", "--n", "", "--json"]):
        capsys.readouterr()
        r = run(argv)
        assert r.exit_code == 1 and r.payload == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_bad_degree_names_the_option_and_the_part(capsys):
    for value, message in (
            ("", "--n '': empty degree"),
            ("1,,2", "--n '1,,2': empty degree"),
            ("..3", "--n '..3': empty degree"),
            ("1..x", "--n '1..x': 'x' is not a degree"),
            ("2,y", "--n '2,y': 'y' is not a degree"),
            ("1..2..3", "--n '1..2..3': '2..3' is not a degree")):
        for suite in ("lindex", "all"):
            capsys.readouterr()
            r = run(["verify", "--suite", suite, "--n", value])
            assert (r.exit_code, r.payload) == (1, "")
            assert capsys.readouterr().err == "error: %s\n" % message
        with pytest.raises(ValueError) as exc:
            parse_degrees(value)
        assert str(exc.value) == message


def test_verify_huge_range_is_refused_in_little_memory(capsys):
    tracemalloc.start()
    try:
        r = run(["verify", "--suite", "all", "--n", "1..1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.exit_code == 1
    assert capsys.readouterr().err == \
        "error: arf suite capped at degree 4: at degree 5 no form " \
        "dimension keeps degree times dimension within 8\n"
    assert peak < 2 ** 20


def test_verify_unknown_suite():
    assert run(["verify", "--suite", "nope"]).exit_code == 1


def test_verify_failure_exits_two(monkeypatch):
    def failing(field):
        return oracle.VerificationReport(
            "synthetic-claim", field.n, 1, [{"got": 0, "want": 1}])

    monkeypatch.setitem(oracle.SUITES, "synthetic",
                        (oracle._unsampled(failing), 1,
                         "synthetic suite capped at degree 1"))
    r = run(["verify", "--suite", "synthetic"])
    assert r.exit_code == 2
    assert "[FAIL] synthetic-claim" in r.payload
    doc = json.loads(run(["verify", "--suite", "synthetic",
                          "--json"]).payload)
    assert doc["ok"] is False


def test_arf_subcommand(tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"field": {"n": 2, "modulus": 7}, "dim": 2,
         "coeffs": [[1, 1], [0, 2]]}))
    r = run(["arf", str(form)])
    assert r.exit_code == 0
    assert r.payload == "raw:2 (class e)"
    doc = json.loads(run(["arf", str(form), "--json"]).payload)
    assert doc == {"field": {"n": 2, "modulus": 7}, "dim": 2,
                   "value": "raw:2", "class": "e"}


def test_arf_spellings():
    assert parse_arf(GF4, "inf").is_infinity
    assert parse_arf(GF4, "0") == Arf.finite(0)
    assert parse_arf(GF4, "e") == Arf.finite(2)
    assert parse_arf(GF4, "raw:3") == Arf.finite(3)
    with pytest.raises(ValueError):
        parse_arf(GF4, "two")
    with pytest.raises(ValueError):
        parse_arf(GF4, "raw:9")
    assert render_arf(Arf.infinity()) == "inf"
    assert render_arf(Arf.finite(3)) == "raw:3"


def test_degree_and_vector_parsing():
    assert parse_degrees("3") == [3]
    assert parse_degrees("2..5") == [2, 3, 4, 5]
    assert parse_degrees("1,3..4,8") == [1, 3, 4, 8]
    assert parse_vector(GF4, "0, 1, 2, 3, 0, 1") == (0, 1, 2, 3, 0, 1)
    with pytest.raises(ValueError):
        parse_vector(GF4, "1,2,3")
    with pytest.raises(ValueError):
        parse_vector(GF4, "0,0,0,0,0,9")


def test_main_prints_payload(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "Laguerre/Galilei" in out
    assert main(["bogus"]) == 1
    assert capsys.readouterr().out == ""


def test_run_returns_command_result():
    r = run(["table"])
    assert isinstance(r, CommandResult)
    assert r.exit_code == 0 and r.payload


def test_cli_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, and typing is
    # as heavy; every CLI call is a fresh process that would pay for them
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; sys.path.insert(0, %r); import char2conf.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (src, heavy))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


# -- fuzzing run() ----------------------------------------------------------

DOC_KEYS = ["field", "form", "omega", "P", "L", "n", "modulus", "dim",
            "coeffs", "ambient", "u_basis"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20)
    | st.sampled_from(["", "x", "1"]),
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(st.sampled_from(DOC_KEYS), inner,
                                     max_size=6)),
    max_leaves=20)
GOOD_DOCS = [
    build_geometry(GF2, Arf.finite(1), Arf.finite(1)).to_json(),
    build_geometry(GF2, Arf.infinity(), Arf.infinity()).to_json(),
    build_geometry(GF4, Arf.finite(0), Arf.finite(2)).to_json(),
    QuadraticForm(GF4, [[1, 1], [0, 2]]).to_json(),
    QuadraticForm(GF2, [[0, 1, 0], [0, 0, 1], [0, 0, 1]]).to_json(),
]
DOCUMENTS = st.one_of(
    JSON_VALUES,
    st.sampled_from(GOOD_DOCS),
    st.sampled_from(GOOD_DOCS),
    st.builds(lambda doc, key, value: dict(doc, **{key: value}),
              st.sampled_from(GOOD_DOCS), st.sampled_from(DOC_KEYS),
              JSON_VALUES),
).map(json.dumps) | st.sampled_from(["", "{", "nul", "[" * 100000])

DOC_FILES = ["doc0.json", "doc1.json"]
FILES = DOC_FILES + ["missing.json"]
OUTS = ["out.json", "missing/out.json"]
ELEMS = ["0", "1", "2", "3", "5", "0x13", "-1", "x"]
ARFS = ["0", "e", "inf", "raw:1", "raw:3", "two"]
# a real line of the first geometry in GOOD_DOCS, the three points on
# it, and junk
LINES = ["1,0,0,1,0,1", "1,0,0,1,0,1", "0,0,1,0,0,0", "1,2,3"]
POINTS = ["0,0,0,1,0,0", "0,1,1,1,1,0", "0,1,1,1,1,1", "0,0,0,0,0,9"]
# per subcommand: (flag, or "" for a positional, and the values to draw
# from; None leaves the flag out)
TEMPLATES = {
    "field": [("--n", ["1", "2", "4", "16", "17", "x", None]),
              ("--modulus", ["0x13", "7", None, None, None]),
              ("", ["add", "mul", "div", "inv", "trace", "sqrt", "h",
                    "solve", "pow"]),
              ("", ELEMS), ("", ELEMS + [None] * 4)],
    "arf": [("", FILES + [None])],
    "build": [("--n", ["1", "2", "3", "16", "17", "x", None]),
              ("--arf-p", ARFS + [None]), ("--arf-l", ARFS + [None]),
              ("--arf-v", ARFS + [None] * 6), ("--out", OUTS + [None] * 2)],
    "classify": [("", FILES + [None])],
    "distance": [("", FILES), ("--line", LINES + [None]),
                 ("--p1", POINTS + [None]), ("--p2", POINTS + [None])],
    "verify": [("--suite", ["arf", "lindex", "orbits", "lambda",
                            "transformation", "all", "nope", None]),
               ("--seed", ["0", "7", "x", None, None]),
               ("--out", OUTS + [None] * 2)],
    "table": [],
    "bogus": [],
}
JUNK = ["--n", "--out", "--line", "--suite", "x", "", "1..2", "2..1",
        "missing.json"]


@st.composite
def argv_words(draw):
    """A subcommand, its flags with drawn values, and maybe a junk word."""
    command = draw(st.sampled_from(sorted(TEMPLATES)))
    words = [command]
    for flag, values in TEMPLATES[command]:
        value = draw(st.sampled_from(values))
        if value is not None:
            words += [flag, value] if flag else [value]
    if draw(st.booleans()):
        words.append("--json")
    junk = draw(st.sampled_from(JUNK + [None] * len(JUNK)))
    if junk is not None:
        words.insert(draw(st.integers(1, len(words))), junk)
    return words


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(words=argv_words(), docs=st.tuples(DOCUMENTS, DOCUMENTS))
def test_run_never_raises(fuzz_dir, words, docs):
    """run() maps any argv to exit code 0, 1 or 2 and never raises.

    The argv is a subcommand with most of its flags, drawn values (junk
    ones among them), generated JSON documents (also on stdin), a
    missing file and an --out into a missing directory, plus junk words
    at random places.
    verify always ends in --n 1 (the last --n wins): its default ranges
    are not bounded by cost yet, so an unpinned draw could run for
    hours.  -h is left out because the help path exits through
    SystemExit, which main() handles.
    """
    for name, text in zip(DOC_FILES, docs):
        (fuzz_dir / name).write_text(text)
    paths = FILES + OUTS
    argv = [str(fuzz_dir / w) if w in paths else w for w in words]
    if argv[0] == "verify":
        argv += ["--n", "1"]
    stdin = sys.stdin
    sys.stdin = io.StringIO(docs[0])  # read by arf and classify without a file
    try:
        r = run(argv)
    finally:
        sys.stdin = stdin
    assert r.exit_code in (0, 1, 2)
    assert isinstance(r.payload, str)
    if r.exit_code == 1:
        assert r.payload == ""
