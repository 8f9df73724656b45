"""The command-line surface: subcommands, exit codes, file formats."""

import json
import re

import pytest

import gainquad.geometry as geometry
from gainquad import GF, CyclicGroup, affine_plane
from gainquad.cli import main
from gainquad.search import _config_digest
from helpers import assert_quadrangle_witness


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_build_with_shipped_gains(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run("build", "ag2", "2", "--with-gains", "-o", out) == 0
    assert "16 points, 8 lines" in capsys.readouterr().out
    doc = read_json(out)
    assert len(doc["points"]) == 16
    assert len(doc["lines"]) == 8
    assert doc["tags"]["points"][0][0] == "x"


def test_build_larger_plane(tmp_path, capsys):
    out = tmp_path / "m3.json"
    assert run("build", "ag2", "3", "--with-gains", "-o", out) == 0
    assert "45 points, 27 lines" in capsys.readouterr().out


def test_build_emits_base_and_gains(tmp_path):
    base = tmp_path / "base.json"
    gains = tmp_path / "gains.json"
    out = tmp_path / "m.json"
    assert run("build", "ag2", "2", "--with-gains", "-o", out,
               "--emit-base", base, "--emit-gains", gains) == 0
    bdoc = read_json(base)
    assert len(bdoc["points"]) == 4 and len(bdoc["lines"]) == 6
    gdoc = read_json(gains)
    assert gdoc["group"] == {"kind": "GFpn", "p": 2, "n": 1}
    assert len(gdoc["gains"]) == 12
    # and the emitted pair rebuilds the same expansion, flag or positional
    out2 = tmp_path / "m2.json"
    assert run("build", base, "--gains", gains, "-o", out2) == 0
    assert read_json(out2)["incidence"] == read_json(out)["incidence"]
    out3 = tmp_path / "m3.json"
    assert run("build", base, gains, "-o", out3) == 0
    assert read_json(out3)["incidence"] == read_json(out)["incidence"]


def test_build_identity_gains_fails_verification(tmp_path):
    out = tmp_path / "bad.json"
    assert run("build", "ag2", "2", "--identity-gains", "-o", out) == 0
    assert run("verify", out, "--as", "gq") == 1


def test_failing_verify_names_its_witness_without_the_census(tmp_path, monkeypatch):
    out, report = tmp_path / "bad.json", tmp_path / "verdict.json"
    assert run("build", "ag2", "3", "--identity-gains", "-o", out) == 0

    def no_census(*args):
        raise AssertionError("the chain census ran")

    monkeypatch.setattr(geometry, "chain_census", no_census)
    assert run("verify", out, "--as", "gq", "--report", report) == 1
    s = geometry.structure_from_json(read_json(out))[0]
    assert_quadrangle_witness(s, read_json(report)["witness"])


def test_build_without_gain_source_errors(tmp_path):
    assert run("build", "ag2", "2", "-o", tmp_path / "x.json") == 2


def test_verify_gq(tmp_path):
    out = tmp_path / "m4.json"
    assert run("build", "ag2", "2", "2", "--with-gains", "-o", out) == 0
    report = tmp_path / "verdict.json"
    assert run("verify", out, "--as", "gq", "--report", report) == 0
    doc = read_json(report)
    assert doc["ok"] and (doc["s"], doc["t"]) == (5, 3)
    assert doc["config"]["command"] == "verify"


def test_ag2_takes_a_prime_power(tmp_path):
    outputs = {}
    for spec in (["4"], ["2", "2"]):
        out = tmp_path / f"m{'-'.join(spec)}.json"
        assert run("build", "ag2", *spec, "--with-gains", "-o", out) == 0
        doc = read_json(out)
        del doc["config"]
        outputs[len(spec)] = doc
    assert outputs[1] == outputs[2]
    for spec in ("ag2:4", "ag2:2:2"):
        assert run("export", spec, "--format", "json", "-o", tmp_path / f"{spec}.json") == 0
    assert (tmp_path / "ag2:4.json").read_bytes() == (tmp_path / "ag2:2:2.json").read_bytes()
    assert run("verify", "ag2:4", "--as", "steiner") == 0
    assert run("search", "--base", "ag2:4", "--group", "gf:2:2", "--budget", "5") == 3


def test_verify_verbose_times_the_check_outside_the_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert run("-v", "verify", "w:2", "--as", "gq", "--report", report) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"gq: 30 elements in \d+\.\d{3} s\n", err)
    assert set(read_json(report)) == {"config", "input", "check", "s", "t", "ok"}


def test_structure_file_name_with_a_colon(tmp_path):
    out = tmp_path / "m:2.json"
    assert run("build", "ag2", "2", "--with-gains", "-o", out) == 0
    assert run("verify", out, "--as", "gq") == 0
    assert run("isocheck", out, "payne-dual:2") == 0
    dot = tmp_path / "m.dot"
    assert run("export", out, "--format", "dot", "-o", dot) == 0
    assert 'tag="x:' in dot.read_text()


def test_verify_linear_space_and_steiner():
    assert run("verify", "ag2:3", "--as", "linear-space") == 0
    assert run("verify", "ag2:3", "--as", "steiner") == 0
    assert run("verify", "w:2", "--as", "linear-space") == 1


def test_verify_ovoid(tmp_path):
    out = tmp_path / "m.json"
    assert run("build", "ag2", "3", "--with-gains", "-o", out) == 0
    assert run("verify", out, "--as", "ovoid") == 0
    assert run("verify", "ag2:3", "--as", "ovoid") == 2  # no tags


def test_verify_gq_failure_witness(tmp_path):
    report = tmp_path / "r.json"
    assert run("verify", "ag2:2", "--as", "gq", "--report", report) == 1
    assert read_json(report)["witness"]


def test_isocheck(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("build", "ag2", "2", "--with-gains", "-o", a) == 0
    assert run("build", "ag2", "2", "--with-gains", "-o", b) == 0
    witness = tmp_path / "w.json"
    assert run("isocheck", a, b, "--witness", witness) == 0
    doc = read_json(witness)
    assert sorted(doc["point_map"]) == list(range(16))
    assert run("isocheck", a, "payne-dual:3") == 1


def test_payne_check(tmp_path, capsys):
    witness = tmp_path / "w.json"
    assert run("payne-check", "2", "--witness", witness) == 0
    assert "isomorphic" in capsys.readouterr().out
    doc = read_json(witness)
    assert doc["isomorphic"] and len(doc["point_map"]) == 16


def test_payne_check_q3():
    assert run("payne-check", "3") == 0


def test_export_dot_deterministic(tmp_path):
    a = tmp_path / "a.dot"
    b = tmp_path / "b.dot"
    assert run("export", "ag2:2", "--format", "dot", "-o", a) == 0
    assert run("export", "ag2:2", "--format", "dot", "-o", b) == 0
    text = a.read_text()
    assert text == b.read_text()
    assert text.count(" -- ") == 12
    assert "shape=circle" in text and "shape=box" in text


def test_export_expansion_carries_tags(tmp_path):
    m = tmp_path / "m.json"
    assert run("build", "ag2", "2", "--with-gains", "-o", m) == 0
    dot = tmp_path / "m.dot"
    assert run("export", m, "--format", "dot", "-o", dot) == 0
    assert 'tag="x:' in dot.read_text()


def test_export_json_generator(tmp_path):
    out = tmp_path / "w2.json"
    assert run("export", "w:2", "--format", "json", "-o", out) == 0
    doc = read_json(out)
    assert len(doc["points"]) == 15 and len(doc["lines"]) == 15


def test_search_cli(tmp_path):
    report = tmp_path / "scan.json"
    assert run("search", "--base", "ag2:2", "--group", "z:2",
               "--report", report) == 0
    doc = read_json(report)
    assert doc["scanned"] == 8
    assert doc["gq_count"] >= 1
    assert doc["class_count"] == len(doc["certificates"])
    rep0 = tmp_path / "scan.class000.json"
    assert rep0.exists()
    assert len(read_json(rep0)["points"]) == 16


def test_search_reruns_are_byte_identical(tmp_path):
    report = tmp_path / "scan.json"
    argv = ("search", "--base", "ag2:2", "--group", "z:2", "--unreduced",
            "--report", report)
    assert run(*argv) == 0
    first = report.read_bytes()
    assert run(*argv) == 0
    assert report.read_bytes() == first
    assert set(read_json(report)["config"]) == {"command", "seed", "verbose", "argv"}


def test_search_budget_exit_code(tmp_path):
    assert run("search", "--base", "ag2:2", "--group", "z:2",
               "--budget", "3", "--report", tmp_path / "r.json") == 3


def test_verify_reruns_are_byte_identical(tmp_path):
    # two lines through points 0 and 1, so the report carries a witness
    base = tmp_path / "s.json"
    base.write_text(json.dumps({"points": [0, 1, 2], "lines": [0, 1, 2],
                                "incidence": [[0, 0], [1, 0], [0, 1], [1, 1],
                                              [1, 2], [2, 2]]}))
    report = tmp_path / "r.json"
    argv = ("verify", base, "--as", "linear-space", "--report", report)
    assert run(*argv) == 1
    first = report.read_bytes()
    assert read_json(report)["witness"] == ["points-on-multiple-lines", 0, 1, [0, 1]]
    assert run(*argv) == 1
    assert report.read_bytes() == first


def _ag22_gains(group, element):
    """A gains document on AG(2,2) whose every edge carries element."""
    edges = [[p, b, element] for b in range(6) for p in range(4)
             if (p, b) in affine_plane(GF(2)).structure.incidence_set]
    return {"group": group, "gains": edges}


_BAD_INPUT = {
    "incidence-not-a-list": ({"s.json": {"points": [0], "lines": [0], "incidence": 5}},
                             ["verify", "s.json", "--as", "gq"]),
    "non-integer-incidence": ({"s.json": {"points": [0, 1], "lines": [0],
                                          "incidence": [[0, 0], [1.5, 0]]}},
                              ["verify", "s.json", "--as", "gq"]),
    "tags-not-per-element": ({"s.json": {"points": [0, 1], "lines": [0],
                                         "incidence": [[0, 0], [1, 0]],
                                         "tags": {"points": [["x"], ["x"]], "lines": 3}}},
                             ["export", "s.json", "--format", "dot"]),
    "rational-zero-denominator": ({"g.json": _ag22_gains({"kind": "Q"}, [1, 0])},
                                  ["build", "ag2", "2", "--gains", "g.json"]),
    "cyclic-gain-as-list": ({"g.json": _ag22_gains({"kind": "Zn", "modulus": 2}, [1])},
                            ["build", "ag2", "2", "--gains", "g.json"]),
    "gf2-gain-out-of-range": ({"g.json": _ag22_gains({"kind": "GFpn", "p": 2, "n": 1}, [7])},
                              ["build", "ag2", "2", "--gains", "g.json"]),
    "checkpoint-not-an-object": ({"ck.json": [1, 2]},
                                 ["search", "--base", "ag2:2", "--group", "z:2",
                                  "--checkpoint", "ck.json"]),
    # more quadrangles than assignments scanned
    "checkpoint-count-exceeds-index": (
        {"ck.json": {"digest": _config_digest(affine_plane(GF(2)).structure, CyclicGroup(2),
                                              False, True),
                     "next_index": 3, "gq_count": 1000000, "representatives": [],
                     "near_miss": {}}},
        ["search", "--base", "ag2:2", "--group", "z:2", "--checkpoint", "ck.json"]),
    "group-without-modulus": ({}, ["search", "--base", "ag2:2", "--group", "z"]),
    "ag2-not-a-prime-power": ({}, ["verify", "ag2:6", "--as", "linear-space"]),
    "ag2-not-a-prime-power-build": ({}, ["build", "ag2", "6", "--with-gains"]),
    "ag2-three-arguments": ({}, ["verify", "ag2:2:2:2", "--as", "linear-space"]),
    "negative-budget": ({}, ["search", "--base", "ag2:2", "--group", "z:2",
                             "--budget", "-5"]),
}


@pytest.mark.parametrize("files, argv", list(_BAD_INPUT.values()), ids=list(_BAD_INPUT))
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_file_is_usage_error():
    assert run("verify", "no-such-file.json", "--as", "gq") == 2


def test_selftest():
    assert run("--seed", "1", "selftest") == 0


def test_console_entry_point(tmp_path):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "gainquad", "export", "ag2:2", "--format", "dot"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "graph incidence {" in proc.stdout
