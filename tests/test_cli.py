"""The command-line surface: subcommands, exit codes, file formats."""

import json

from gainquad.cli import main


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
