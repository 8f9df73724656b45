"""The command-line surface: subcommands, exit codes, file formats."""

import json
import re

import pytest

import gainquad.cli as cli
import gainquad.geometry as geometry
from gainquad import (GF, CyclicGroup, Verdict, affine_gains, affine_plane, expand,
                      gq_criterion, is_generalized_ngon, quadrangle_order,
                      structure_from_json, structure_to_json)
from gainquad.cli import main
from gainquad.search import CHECKPOINT_EVERY, _config_digest
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


@pytest.mark.parametrize("spec, tokens", [("ag2:3", ["ag2", "3"]), ("ag2:2:2", ["ag2", "4"])])
def test_build_takes_a_generator_spec(tmp_path, spec, tokens):
    docs = []
    for i, base in enumerate(([spec], tokens)):
        out = tmp_path / f"m{i}.json"
        assert run("build", *base, "--with-gains", "-o", out) == 0
        doc = read_json(out)
        del doc["config"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_build_identity_gains_on_a_generator_spec(tmp_path):
    out = tmp_path / "w2.json"
    assert run("build", "w:2", "--identity-gains", "--group", "z:2", "-o", out) == 0
    assert len(read_json(out)["points"]) == 15 * 2 + 15


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


def test_build_names_a_missing_gains_file(tmp_path, capsys):
    base = tmp_path / "m2.json"
    assert run("build", "ag2", "2", "--with-gains", "-o", tmp_path / "x.json",
               "--emit-base", base) == 0
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert run("build", base, missing, "-o", tmp_path / "y.json") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err and "m2.json" not in err


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


BUILD_STAGES = (r"base ag2:3: 9 points, 12 lines in \d+\.\d{3} s\n"
                r"gains: 36 edges in \d+\.\d{3} s\n"
                r"expansion: 45 points, 27 lines in \d+\.\d{3} s\n"
                r"document written to (.+) in \d+\.\d{3} s\n")


def test_build_verbose_times_each_stage(tmp_path, capsys):
    quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
    assert run("build", "ag2", "3", "--with-gains", "-o", quiet) == 0
    assert capsys.readouterr().err == ""
    assert run("-v", "build", "ag2", "3", "--with-gains", "-o", loud) == 0
    out = capsys.readouterr()
    assert out.out == "built expansion: 45 points, 27 lines, 135 incidences\n"
    assert re.fullmatch(BUILD_STAGES, out.err).group(1) == str(loud)
    # The config records the command line, -v included, and sorts first;
    # every byte after it is the same.
    first, second = quiet.read_bytes(), loud.read_bytes()
    assert first[first.index(b',"incidence":'):] == second[second.index(b',"incidence":'):]
    configs = [read_json(path)["config"] for path in (quiet, loud)]
    assert {k: v for k, v in configs[0].items() if k not in ("argv", "verbose")} \
        == {k: v for k, v in configs[1].items() if k not in ("argv", "verbose")}


def test_build_writes_compact_json_and_reruns_byte_identical(tmp_path):
    out = tmp_path / "m3.json"
    assert run("build", "ag2", "3", "--with-gains", "-o", out) == 0
    text = out.read_text()
    assert run("build", "ag2", "3", "--with-gains", "-o", out) == 0
    assert out.read_text() == text
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    assert read_json(indented) == doc


def test_indented_files_of_earlier_versions_still_load(tmp_path, capsys):
    m, base, gains = (tmp_path / name for name in ("m.json", "base.json", "gains.json"))
    assert run("build", "ag2", "3", "--with-gains", "-o", m,
               "--emit-base", base, "--emit-gains", gains) == 0
    for path in (m, base, gains):
        path.write_text(json.dumps(read_json(path), indent=1, sort_keys=True) + "\n")
    assert "\n " in m.read_text()
    assert run("verify", m, "--as", "gq") == 0
    assert run("isocheck", m, "payne-dual:3") == 0
    rebuilt = tmp_path / "rebuilt.json"
    assert run("build", base, gains, "-o", rebuilt) == 0
    assert read_json(rebuilt)["incidence"] == read_json(m)["incidence"]
    capsys.readouterr()


_TUPLE_VIEWS = {"incidence", "incidence_set", "lines_of_point", "points_of_line"}


def test_build_and_verify_build_no_tuple_views(tmp_path):
    plane = affine_plane(GF(5))
    g = affine_gains(plane)
    c = expand(g)
    assert gq_criterion(g)
    doc = structure_to_json(c, tags=c.tags_json())
    assert is_generalized_ngon(c, 4) and quadrangle_order(c) == (6, 4)
    assert not _TUPLE_VIEWS & set(vars(c))
    assert not _TUPLE_VIEWS & set(vars(plane.structure))
    out = tmp_path / "m5.json"
    assert run("build", "ag2", "5", "--with-gains", "-o", out) == 0
    s, _ = structure_from_json(read_json(out))
    assert structure_to_json(s)["incidence"] == doc["incidence"]
    assert is_generalized_ngon(s, 4) and quadrangle_order(s) == (6, 4)
    assert not _TUPLE_VIEWS & set(vars(s))


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


@pytest.mark.parametrize("spec, order", [("w:16", (16, 16)), ("payne-dual:16", (17, 15))])
def test_verify_largest_shipped_quadrangles(spec, order, tmp_path):
    report = tmp_path / "r.json"
    assert run("verify", spec, "--as", "gq", "--report", report) == 0
    doc = read_json(report)
    assert doc["ok"] and (doc["s"], doc["t"]) == order


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


def test_verify_ovoid_reports_why_it_fails(tmp_path):
    bad, report = tmp_path / "bad.json", tmp_path / "r.json"
    assert run("build", "ag2", "2", "--identity-gains", "-o", bad) == 0
    assert run("verify", bad, "--as", "ovoid", "--report", report) == 1
    assert read_json(report)["witness"][0] == "not-a-quadrangle"
    # a quadrangle whose x-tagged points miss the lines through point 0
    retagged = tmp_path / "retagged.json"
    assert run("build", "ag2", "3", "--with-gains", "-o", retagged) == 0
    doc = read_json(retagged)
    doc["tags"]["points"][0] = ["y", 0, 0]
    retagged.write_text(json.dumps(doc))
    assert run("verify", retagged, "--as", "ovoid", "--report", report) == 1
    assert read_json(report)["witness"] == "x-points-not-an-ovoid"


def test_verify_steiner_needs_equal_line_sizes(tmp_path):
    # the near-pencil: one line of size 3, and three of size 2 through point 3
    pencil, report = tmp_path / "pencil.json", tmp_path / "r.json"
    pencil.write_text(json.dumps({"points": [0, 1, 2, 3], "lines": [0, 1, 2, 3],
                                  "incidence": [[0, 0], [1, 0], [2, 0], [3, 1], [0, 1],
                                                [3, 2], [1, 2], [3, 3], [2, 3]]}))
    assert run("verify", pencil, "--as", "linear-space") == 0
    assert run("verify", pencil, "--as", "steiner", "--report", report) == 1
    assert read_json(report)["witness"] == "unequal-line-sizes"


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


def test_isocheck_writes_a_failed_match(tmp_path, capsys):
    witness = tmp_path / "w.json"
    assert run("isocheck", "ag2:2", "payne-dual:3", "--witness", witness) == 1
    assert capsys.readouterr().out == "non-isomorphic (point-count)\n"
    doc = read_json(witness)
    assert doc["isomorphic"] is False and doc["distinguishing"] == "point-count"
    assert doc["config"]["command"] == "isocheck"
    assert "point_map" not in doc and "line_map" not in doc


def test_payne_check(tmp_path, capsys):
    witness = tmp_path / "w.json"
    assert run("payne-check", "2", "--witness", witness) == 0
    assert "isomorphic" in capsys.readouterr().out
    doc = read_json(witness)
    assert doc["isomorphic"] and len(doc["point_map"]) == 16


def test_payne_check_writes_a_failed_match(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_isomorphism", lambda args, s1, s2, seeds: None)
    witness = tmp_path / "w.json"
    assert run("payne-check", "2", "--witness", witness) == 1
    assert capsys.readouterr().out == "q=2: NOT isomorphic (search-exhausted)\n"
    doc = read_json(witness)
    assert doc["isomorphic"] is False and doc["distinguishing"] == "search-exhausted"
    assert "point_map" not in doc and "line_map" not in doc


def test_payne_check_refuses_an_order_past_the_ceiling_before_building(monkeypatch, capsys):
    def unreachable(field):
        raise AssertionError("affine_plane called")

    monkeypatch.setattr(cli.catalog, "affine_plane", unreachable)
    q = cli.catalog.MAX_SYMPLECTIC_ORDER + 1
    assert run("payne-check", q) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order {q} exceeds the {q - 1} ceiling\n"


def test_isocheck_timeout_exits_3_without_a_witness(tmp_path, capsys):
    witness = tmp_path / "w.json"
    assert run("isocheck", "payne-dual:3", "payne-dual:3", "--timeout", "1e-9",
               "--witness", witness) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    assert not witness.exists()


SEARCH_COUNTERS = (r"search on the (first|second) structure: \d+ nodes, \d+ leaves, "
                   r"\d+ automorphisms, \d+ refinement rounds, \d+ orbit prunes, "
                   r"\d+ backjumps, depth \d+, \d+\.\d{3} s")
BUILT = r"built the (affine expansion|dual derivation): \d+/\d+, \d+\.\d{3} s"
SEEDS = (r"seeds: (\d+) lifted automorphisms of the first structure, "
         r"built in \d+\.\d{3} s, checked in \d+\.\d{3} s")


@pytest.mark.parametrize("command", [("payne-check", "3"),
                                     ("isocheck", "payne-dual:2", "payne-dual:2")])
def test_verbose_prints_search_counters(command, capsys):
    assert run(*command) == 0
    quiet = capsys.readouterr()
    assert run("-v", *command) == 0
    loud = capsys.readouterr()
    assert quiet.err == "" and loud.out == quiet.out
    lines = [line for line in loud.err.splitlines() if line.startswith("search ")]
    assert len(lines) == 2
    assert all(re.fullmatch(SEARCH_COUNTERS, line) for line in lines)
    # every stage line ends with its wall seconds
    built = [line for line in loud.err.splitlines() if line.startswith("built ")]
    assert len(built) == (2 if command[0] == "payne-check" else 0)
    assert all(re.fullmatch(BUILT, line) for line in built)
    # payne-check seeds the expansion's search with its 6 lifts at q=3
    seeds = [re.fullmatch(SEEDS, line) for line in loud.err.splitlines()
             if line.startswith("seeds: ")]
    assert [m and m[1] for m in seeds] == (["6"] if command[0] == "payne-check" else [])
    assert len(loud.err.splitlines()) == len(lines) + len(built) + len(seeds)


def test_payne_check_q3():
    assert run("payne-check", "3") == 0


def test_isocheck_bare_plane_within_budget(capsys):
    assert run("isocheck", "ag2:8", "ag2:8", "--timeout", "30") == 0
    assert capsys.readouterr().out.strip() == "isomorphic"


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


def test_gf_q_and_gf_p_n_name_the_same_group(tmp_path):
    docs = []
    for spec in ("gf:4", "gf:2:2"):
        report = tmp_path / "scan.json"
        assert run("search", "--base", "ag2:4", "--group", spec, "--budget", "5",
                   "--report", report) == 3
        docs.append(read_json(report))
    argvs = [doc["config"].pop("argv") for doc in docs]
    assert argvs[0] != argvs[1] and docs[0] == docs[1]


def test_search_budget_exit_code(tmp_path):
    assert run("search", "--base", "ag2:2", "--group", "z:2",
               "--budget", "3", "--report", tmp_path / "r.json") == 3


SCAN_COUNTERS = (r"scan: (\d+) scanned, (\d+) evaluated, (\d+) survivors, (\d+) classes "
                 r"in \d+\.\d{3} s, (\d+) assignments/s")
PROGRESS = r"progress: (\d+) scanned, (\d+) evaluated, (\d+) survivors, (\d+) assignments/s"


def test_search_verbose_prints_scan_counters_outside_the_report(tmp_path, capsys):
    report = tmp_path / "scan.json"
    argv = ("-v", "search", "--base", "ag2:3", "--group", "z:3", "--fast",
            "--report", report)
    assert run(*argv) == 0
    first = report.read_bytes()
    *progress, last = capsys.readouterr().err.splitlines()
    assert all(re.fullmatch(PROGRESS, line) for line in progress)
    match = re.fullmatch(SCAN_COUNTERS, last)
    assert match
    scanned, evaluated, survivors, classes, rate = map(int, match.groups())
    doc = read_json(report)
    assert (scanned, survivors, classes) == (doc["scanned"], doc["gq_count"],
                                             doc["class_count"]) == (3 ** 16, 2, 1)
    assert 0 < evaluated < scanned and rate > 0
    assert run(*argv) == 0
    assert report.read_bytes() == first
    capsys.readouterr()
    assert run("search", "--base", "ag2:2", "--group", "z:2") == 0
    assert capsys.readouterr().err == ""


def test_search_verbose_prints_progress_at_the_checkpoint_cadence(tmp_path, capsys):
    argv = ("search", "--base", "ag2:3", "--group", "z:3", "--budget", "5000", "--report")
    assert run(*argv, tmp_path / "quiet.json") == 3
    assert capsys.readouterr().err == ""
    assert run("-v", *argv, tmp_path / "loud.json") == 3
    *progress, last = capsys.readouterr().err.splitlines()
    assert re.fullmatch(SCAN_COUNTERS, last)
    # one line in each batch that passes 2048 and 4096; the near-miss scan
    # evaluates every assignment, and none of the first 5000 survives
    counters = [re.fullmatch(PROGRESS, line) for line in progress]
    assert len(counters) == 2 and all(counters)
    scanned = [int(m[1]) for m in counters]
    assert [s // CHECKPOINT_EVERY for s in scanned] == [1, 2]
    assert [(int(m[2]), int(m[3])) for m in counters] == [(s, 0) for s in scanned]
    # the report differs only in the config, which records argv and -v
    docs = [read_json(tmp_path / name) for name in ("quiet.json", "loud.json")]
    configs = [doc.pop("config") for doc in docs]
    assert docs[0] == docs[1] and [c["verbose"] for c in configs] == [False, True]


def test_successive_main_calls_carry_no_state(tmp_path, capsys):
    fast, plain = tmp_path / "fast.json", tmp_path / "plain.json"
    assert run("-v", "search", "--base", "ag2:2", "--group", "z:2", "--fast",
               "--report", fast) == 0
    assert capsys.readouterr().err.startswith("scan: ")
    assert run("search", "--base", "ag2:2", "--group", "z:2", "--report", plain) == 0
    assert capsys.readouterr().err == ""
    assert read_json(fast)["near_miss"] == {}
    assert read_json(plain)["near_miss"] != {}
    assert read_json(plain)["config"]["verbose"] is False


@pytest.mark.parametrize("target", ["existing-directory", "missing-directory/x.json"])
def test_failed_write_names_the_path_and_leaves_no_temp_file(tmp_path, capsys, target):
    out = tmp_path / target
    if target == "existing-directory":
        out.mkdir()
    assert run("export", "ag2:2", "--format", "json", "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{out}'" in err and ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp*"))


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
    "gain-entry-twice": ({"g.json": {"group": {"kind": "GFpn", "p": 2, "n": 1},
                                     "gains": _ag22_gains({}, [0])["gains"] + [[0, 0, [1]]]}},
                         ["build", "ag2", "2", "--gains", "g.json"]),
    "incidence-entry-bool": ({"s.json": {"points": [0, 1], "lines": [0],
                                         "incidence": [[True, 0], [1, 0]]}},
                             ["verify", "s.json", "--as", "gq"]),
    "incidence-entry-three-elements": ({"s.json": {"points": [0, 1], "lines": [0],
                                                   "incidence": [[0, 0, 0], [1, 0]]}},
                                       ["verify", "s.json", "--as", "gq"]),
    "incidence-entry-scalar": ({"s.json": {"points": [0, 1], "lines": [0],
                                           "incidence": [0, [1, 0]]}},
                               ["verify", "s.json", "--as", "gq"]),
    "group-modulus-float": ({"g.json": _ag22_gains({"kind": "Zn", "modulus": 2.7}, 1)},
                            ["build", "ag2", "2", "--gains", "g.json"]),
    "group-modulus-string": ({"g.json": _ag22_gains({"kind": "Zn", "modulus": "2"}, 1)},
                             ["build", "ag2", "2", "--gains", "g.json"]),
    "group-degree-float": ({"g.json": _ag22_gains({"kind": "GFpn", "p": 2, "n": 1.5}, [1])},
                           ["build", "ag2", "2", "--gains", "g.json"]),
    "group-without-modulus-field": ({"g.json": _ag22_gains({"kind": "Zn"}, 1)},
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
    "group-zn-alias": ({}, ["search", "--base", "ag2:2", "--group", "zn:3"]),
    "group-rationals": ({}, ["search", "--base", "ag2:2", "--group", "q"]),
    "group-rationals-emit-gains": ({}, ["build", "ag2", "2", "--identity-gains",
                                        "--group", "q", "--emit-gains", "g.json"]),
    "ag2-not-a-prime-power": ({}, ["verify", "ag2:6", "--as", "linear-space"]),
    "ag2-not-a-prime-power-build": ({}, ["build", "ag2", "6", "--with-gains"]),
    "ag2-three-arguments": ({}, ["verify", "ag2:2:2:2", "--as", "linear-space"]),
    # orders past the ceiling are refused before any factoring or primality test
    "ag2-order-past-ceiling": ({}, ["verify", "ag2:2305843009213693951", "--as", "gq"]),
    "group-characteristic-past-ceiling": ({}, ["search", "--base", "ag2:2", "--group",
                                               "gf:2305843009213693951", "--budget", "1"]),
    "group-degree-past-ceiling": (
        {"g.json": _ag22_gains({"kind": "GFpn", "p": 2, "n": 1000000000}, [1])},
        ["build", "ag2", "2", "--gains", "g.json"]),
    "negative-budget": ({}, ["search", "--base", "ag2:2", "--group", "z:2",
                             "--budget", "-5"]),
    "timeout-zero": ({}, ["isocheck", "ag2:2", "ag2:2", "--timeout", "0"]),
    "timeout-nan": ({}, ["payne-check", "2", "--timeout", "nan"]),
    "timeout-negative": ({}, ["isocheck", "ag2:2", "ag2:2", "--timeout", "-1"]),
    "timeout-infinite": ({}, ["isocheck", "ag2:2", "ag2:2", "--timeout", "inf"]),
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


@pytest.mark.parametrize("argv, kind", [
    (["search", "--base", "ag2:2", "--group", "q"], "spec"),
    (["build", "ag2", "2", "--identity-gains", "--group", "q", "--emit-gains", "g.json"],
     "spec"),
    (["build", "ag2", "2", "--gains", "g.json"], "kind"),
])
def test_rational_group_is_refused_before_any_file_is_written(tmp_path, monkeypatch,
                                                               capsys, argv, kind):
    monkeypatch.chdir(tmp_path)
    if "--gains" in argv:
        (tmp_path / "g.json").write_text(json.dumps(_ag22_gains({"kind": "Q"}, [1, 2])))
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(*argv) == 2
    expected = {"spec": "error: unknown group spec 'q'", "kind": "error: unknown group kind 'Q'"}
    assert capsys.readouterr().err.startswith(expected[kind])
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_unknown_file_is_usage_error():
    assert run("verify", "no-such-file.json", "--as", "gq") == 2


def test_selftest():
    assert run("--seed", "1", "selftest") == 0


def test_selftest_reports_a_failing_stage(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gq_criterion", lambda g: Verdict(False, (0, 1)))
    assert run("selftest") == 1
    out = capsys.readouterr().out
    assert "FAIL shipped gains over GF(2) give order (3,1), criterion witness (0, 1)\n" in out
    assert out.endswith(" failed\n")


def test_console_entry_point(tmp_path):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "gainquad", "export", "ag2:2", "--format", "dot"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "graph incidence {" in proc.stdout
