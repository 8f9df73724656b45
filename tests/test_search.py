"""Gauge-fixed and unreduced scans over gain assignments."""

import hashlib
import json
import random
from collections import Counter

import pytest

import gainquad.search as search_module
import gainquad.storage as storage_module
from gainquad import (GF, AdditiveGroup, CyclicGroup, GainGraph, affine_gains,
                      affine_plane, canonical_form, detour_gains, expand, field_from_order,
                      gq_criterion, run_search, spanning_tree_edges, switch)
from gainquad.construction import DetourKernel
from gainquad.search import BATCH_VALUES, _config_digest, _unrank, _unrank_batch
from gainquad.storage import json_text
from helpers import label_sweep, pair_depths, relabeled, tiny_base


def test_gauge_fixed_scan_size(plane2):
    report = run_search(plane2.structure, CyclicGroup(2))
    assert report.total_space == 2 ** 3  # 12 edges, 9 in the tree
    assert report.scanned == 8
    assert not report.partial
    assert report.gq_count >= 1


def test_shipped_gains_class_is_found(plane2):
    report = run_search(plane2.structure, CyclicGroup(2))
    g = affine_gains(plane2)
    # the shipped assignment uses the field's additive group; rebuild it
    # over Z2 so certificates are comparable
    gains = {k: v[0] for k, v in g.gains.items()}
    z2 = GainGraph(plane2.structure, CyclicGroup(2), gains)
    assert gq_criterion(z2).ok
    cert = canonical_form(expand(z2)).certificate
    assert cert in report.certificates


def test_representatives_unique_and_verified(plane2):
    report = run_search(plane2.structure, CyclicGroup(2))
    certs = [r["certificate"] for r in report.representatives]
    assert len(certs) == len(set(certs))
    assert sorted(certs) == report.certificates
    for rep in report.representatives:
        g = GainGraph(plane2.structure, CyclicGroup(2),
                      {(b, p): int(v) for p, b, v in rep["gains"]["gains"]})
        assert gq_criterion(g).ok


# sha256 of json.dumps(report.to_json(), sort_keys=True), so that a change
# to the kernel's layout or to batching cannot move a byte of the near-miss
# tally, the survivors or the representatives.
REPORT_DIGESTS = [
    ("plane3", 3, 2500, False,
     "073667cac4e31bda3f7ffe1c195735f3eb13b8032e9718030b09f6691aecfbbb"),
    ("plane2", 2, None, False,
     "ad6dc45429b70a87defd8fd8c887b3f735e0fd67fb63aa58a9d9c589f266c3ff"),
    ("plane2", 2, None, True,
     "d22cab9bed84fa0ea48b71763dc23f2ac92263d65926056c028e1f5ce018a75a"),
]


@pytest.mark.parametrize("plane, n, budget, unreduced, digest", REPORT_DIGESTS)
def test_report_bytes_are_pinned(request, plane, n, budget, unreduced, digest):
    base = request.getfixturevalue(plane).structure
    report = run_search(base, CyclicGroup(n), budget=budget, unreduced=unreduced)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# _config_digest of three scans: a checkpoint stores it and a resume
# compares it, so a checkpoint written by an earlier version resumes only
# while these stay put.
CONFIG_DIGESTS = [
    ((2, 1), CyclicGroup(2), False, True,
     "8024087f0c912dcab45fca37032fd159a6e22a50f92cc39274c97afe0a273124"),
    ((3, 1), CyclicGroup(3), False, False,
     "8b442438a5d4c230273e0dfa387815b02a6830b81e8ebeae67a44bcf96bb40e8"),
    ((2, 2), AdditiveGroup(GF(2, 2)), True, True,
     "da224f79407fda1191c64d7ed7f398be06d776f3c6e5cd5a343bd66adedf7f1e"),
]


@pytest.mark.parametrize("field, group, unreduced, near_miss, digest", CONFIG_DIGESTS)
def test_config_digest_is_pinned(field, group, unreduced, near_miss, digest):
    base = affine_plane(GF(*field)).structure
    assert _config_digest(base, group, unreduced, near_miss) == digest


def test_unreduced_matches_gauge_fixed(plane2):
    gauge = run_search(plane2.structure, CyclicGroup(2))
    full = run_search(plane2.structure, CyclicGroup(2), unreduced=True)
    assert full.total_space == 2 ** 12
    assert full.scanned == 2 ** 12
    assert full.certificates == gauge.certificates


def test_near_miss_histogram(plane2):
    report = run_search(plane2.structure, CyclicGroup(2))
    total_pairs = 6 * 4 - 12
    assert all(0 <= k < total_pairs for k in report.near_miss)
    assert sum(report.near_miss.values()) + report.gq_count == report.scanned


def test_fast_mode_agrees_on_survivors(plane2):
    for unreduced in (False, True):
        slow = run_search(plane2.structure, CyclicGroup(2), unreduced=unreduced)
        fast = run_search(plane2.structure, CyclicGroup(2), unreduced=unreduced,
                          near_miss=False)
        assert fast.scanned == slow.scanned
        assert fast.gq_count == slow.gq_count
        assert fast.representatives == slow.representatives
        assert fast.near_miss == {}


def test_determinism(plane2):
    a = run_search(plane2.structure, CyclicGroup(2)).to_json()
    b = run_search(plane2.structure, CyclicGroup(2)).to_json()
    a.pop("config")
    b.pop("config")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_budget_flags_partial(plane2):
    report = run_search(plane2.structure, CyclicGroup(2), budget=3)
    assert report.partial
    assert report.scanned == 3


def test_checkpoint_resume(tmp_path, plane2, monkeypatch):
    ck = str(tmp_path / "scan.ck")
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1)
    first = run_search(plane2.structure, CyclicGroup(2), budget=3,
                       checkpoint_path=ck)
    assert first.partial
    resumed = run_search(plane2.structure, CyclicGroup(2), checkpoint_path=ck)
    oneshot = run_search(plane2.structure, CyclicGroup(2))
    assert resumed.scanned == oneshot.scanned == 8
    assert resumed.certificates == oneshot.certificates
    assert resumed.near_miss == oneshot.near_miss


def test_checkpoint_mismatch_rejected(tmp_path, plane2, plane3):
    ck = str(tmp_path / "scan.ck")
    run_search(plane2.structure, CyclicGroup(2), budget=2, checkpoint_path=ck)
    with pytest.raises(ValueError):
        run_search(plane3.structure, CyclicGroup(3), checkpoint_path=ck)


def test_checkpoint_of_another_certificate_version_exits_2(tmp_path, monkeypatch, capsys):
    from gainquad.cli import main
    ck = tmp_path / "scan.ck"
    argv = ["search", "--base", "ag2:3", "--group", "z:3", "--budget", "50",
            "--checkpoint", str(ck)]
    monkeypatch.setattr(search_module, "CERTIFICATE_VERSION",
                        search_module.CERTIFICATE_VERSION + 1)
    assert main(argv) == 3 and ck.exists()
    monkeypatch.undo()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: checkpoint does not match this search\n"


# (change to a checkpoint of 4 failing assignments, near_miss); AG(2,2)
# has 12 non-incident pairs
MALFORMED = [
    ({"next_index": -1}, True), ({"next_index": 9}, True), ({"representatives": [1]}, True),
    ({"gq_count": None}, True), ({"representatives": [{"certificate": 7}]}, True),
    ({"representatives": 0}, True), ({"near_miss": {"x": 1}}, True),
    ({"near_miss": {"1": 2.5}}, True), ({"representatives": [{"certificate": "abc"}]}, True),
    ({"gq_count": 5}, True),
    ({"representatives": [{"certificate": "abc", "structure": {}}]}, True),
    ({"near_miss": {"1": 5, "2": -1}}, True), ({"near_miss": {"12": 4}}, True),
    ({"near_miss": {"1": 3}}, True), ({"near_miss": {"1": 4}}, False),
    ({"near_miss": {"\u00b2": 4}}, True)]
# one representative of 4 scanned assignments, 3 of them failing
_REP = {"certificate": "abc", "structure": {}}
MALFORMED += [
    ({"gq_count": 1, "near_miss": {"1": 3}, "representatives": [rep]}, True)
    for rep in (_REP, {**_REP, "assignment_index": 4}, {**_REP, "assignment_index": -1},
                {**_REP, "assignment_index": 2.0}, {**_REP, "assignment_index": "2"},
                {**_REP, "assignment_index": True})]


@pytest.mark.parametrize("change, near_miss", MALFORMED,
                         ids=[f"change{i}" for i in range(len(MALFORMED))])
def test_malformed_checkpoint_rejected(tmp_path, plane2, change, near_miss):
    ck = tmp_path / "scan.ck"
    state = {"digest": _config_digest(plane2.structure, CyclicGroup(2), False, near_miss),
             "next_index": 4, "scanned": 4, "gq_count": 0, "certificates": [],
             "representatives": [], "near_miss": {"1": 4} if near_miss else {}}
    ck.write_text(json.dumps(state))
    assert run_search(plane2.structure, CyclicGroup(2), near_miss=near_miss,
                      checkpoint_path=str(ck)).scanned == 8
    ck.write_text(json.dumps({**state, **change}))
    with pytest.raises(ValueError, match="malformed"):
        run_search(plane2.structure, CyclicGroup(2), near_miss=near_miss,
                   checkpoint_path=str(ck))


def test_checkpoint_is_compact_json_with_one_trailing_newline(tmp_path, plane2):
    ck = tmp_path / "scan.ck"
    run_search(plane2.structure, CyclicGroup(2), budget=3, checkpoint_path=str(ck))
    text = ck.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_checkpoint_in_the_spaced_layout_resumes(tmp_path, plane2, monkeypatch):
    # earlier versions wrote checkpoints with ", " and ": " as separators
    # and no trailing newline
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1000)
    base, group = plane2.structure, CyclicGroup(2)
    oneshot, ck = tmp_path / "oneshot.ck", tmp_path / "scan.ck"
    run_search(base, group, unreduced=True, checkpoint_path=str(oneshot))
    assert run_search(base, group, unreduced=True, budget=1500,
                      checkpoint_path=str(ck)).partial
    ck.write_text(json.dumps(json.loads(ck.read_text()), sort_keys=True))
    run_search(base, group, unreduced=True, checkpoint_path=str(ck))
    assert ck.read_bytes() == oneshot.read_bytes()


def test_scan_stats_time_the_kernel_within_the_scan(plane2):
    stats = []
    run_search(plane2.structure, CyclicGroup(2), unreduced=True, stats=stats)
    assert stats[0].rows == 2 ** 12
    assert 0 < stats[0].kernel_seconds < stats[0].seconds


def test_verdict_is_switching_invariant(plane2):
    rng = random.Random(21)
    group = CyclicGroup(2)
    els = group.elements()
    base = plane2.structure
    for _ in range(5):
        gains = {(b, p): rng.choice(els) for p, b in base.incidence}
        g = GainGraph(base, group, gains)
        verdict = bool(gq_criterion(g))
        for _ in range(3):
            f = {e: rng.choice(els) for e in range(base.n_elements)}
            assert bool(gq_criterion(switch(g, f))) == verdict


def test_search_rejects_non_linear_space():
    with pytest.raises(ValueError):
        run_search(tiny_base(), CyclicGroup(2))


def _scalar_good_pairs(g):
    """Bijective detour tables counted one pair at a time."""
    base, group = g.base, g.group
    good = 0
    for b in range(base.n_lines):
        for p in range(base.n_points):
            if (p, b) not in base.incidence_set:
                values = list(detour_gains(g, b, p).values())
                good += len(set(values)) == len(values) == group.order
    return good


def _scalar_scan(base, group, indices):
    """(near-miss histogram, survivors) of gauge-fixed assignments, one
    assignment at a time through detour_gains."""
    all_edges = sorted((b, p) for p, b in base.incidence)
    tree = set(spanning_tree_edges(base))
    free = [e for e in all_edges if e not in tree]
    elems = group.elements()
    pairs = base.n_points * base.n_lines - len(base.incidence)
    misses = Counter()
    survivors = 0
    for index in indices:
        gains = {e: group.identity() for e in tree}
        for e, d in zip(free, _unrank(index, len(elems), len(free))):
            gains[e] = elems[d]
        good = _scalar_good_pairs(GainGraph(base, group, gains))
        if good == pairs:
            survivors += 1
        else:
            misses[good] += 1
    return dict(misses), survivors


def test_budgeted_near_miss_histogram_matches_scalar_loop(plane3):
    # 700 assignments span more than one batch
    report = run_search(plane3.structure, CyclicGroup(3), budget=700)
    misses, survivors = _scalar_scan(plane3.structure, CyclicGroup(3), range(700))
    assert report.scanned == 700 and report.partial
    assert report.near_miss == misses
    assert report.gq_count == survivors


def test_unrank_batch_carries_past_int64():
    radix, width = 4, 45
    total = radix ** width
    assert total > 2 ** 63
    for start in (0, 5, total - 300, 2 ** 63 - 7, radix ** 30 - 2):
        count = min(300, total - start)
        rows = _unrank_batch(start, count, radix, width).T.tolist()
        assert rows == [_unrank(start + r, radix, width) for r in range(count)]


# (radix, width) of the AG(2,2)/Z2, AG(2,3)/Z3 and AG(2,5)/Z5 gauge-fixed scans
@pytest.mark.parametrize("radix,width", [(2, 3), (3, 16), (5, 96)])
def test_unrank_batch_matches_unrank_column_by_column(radix, width):
    total = radix ** width
    if total <= 8:
        batches = [(start, count) for start in range(total)
                   for count in range(1, total - start + 1)]
    else:
        # carries into one and into many high digits, and batches that end
        # at the last assignment
        batches = [(max(0, radix ** m - d), count) for m in (1, 2, 5, width - 1)
                   for d in (1, 2, radix + 1) for count in (1, radix, 606)]
        batches += [(total - count, count) for count in (1, 2, radix ** 2, 606)]
        batches += [(2 ** 63 - 7, 43)] if total > 2 ** 64 else []
    for start, count in batches:
        columns = _unrank_batch(start, count, radix, width).T.tolist()
        assert columns == [_unrank(start + r, radix, width) for r in range(count)], (start, count)


def test_resume_near_the_end_of_a_space_beyond_int64(tmp_path):
    # AG(2,4) over GF(4): 45 free edges, 4^45 ~ 1.2e27 assignments
    base = affine_plane(GF(2, 2)).structure
    group = AdditiveGroup(GF(2, 2))
    free = len(base.incidence) - (base.n_elements - 1)
    total = group.order ** free
    ck = tmp_path / "scan.ck"
    # every assignment before the window counted as a failure in bucket 0
    ck.write_text(json.dumps({
        "digest": _config_digest(base, group, False, True),
        "next_index": total - 300, "scanned": 0, "gq_count": 0,
        "certificates": [], "representatives": [], "near_miss": {"0": total - 300}}))
    report = run_search(base, group, checkpoint_path=str(ck))
    # the scan resumes at next_index; scanned is that index, not a tally
    assert report.total_space == total and report.scanned == total
    assert not report.partial
    misses, survivors = _scalar_scan(base, group, range(total - 300, total))
    assert report.near_miss - Counter({0: total - 300}) == misses
    assert report.gq_count == survivors
    assert json.loads(ck.read_text())["next_index"] == total


@pytest.mark.parametrize("q, unreduced, budget, cut, near_miss", [
    pytest.param(2, True, None, 1500, True, id="2-True-None-1500"),
    # near-miss buckets first seen after the cut come in another order
    pytest.param(3, False, 3000, 100, True, id="3-False-3000-100"),
    pytest.param(2, True, None, 1500, False, id="fast-2-True-None-1500"),
    pytest.param(3, False, 3000, 100, False, id="fast-3-False-3000-100"),
    # the cut falls inside a skipped block: the first batch ends at row
    # 606 and skips past 25 000 (test_fast_scan_evaluates_one_batch)
    pytest.param(3, False, None, 2000, False, id="fast-3-False-None-2000"),
])
def test_resumed_checkpoint_is_byte_identical(tmp_path, monkeypatch, q, unreduced, budget,
                                              cut, near_miss):
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1000)
    base, group = affine_plane(GF(q)).structure, CyclicGroup(q)
    oneshot = tmp_path / "oneshot.ck"
    run_search(base, group, unreduced=unreduced, budget=budget, near_miss=near_miss,
               checkpoint_path=str(oneshot))
    resumed = tmp_path / "resumed.ck"
    first = run_search(base, group, unreduced=unreduced, budget=cut, near_miss=near_miss,
                       checkpoint_path=str(resumed))
    assert first.partial
    assert json.loads(resumed.read_text())["next_index"] == cut
    run_search(base, group, unreduced=unreduced, budget=budget, near_miss=near_miss,
               checkpoint_path=str(resumed))
    assert resumed.read_bytes() == oneshot.read_bytes()


def test_checkpoint_with_scanned_and_certificates_resumes(tmp_path, plane2, monkeypatch):
    # Older checkpoints also stored "scanned" (always next_index) and
    # "certificates" (the representatives' certificates, in their order).
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1000)
    group = CyclicGroup(2)
    ck = tmp_path / "scan.ck"
    run_search(plane2.structure, group, unreduced=True, budget=1500,
               checkpoint_path=str(ck))
    state = json.loads(ck.read_text())
    assert sorted(state) == ["digest", "gq_count", "near_miss", "next_index",
                             "representatives"]
    assert state["representatives"]
    state["scanned"] = state["next_index"]
    state["certificates"] = [r["certificate"] for r in state["representatives"]]
    ck.write_text(json.dumps(state, sort_keys=True))
    resumed = run_search(plane2.structure, group, unreduced=True,
                         checkpoint_path=str(ck))
    oneshot = run_search(plane2.structure, group, unreduced=True)
    assert resumed.to_json() == oneshot.to_json()


def test_checkpoint_survives_a_failed_write(tmp_path, plane2, monkeypatch):
    group = CyclicGroup(2)
    ck = tmp_path / "scan.ck"
    real_replace = storage_module.os.replace
    calls = []
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1000)

    def replace_once(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("simulated crash while writing the checkpoint")
        real_replace(src, dst)

    monkeypatch.setattr(storage_module.os, "replace", replace_once)
    with pytest.raises(OSError):
        run_search(plane2.structure, group, unreduced=True,
                   checkpoint_path=str(ck))
    assert json.loads(ck.read_text())["next_index"] == 1000
    monkeypatch.setattr(storage_module.os, "replace", real_replace)
    resumed = run_search(plane2.structure, group, unreduced=True,
                         checkpoint_path=str(ck))
    oneshot = run_search(plane2.structure, group, unreduced=True)
    assert resumed.to_json() == oneshot.to_json()


def test_unreduced_canonicalises_once_per_switching_class(plane2, monkeypatch):
    base, group = plane2.structure, CyclicGroup(2)
    all_edges = sorted((b, p) for p, b in base.incidence)
    direct = set()
    survivors = 0
    for index in range(2 ** len(all_edges)):
        digits = _unrank(index, 2, len(all_edges))
        g = GainGraph(base, group, dict(zip(all_edges, digits)))
        ok = next(label_sweep(g), None) is None
        assert gq_criterion(g).ok == ok
        if ok:
            survivors += 1
            direct.add(canonical_form(expand(g)).certificate)
    assert survivors == 512

    calls = []
    real = search_module.canonical_form

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    graphs = []
    real_graph = search_module.GainGraph

    def counting_graph(*args, **kwargs):
        graphs.append(args)
        return real_graph(*args, **kwargs)

    monkeypatch.setattr(search_module, "canonical_form", counting)
    monkeypatch.setattr(search_module, "GainGraph", counting_graph)
    report = run_search(base, group, unreduced=True)
    assert report.gq_count == 512
    assert set(report.certificates) == direct
    assert len(calls) == 1
    # the survivors are gauge-fixed as code columns; only the new class
    # becomes a gain graph
    assert len(graphs) == 1


def test_resumed_unreduced_scan_restores_its_gauged_classes(tmp_path, plane2, monkeypatch):
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1000)
    base, group = plane2.structure, CyclicGroup(2)
    calls = []
    real = search_module.canonical_form

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(search_module, "canonical_form", counting)
    oneshot = run_search(base, group, unreduced=True)
    oneshot_calls = len(calls)
    calls.clear()
    ck = tmp_path / "scan.ck"
    first = run_search(base, group, unreduced=True, budget=1500, checkpoint_path=str(ck))
    assert first.partial and first.representatives
    resumed = run_search(base, group, unreduced=True, checkpoint_path=str(ck))
    assert len(calls) == oneshot_calls == 1
    assert json_text(resumed.to_json()) == json_text(oneshot.to_json())


# The full gauge-fixed AG(2,3)/Z3 space and its one class of quadrangles.
Z3_SPACE = 3 ** 16
Z3_FIRST_SURVIVOR = 28_086_656


def _survivors(report):
    """What a fast scan must reproduce: the survivor count and the class
    representatives, each with its assignment_index."""
    return report.gq_count, report.representatives


@pytest.mark.parametrize("budget", [
    700, 25_000,
    # about 13 s of near-miss scanning; the fast scan skips from row 606
    # to 3^14 and then evaluates 5 rows
    pytest.param(3 ** 14 + 5, marks=pytest.mark.extended),
])
def test_fast_scan_matches_near_miss_scan(plane3, budget):
    fast = run_search(plane3.structure, CyclicGroup(3), budget=budget, near_miss=False)
    slow = run_search(plane3.structure, CyclicGroup(3), budget=budget)
    assert fast.scanned == slow.scanned == budget and fast.partial
    assert _survivors(fast) == _survivors(slow)
    assert fast.near_miss == {}


def test_fast_scan_matches_scalar_loop(plane3):
    base, group = plane3.structure, CyclicGroup(3)
    report = run_search(base, group, budget=700, near_miss=False)
    assert report.gq_count == _scalar_scan(base, group, range(700))[1]
    # a sample of the assignments the longer scan skips
    budget = 3 ** 14 + 5
    report = run_search(base, group, budget=budget, near_miss=False)
    sample = random.Random(14).sample(range(budget), 150) + list(range(budget - 5, budget))
    assert report.gq_count == _scalar_scan(base, group, sample)[1] == 0


def _resumed_scans(tmp_path, base, group, start, budget=None):
    """The fast and the near-miss scan, each resumed at index start from a
    checkpoint with no survivors before it (the near-miss scan's tally
    puts them all in bucket 0), and the fast scan's stats."""
    reports, stats = [], []
    for near_miss in (False, True):
        ck = tmp_path / f"scan-{near_miss}.ck"
        ck.write_text(json.dumps({
            "digest": _config_digest(base, group, False, near_miss),
            "next_index": start, "gq_count": 0, "representatives": [],
            "near_miss": {"0": start} if near_miss else {}}))
        reports.append(run_search(base, group, budget=budget, near_miss=near_miss,
                                  checkpoint_path=str(ck), stats=stats))
        assert json.loads(ck.read_text())["next_index"] == reports[-1].scanned
    return reports[0], reports[1], stats[0]


def test_fast_scan_matches_near_miss_scan_on_a_resumed_window(tmp_path, plane3):
    fast, slow, _ = _resumed_scans(tmp_path, plane3.structure, CyclicGroup(3),
                                   Z3_FIRST_SURVIVOR - 1000, Z3_FIRST_SURVIVOR + 1000)
    assert _survivors(fast) == _survivors(slow)
    assert fast.gq_count == 1
    assert fast.representatives[0]["assignment_index"] == Z3_FIRST_SURVIVOR
    window = range(Z3_FIRST_SURVIVOR - 20, Z3_FIRST_SURVIVOR + 20)
    assert _scalar_scan(plane3.structure, CyclicGroup(3), window)[1] == 1


def test_fast_resume_near_the_end_of_a_space_beyond_int64(tmp_path):
    # AG(2,4) over GF(4): 4^45 assignments, batches of 136 rows, and skips
    # capped at the end of the space
    base = affine_plane(GF(2, 2)).structure
    group = AdditiveGroup(GF(2, 2))
    total = group.order ** (len(base.incidence) - (base.n_elements - 1))
    fast, slow, stats = _resumed_scans(tmp_path, base, group, total - 300)
    assert fast.scanned == total and not fast.partial
    assert _survivors(fast) == _survivors(slow)
    assert stats.rows < 300


def test_pair_depths_match_their_definition(monkeypatch):
    # the depths run_search computes, on relabelled planes whose spanning
    # trees differ from the plain ones; over Z2 every line of AG(2,3) has
    # another size and every depth is 0
    depths = []
    real = DetourKernel.depth

    def recording(self, position):
        depths.append(real(self, position))
        return depths[-1]

    monkeypatch.setattr(DetourKernel, "depth", recording)
    rng = random.Random(31)
    for q, group in ((3, CyclicGroup(3)), (4, AdditiveGroup(GF(2, 2))), (3, CyclicGroup(2))):
        base = relabeled(affine_plane(field_from_order(q)).structure, rng)[0]
        for unreduced in (False, True):
            report = run_search(base, group, budget=1, unreduced=unreduced, near_miss=False)
            expect = pair_depths(base, group.order, report.free_edges)
            assert depths.pop().tolist() == expect
            assert (max(expect) > 0) == (group.order == q)


def test_fast_scan_on_lines_of_another_size_skips_everything(plane3):
    # lines of 3 points over Z2: no pair can be bijective, every pair has
    # depth 0, and the first batch settles the whole space
    base, group = plane3.structure, CyclicGroup(2)
    stats = []
    fast = run_search(base, group, near_miss=False, stats=stats)
    slow = run_search(base, group)
    assert fast.scanned == slow.scanned == 2 ** 16 and not fast.partial
    assert _survivors(fast) == _survivors(slow) == (0, [])
    pairs = base.n_points * base.n_lines - len(base.incidence)
    assert stats[0].rows == BATCH_VALUES // (pairs * 2)
    assert _scalar_scan(base, group, range(0, 2 ** 16, 4099))[1] == 0


def test_full_gauge_fixed_z3_fast_scan(plane3):
    report = run_search(plane3.structure, CyclicGroup(3), near_miss=False)
    assert report.scanned == report.total_space == Z3_SPACE
    assert not report.partial
    assert report.gq_count == 2
    assert len(report.representatives) == 1
    assert report.representatives[0]["order"] == [4, 2]
    assert report.representatives[0]["assignment_index"] == Z3_FIRST_SURVIVOR


@pytest.mark.extended
def test_full_gauge_fixed_z3_near_miss_scan_agrees(plane3):
    # about two minutes: every assignment is evaluated
    fast = run_search(plane3.structure, CyclicGroup(3), near_miss=False)
    slow = run_search(plane3.structure, CyclicGroup(3))
    assert slow.scanned == Z3_SPACE
    assert _survivors(fast) == _survivors(slow)
    assert sum(slow.near_miss.values()) + slow.gq_count == Z3_SPACE


def test_fast_scan_evaluates_one_batch(plane3, monkeypatch):
    rows = []
    real = DetourKernel.bijective

    def counting(self, codes):
        rows.append(codes.shape[-1])
        return real(self, codes)

    monkeypatch.setattr(DetourKernel, "bijective", counting)
    stats = []
    report = run_search(plane3.structure, CyclicGroup(3), budget=25_000, near_miss=False,
                        stats=stats)
    assert report.scanned == 25_000 and report.partial
    pairs = 9 * 12 - 36
    assert len(rows) == 1 and rows[0] <= BATCH_VALUES // (pairs * 3)
    assert stats[0].rows == sum(rows)


def test_a_skip_past_checkpoint_boundaries_saves_once_at_its_end(tmp_path, plane3,
                                                                  monkeypatch):
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1000)
    saved = []
    real = search_module.atomic_write

    def recording(path, text):
        saved.append(json.loads(text)["next_index"])
        real(path, text)

    monkeypatch.setattr(search_module, "atomic_write", recording)
    ck = tmp_path / "scan.ck"
    report = run_search(plane3.structure, CyclicGroup(3), near_miss=False,
                        checkpoint_path=str(ck))
    # the first batch ends at row 606, and its skip to 3^14 passes 4782
    # boundaries
    assert saved[0] == 3 ** 14
    assert saved == sorted(saved) and len(saved) < 100
    assert saved[-1] == Z3_SPACE
    resumed = tmp_path / "resumed.ck"
    resumed.write_text(json.dumps({
        "digest": _config_digest(plane3.structure, CyclicGroup(3), False, False),
        "next_index": 3 ** 14, "gq_count": 0, "representatives": [], "near_miss": {}}))
    assert run_search(plane3.structure, CyclicGroup(3), near_miss=False,
                      checkpoint_path=str(resumed)).to_json() == report.to_json()
    assert resumed.read_bytes() == ck.read_bytes()
