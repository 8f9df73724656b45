"""Gauge-fixed and unreduced scans over gain assignments."""

import json
import random
from collections import Counter

import pytest

import gainquad.search as search_module
import gainquad.storage as storage_module
from gainquad import (GF, AdditiveGroup, CyclicGroup, GainGraph, affine_gains,
                      affine_plane, canonical_form, detour_gains, expand,
                      gq_criterion, label_sweep, run_search, spanning_tree_edges,
                      switch, verify_known)
from gainquad.search import _config_digest, _unrank, _unrank_batch
from helpers import tiny_base


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
    slow = run_search(plane2.structure, CyclicGroup(2))
    fast = run_search(plane2.structure, CyclicGroup(2), near_miss=False)
    assert fast.certificates == slow.certificates
    assert fast.gq_count == slow.gq_count
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


@pytest.mark.parametrize("change", [
    {"next_index": -1}, {"next_index": 9}, {"representatives": [1]}, {"gq_count": None},
    {"representatives": [{"certificate": 7}]}, {"representatives": 0},
    {"near_miss": {"x": 1}}, {"near_miss": {"1": 2.5}},
    {"representatives": [{"certificate": "abc"}]}, {"gq_count": 5},
    {"representatives": [{"certificate": "abc", "structure": {}}]}])
def test_malformed_checkpoint_rejected(tmp_path, plane2, change):
    ck = tmp_path / "scan.ck"
    state = {"digest": _config_digest(plane2.structure, CyclicGroup(2), False, True),
             "next_index": 4, "scanned": 4, "gq_count": 0, "certificates": [],
             "representatives": [], "near_miss": {"1": 4}}
    ck.write_text(json.dumps(state))
    assert run_search(plane2.structure, CyclicGroup(2), checkpoint_path=str(ck)).scanned == 8
    ck.write_text(json.dumps({**state, **change}))
    with pytest.raises(ValueError, match="malformed"):
        run_search(plane2.structure, CyclicGroup(2), checkpoint_path=str(ck))


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


def test_verify_known_entries():
    for q, expected in ((2, (3, 1)), (4, (5, 3)), (5, (6, 4))):
        from gainquad import affine_plane, field_from_order
        entry = verify_known(affine_plane(field_from_order(q)))
        assert entry["passed"]
        assert (entry["s"], entry["t"]) == expected


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
        rows = _unrank_batch(start, count, radix, width).tolist()
        assert rows == [_unrank(start + r, radix, width) for r in range(count)]


def test_resume_near_the_end_of_a_space_beyond_int64(tmp_path):
    # AG(2,4) over GF(4): 45 free edges, 4^45 ~ 1.2e27 assignments
    base = affine_plane(GF(2, 2)).structure
    group = AdditiveGroup(GF(2, 2))
    free = len(base.incidence) - (base.n_elements - 1)
    total = group.order ** free
    ck = tmp_path / "scan.ck"
    ck.write_text(json.dumps({
        "digest": _config_digest(base, group, False, True),
        "next_index": total - 300, "scanned": 0, "gq_count": 0,
        "certificates": [], "representatives": [], "near_miss": {}}))
    report = run_search(base, group, checkpoint_path=str(ck))
    # the scan resumes at next_index; scanned is that index, not a tally
    assert report.total_space == total and report.scanned == total
    assert not report.partial
    misses, survivors = _scalar_scan(base, group, range(total - 300, total))
    assert report.near_miss == misses
    assert report.gq_count == survivors
    assert json.loads(ck.read_text())["next_index"] == total


@pytest.mark.parametrize("q, unreduced, budget, cut", [
    (2, True, None, 1500),
    # near-miss buckets first seen after the cut come in another order
    (3, False, 3000, 100),
])
def test_resumed_checkpoint_is_byte_identical(tmp_path, monkeypatch, q, unreduced, budget,
                                              cut):
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1000)
    base, group = affine_plane(GF(q)).structure, CyclicGroup(q)
    oneshot = tmp_path / "oneshot.ck"
    run_search(base, group, unreduced=unreduced, budget=budget,
               checkpoint_path=str(oneshot))
    resumed = tmp_path / "resumed.ck"
    first = run_search(base, group, unreduced=unreduced, budget=cut,
                       checkpoint_path=str(resumed))
    assert first.partial
    run_search(base, group, unreduced=unreduced, budget=budget,
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

    monkeypatch.setattr(search_module, "canonical_form", counting)
    report = run_search(base, group, unreduced=True)
    assert report.gq_count == 512
    assert set(report.certificates) == direct
    assert len(calls) == 1
