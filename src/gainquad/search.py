"""Enumeration of gain functions on a small linear space, filtered by the
quadrangle criterion.

The default scan fixes a spanning-tree gauge: tree edges carry the
identity, so each switching class is visited exactly once (switching a
gain function never changes the expansion up to isomorphism).  The
unreduced mode scans every assignment and exists to cross-check that
reduction; it is feasible only for the smallest spaces.  There each
surviving assignment is gauge-fixed, and only the first survivor of
each switching class is expanded and canonicalised.

Scans are deterministic: free edges are ordered, group elements are
enumerated in their canonical order, and assignment number k maps to the
mixed-radix digits of k.  Assignments are evaluated in batches, one row
of group codes per assignment, by DetourKernel; only survivors of the
criterion are turned back into gain graphs.  The scan's state is its
SearchReport; a checkpoint stores the report's next index, survivor
count, representatives and near-miss tally, so an interrupted scan
resumes bit-identically.
"""

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .construction import DetourKernel, expand, gq_criterion, gq_parameters
from .gains import GainGraph, gains_to_json, spanning_tree_edges, spanning_tree_gauge
from .geometry import is_linear_space, structure_to_json
from .iso import CERTIFICATE_VERSION, canonical_form
from .storage import atomic_write, is_int

# A batch holds at most this many detour values, one byte each for the
# groups a scan can afford, so its temporaries stay near 128 kB.
BATCH_VALUES = 1 << 17
# A scan with a checkpoint file saves it every this many assignments.
CHECKPOINT_EVERY = 2048


@dataclass
class SearchReport:
    """The scan's whole state: run_search restores it from a checkpoint,
    updates it batch by batch, saves it at each checkpoint and returns
    it.  scanned is also the index of the next assignment to evaluate."""

    base: dict
    group: dict
    gauge_fixed: bool
    free_edges: list
    total_space: int
    scanned: int = 0
    gq_count: int = 0
    representatives: list = field(default_factory=list)
    near_miss: Counter = field(default_factory=Counter)
    partial: bool = False
    config: dict = field(default_factory=dict)

    @property
    def certificates(self):
        return sorted(r["certificate"] for r in self.representatives)

    def to_json(self):
        return {
            "base": self.base,
            "group": self.group,
            "gauge_fixed": self.gauge_fixed,
            "free_edges": [list(e) for e in self.free_edges],
            "total_space": self.total_space,
            "scanned": self.scanned,
            "gq_count": self.gq_count,
            "class_count": len(self.representatives),
            "certificates": self.certificates,
            "representatives": self.representatives,
            "near_miss": {str(k): v for k, v in sorted(self.near_miss.items())},
            "partial": self.partial,
            "config": self.config,
        }


def _unrank(index, radix, width):
    digits = []
    for _ in range(width):
        digits.append(index % radix)
        index //= radix
    return digits[::-1]


def _unrank_batch(start, count, radix, width):
    """Digits of assignments start .. start+count-1, one row each.

    Only start is unranked, in Python integers; the row offsets are then
    added with carries, so spaces beyond 2^63 assignments stay exact.
    """
    digits = np.tile(np.array(_unrank(start, radix, width), dtype=np.int64),
                     (count, 1))
    carry = np.arange(count, dtype=np.int64)
    for j in range(width - 1, -1, -1):
        if not carry.any():
            break
        column = digits[:, j] + carry
        digits[:, j] = column % radix
        carry = column // radix
    return digits


def _config_digest(base, group, unreduced, near_miss):
    blob = json.dumps({
        "base": structure_to_json(base),
        "group": group.spec(),
        "unreduced": unreduced,
        "near_miss": near_miss,
        "certificate_version": CERTIFICATE_VERSION,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_checkpoint(path, digest, total):
    """The saved state of this search, or None when path does not exist.

    Raises ValueError unless the file is a well-formed checkpoint written
    by this same search.  Keys other than the ones read here (older
    checkpoints also hold "scanned" and "certificates") are ignored.
    """
    try:
        with open(path) as fh:
            state = json.load(fh)
    except FileNotFoundError:
        return None
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    if state.get("digest") != digest:
        raise ValueError("checkpoint does not match this search")
    counts = [state.get(k) for k in ("next_index", "gq_count")]
    reps = state.get("representatives")
    misses = state.get("near_miss")
    if (not all(is_int(c) and c >= 0 for c in counts)
            or not state["gq_count"] <= state["next_index"] <= total
            or not isinstance(reps, list)
            or len(reps) > state["gq_count"]
            or not all(isinstance(r, dict) and isinstance(r.get("certificate"), str)
                       and isinstance(r.get("structure"), dict) for r in reps)
            or not isinstance(misses, dict)
            or not all(k.isdigit() and is_int(v) for k, v in misses.items())):
        raise ValueError(f"checkpoint {path} is malformed")
    return state


def run_search(base, group, budget=None, unreduced=False, near_miss=True,
               checkpoint_path=None):
    """Scan gain assignments on a connected finite linear space.

    Every pair of every assignment is evaluated.  near_miss=True also
    tallies the failing assignments by how many of their pairs are
    bijective; near_miss=False leaves that tally empty.  budget caps the
    number of assignments examined, counted from the start of the scan
    (a resumed scan included); a capped report is flagged partial.
    """
    ls = is_linear_space(base)
    if not ls:
        raise ValueError(f"search base is not a linear space: {ls.witness}")
    if not group.finite:
        raise ValueError("search needs a finite group")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, not {budget}")

    # Kernel columns are the edges in sorted order, and code c stands for
    # elems[c]; the gauge-fixed scan keeps tree edges at the identity.
    all_edges = sorted((b, p) for p, b in base.incidence)
    tree = set(spanning_tree_edges(base))
    free_columns = [i for i, e in enumerate(all_edges) if unreduced or e not in tree]
    free = [all_edges[i] for i in free_columns]
    elems = group.elements()
    radix = len(elems)
    total = radix ** len(free)
    digest = _config_digest(base, group, unreduced, near_miss)
    kernel = DetourKernel(base, group)
    identity = group.code(group.identity())
    n_pairs = len(kernel.pairs)
    rows = max(1, BATCH_VALUES // max(1, n_pairs * radix))

    report = SearchReport(
        base={"points": base.n_points, "lines": base.n_lines,
              "incidences": len(base.incidence)},
        group=group.spec(), gauge_fixed=not unreduced, free_edges=free,
        total_space=total)
    if checkpoint_path is not None:
        state = _read_checkpoint(checkpoint_path, digest, total)
        if state is not None:
            report.scanned = state["next_index"]
            report.gq_count = state["gq_count"]
            report.representatives = state["representatives"]
            report.near_miss.update({int(k): v for k, v in state["near_miss"].items()})
    seen = {r["certificate"] for r in report.representatives}

    def save_checkpoint():
        if checkpoint_path is not None:
            atomic_write(checkpoint_path, json.dumps({
                "digest": digest, "next_index": report.scanned,
                "gq_count": report.gq_count,
                "representatives": report.representatives,
                "near_miss": {str(k): v for k, v in report.near_miss.items()},
            }, sort_keys=True))

    # Gauge-fixed tables of the survivors already canonicalised (unreduced
    # mode): equal tables mean switching-equivalent gains, hence
    # isomorphic expansions and the same certificate.
    gauged = set()

    def survivor(index, row):
        g = GainGraph(base, group, {e: elems[c] for e, c in zip(all_edges, row)})
        if unreduced:
            table = spanning_tree_gauge(g)[0].gains
            key = tuple(table[e] for e in all_edges)
            if key in gauged:
                return
            gauged.add(key)
        c = expand(g)
        cf = canonical_form(c)
        if cf.certificate not in seen:
            seen.add(cf.certificate)
            s_par, t_par = gq_parameters(c)
            report.representatives.append({
                "certificate": cf.certificate,
                "assignment_index": index,
                "gains": gains_to_json(g),
                "order": [s_par, t_par],
                "structure": structure_to_json(c, tags=c.tags_json()),
            })

    while report.scanned < total:
        index = report.scanned
        if budget is not None and index >= budget:
            report.partial = True
            break
        # Batches end at budget and checkpoint boundaries, so both fall
        # exactly where a one-at-a-time scan would put them.
        stop = min(total, index + rows)
        if budget is not None:
            stop = min(stop, budget)
        if checkpoint_path is not None:
            stop = min(stop, (index // CHECKPOINT_EVERY + 1) * CHECKPOINT_EVERY)
        digits = _unrank_batch(index, stop - index, radix, len(free))
        codes = np.full((len(digits), len(all_edges)), identity, dtype=kernel.dtype)
        codes[:, free_columns] = digits
        good = kernel.bijective(codes).sum(axis=1)
        passed = good == n_pairs
        if near_miss:
            for k, count in enumerate(np.bincount(good[~passed]).tolist()):
                if count:
                    report.near_miss[k] += count
        for r in np.flatnonzero(passed).tolist():
            report.gq_count += 1
            survivor(index + r, codes[r].tolist())
        report.scanned = stop
        if checkpoint_path is not None and stop % CHECKPOINT_EVERY == 0:
            save_checkpoint()
    save_checkpoint()
    return report


def verify_known(plane):
    """Run the full pipeline on the shipped affine-plane gains.

    Any failure here is an implementation bug, not mathematics, so the
    stages raise instead of reporting.
    """
    from .catalog import affine_gains
    from .geometry import is_generalized_ngon

    g = affine_gains(plane)
    verdict = gq_criterion(g)
    if not verdict:
        raise RuntimeError(f"criterion rejected the shipped gains: {verdict.witness}")
    c = expand(g)
    ngon = is_generalized_ngon(c, 4)
    if not ngon:
        raise RuntimeError(f"verifier rejected the expansion: {ngon.witness}")
    s_par, t_par = gq_parameters(c)
    q = plane.field.order
    return {
        "field_order": q,
        "passed": True,
        "s": s_par,
        "t": t_par,
        "expected": [q + 1, q - 1],
        "points": c.n_points,
        "lines": c.n_lines,
    }
