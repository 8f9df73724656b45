"""Enumeration of gain functions on a small linear space, filtered by the
quadrangle criterion.

The default scan fixes a spanning-tree gauge: tree edges carry the
identity, so each switching class is visited exactly once (switching a
gain function never changes the expansion up to isomorphism).  The
unreduced mode scans every assignment and exists to cross-check that
reduction; it is feasible only for the smallest spaces.  There each
batch's survivors are gauge-fixed together as code columns, and only
the first survivor of each switching class becomes a gain graph and is
expanded and canonicalised.

Scans are deterministic: free edges are ordered, group elements are
enumerated in their canonical order, and assignment number k maps to the
mixed-radix digits of k.  DetourKernel evaluates edge-major batches, one
column of codes per assignment, and only survivors of the criterion are
turned back into gain graphs.  The scan's state is its SearchReport; a
checkpoint stores the report's next index, survivor count,
representatives and near-miss tally, so an interrupted scan resumes
bit-identically.

The near-miss scan counts the bijective pairs of every assignment.  The
fast scan (near_miss=False) needs only the survivors, so it skips
assignments proven to fail: a pair's detour table reads a fixed set of
edges, so its verdict is settled by the leading digits up to the deepest
free edge it reads, and every assignment sharing those digits with a
failing one fails the same pair.
"""

import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .construction import DetourKernel, expand, gq_parameters
from .gains import GainGraph, gains_to_json, spanning_tree_edges, spanning_tree_gauge_codes
from .geometry import structure_to_json
from .iso import CERTIFICATE_VERSION, canonical_form
from .storage import atomic_write, is_int, json_text, read_json

# A batch holds at most this many detour values, one byte each for the
# groups a scan can afford, so each of its temporaries stays near 128 kB;
# a batch peaks at about four of them (tracemalloc, 0.37-0.52 MB from
# AG(2,3)/Z3 to AG(2,7)/Z7).
BATCH_VALUES = 1 << 17
# A scan with a checkpoint file saves it whenever it passes a multiple of
# this many assignments.
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


class ScanStats:
    """Counters of one scan: rows, the assignments the detour kernel
    evaluated, kernel_seconds, the wall seconds spent evaluating them,
    and seconds, the whole scan's.  They are not part of the report or
    the checkpoint, so reruns stay byte-identical."""

    __slots__ = ("rows", "kernel_seconds", "seconds")

    def __init__(self):
        self.rows = 0
        self.kernel_seconds = 0.0
        self.seconds = 0.0


def _unrank(index, radix, width):
    digits = []
    for _ in range(width):
        digits.append(index % radix)
        index //= radix
    return digits[::-1]


def _unrank_batch(start, count, radix, width):
    """Digits of assignments start .. start+count-1, one column each.

    The low m digits, the fewest whose span radix^m covers count, come
    from one np.unravel_index of start's low part plus each column's
    offset, with one leading digit of 2 taking the carry out of the
    span.  Columns before the carry share start's high digits, unranked
    in Python integers so that spaces beyond 2^63 assignments stay
    exact, and the rest those of the next block of radix^m.  m + 1 stays
    within numpy 1.24's 32 array dimensions for any count below 2^31.
    """
    m, span = 0, 1
    while span < count and m < width:
        m, span = m + 1, span * radix
    high, low = divmod(start, span)
    digits = np.empty((width, count), dtype=np.int64)
    if m:
        digits[width - m:] = np.unravel_index(np.arange(low, low + count),
                                              (2,) + (radix,) * m)[1:]
    carried = span - low
    head = np.array(_unrank(high, radix, width - m), dtype=np.int64)
    digits[:width - m, :carried] = head[:, None]
    if carried < count:
        # high + 1: its last digit below radix - 1 goes up by one and the
        # digits after it roll over to 0 (high + 1 < radix^(width - m), as
        # the batch ends within the space)
        j = np.flatnonzero(head < radix - 1)[-1]
        head[j] += 1
        head[j + 1:] = 0
        digits[:width - m, carried:] = head[:, None]
    return digits


def _config_digest(base, group, unreduced, near_miss):
    import hashlib  # here, so that runs without a checkpoint never load OpenSSL
    blob = json.dumps({
        "base": dict(structure_to_json(base), incidence=base.pairs.tolist()),
        "group": group.spec(),
        "unreduced": unreduced,
        "near_miss": near_miss,
        "certificate_version": CERTIFICATE_VERSION,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_checkpoint(path, digest, total, n_pairs, near_miss):
    """The saved state of this search, or None when path does not exist.

    Raises ValueError unless the file is a well-formed checkpoint written
    by this same search: each representative names an assignment_index
    below next_index, a near-miss scan's tally counts every failing
    assignment before next_index in a bucket below n_pairs, and a fast
    scan's tally is empty.  Keys other than the ones read here (older
    checkpoints also hold "scanned" and "certificates") are ignored.
    """
    try:
        state = read_json(path)
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
                       and isinstance(r.get("structure"), dict)
                       and is_int(r.get("assignment_index"))
                       and 0 <= r["assignment_index"] < state["next_index"] for r in reps)
            or not isinstance(misses, dict)
            or not all(k.isascii() and k.isdigit() and int(k) < n_pairs
                       and is_int(v) and v >= 0 for k, v in misses.items())
            or sum(misses.values()) != (state["next_index"] - state["gq_count"]
                                        if near_miss else 0)):
        raise ValueError(f"checkpoint {path} is malformed")
    return state


def run_search(base, group, budget=None, unreduced=False, near_miss=True,
               checkpoint_path=None, stats=None, progress=None):
    """Scan gain assignments on a connected finite linear space.

    near_miss=True evaluates every pair of every assignment and tallies
    the failing assignments by how many of their pairs are bijective.
    near_miss=False leaves that tally empty and, whenever a batch ends on
    a failing assignment, skips the rest of the block of assignments that
    share the leading digits deciding its failure (see the module
    docstring); the survivors are the same.  budget caps the number of
    assignments examined, counted from the start of the scan (a resumed
    scan included); a capped report is flagged partial.  stats, when
    given, is a list that receives this scan's ScanStats.  progress, when
    given, is called with the report and the ScanStats each time the scan
    passes a multiple of CHECKPOINT_EVERY assignments, at most once per
    batch.
    A batch is edge-major, an (edges, B) array of codes with one column
    per assignment, so the kernel's gathers copy whole rows of B codes.
    """
    kernel = DetourKernel(base, group)
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, not {budget}")

    # Batch rows are the kernel's edges, numbered as in GainGraph.codes;
    # the gauge-fixed scan keeps tree edges at the identity.
    all_edges = list(map(tuple, kernel.edges.tolist()))
    tree = set(spanning_tree_edges(base))
    free_rows = [i for i, e in enumerate(all_edges) if unreduced or e not in tree]
    free = [all_edges[i] for i in free_rows]
    radix = group.order
    total = radix ** len(free)
    identity = group.code(group.identity())
    n_pairs = kernel.n_pairs
    width = max(1, BATCH_VALUES // max(1, n_pairs * radix))
    # A pair's depth is the number of leading digits that settle its
    # verdict: the position of the deepest free edge its detour table
    # reads, 0 for a pair on a line of another size (never bijective).
    position = np.zeros(len(all_edges), dtype=np.intp)
    position[free_rows] = np.arange(1, len(free) + 1)
    depth = None if near_miss else kernel.depth(position)
    counts = ScanStats()
    if stats is not None:
        stats.append(counts)
    started = time.perf_counter()

    report = SearchReport(
        base={"points": base.n_points, "lines": base.n_lines,
              "incidences": len(base.pairs)},
        group=group.spec(), gauge_fixed=not unreduced, free_edges=free,
        total_space=total)
    if checkpoint_path is not None:
        digest = _config_digest(base, group, unreduced, near_miss)
        state = _read_checkpoint(checkpoint_path, digest, total, n_pairs, near_miss)
        if state is not None:
            report.scanned = state["next_index"]
            report.gq_count = state["gq_count"]
            report.representatives = state["representatives"]
            report.near_miss.update({int(k): v for k, v in state["near_miss"].items()})
    seen = {r["certificate"] for r in report.representatives}
    # Gauge-fixed code columns of the survivors already canonicalised
    # (unreduced mode): equal columns mean switching-equivalent gains,
    # hence isomorphic expansions and the same certificate.  A resumed
    # scan restores those of its representatives: with every edge free,
    # the digits of an assignment index are its code column.
    gauged = set()
    if unreduced and report.representatives:
        restored = np.array([_unrank(r["assignment_index"], radix, len(free))
                             for r in report.representatives], dtype=kernel.dtype).T
        keys = spanning_tree_gauge_codes(base, group, restored).T
        gauged.update(key.tobytes() for key in keys)

    def save_checkpoint():
        if checkpoint_path is not None:
            atomic_write(checkpoint_path, json_text({
                "digest": digest, "next_index": report.scanned,
                "gq_count": report.gq_count,
                "representatives": report.representatives,
                "near_miss": {str(k): v for k, v in report.near_miss.items()},
            }))

    def survivor(index, column):
        g = GainGraph(base, group, column)
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
                "structure": dict(structure_to_json(c, tags=c.tags_json()),
                                  incidence=c.pairs.tolist()),
            })

    end = total if budget is None else min(total, budget)
    while report.scanned < total:
        index = report.scanned
        if index >= end:
            report.partial = True
            break
        # Batches end at budget and checkpoint boundaries, so both fall
        # exactly where a one-at-a-time scan would put them.
        stop = min(end, index + width)
        if checkpoint_path is not None:
            stop = min(stop, (index // CHECKPOINT_EVERY + 1) * CHECKPOINT_EVERY)
        codes = np.full((len(all_edges), stop - index), identity, dtype=kernel.dtype)
        codes[free_rows] = _unrank_batch(index, stop - index, radix, len(free))
        tick = time.perf_counter()
        ok = kernel.bijective(codes)
        counts.kernel_seconds += time.perf_counter() - tick
        good = ok.sum(axis=0)
        passed = good == n_pairs
        counts.rows += stop - index
        if near_miss:
            for k, count in enumerate(np.bincount(good[~passed]).tolist()):
                if count:
                    report.near_miss[k] += count
        elif not passed[-1]:
            # The last column's first m digits already fail a pair, and so
            # does every assignment up to the end of their aligned block.
            block = radix ** (len(free) - int(depth[~ok[:, -1]].min()))
            stop = min(end, ((stop - 1) // block + 1) * block)
        cols = np.flatnonzero(passed)
        report.gq_count += len(cols)
        if unreduced:
            keys = spanning_tree_gauge_codes(base, group, codes[:, cols]).T
        for j, r in enumerate(cols.tolist()):
            if unreduced:
                key = keys[j].tobytes()
                if key in gauged:
                    continue
                gauged.add(key)
            survivor(index + r, codes[:, r])
        report.scanned = stop
        # A skip may pass several checkpoint boundaries; every assignment
        # it passed failed, so one save at its end is exact.
        if stop // CHECKPOINT_EVERY > index // CHECKPOINT_EVERY:
            save_checkpoint()
            if progress is not None:
                progress(report, counts)
    save_checkpoint()
    counts.seconds = time.perf_counter() - started
    return report

