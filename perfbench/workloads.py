"""Workloads of the gainquad benchmark: seeded inputs, op lists, checks.

Each workload turns its seed into relabelled structure files and a list
of ops per pass.  An op is either a command line run in-process through
``gainquad.cli.main`` or, where the CLI has no command for it, one
library call.  The program only ever receives the generated files and
generator specs; the benchmark keeps its own in-memory copies of every
input and checks each op's output against them.

Relabelled inputs come from a seeded pool, and successive passes walk
through it.  Canonical labelling cost depends strongly on the
labelling (McKay & Piperno, Practical graph isomorphism II, 2014), so
spreading a run over several relabellings keeps one lucky or unlucky
permutation from setting the whole run's time.
"""

import json
import os
import random
import types
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Op:
    """One closed-loop request: a CLI argv or a library call, plus its check."""

    label: str
    check: Callable  # (Outcome) -> problem string, or None when correct
    argv: Optional[list] = None
    call: Optional[Callable] = None
    work: int = 0  # assignments the op must scan, for the rate lines


@dataclass
class Outcome:
    rc: Optional[int] = None
    value: object = None
    error: Optional[str] = None


# Sizes: "full" is what the benchmark runs; "tiny" is the smoke-test size.
# Expected values live here so that a test can plant a wrong one.
SIZES = {
    "payne": {
        "full": {"check_qs": (3, 4, 5), "pair_q": 4, "pairs": 4,
                 "natural_q": 5, "naturals": 2, "pool": 8},
        "tiny": {"check_qs": (2, 3), "pair_q": 3, "pairs": 2,
                 "natural_q": 3, "naturals": 1, "pool": 2},
    },
    # A pass scans budget x searches assignments, one search per base.
    "scan-gauge": {
        "full": {"q": 3, "group": "z:3", "budget": 2500, "searches": 4, "pool": 16},
        "tiny": {"q": 3, "group": "z:3", "budget": 100, "searches": 2, "pool": 2},
    },
    "scan-gauge-fast": {
        "full": {"q": 3, "group": "z:3", "budget": 25000, "searches": 4, "pool": 16},
        "tiny": {"q": 3, "group": "z:3", "budget": 1000, "searches": 2, "pool": 2},
    },
    "scan-unreduced": {
        # AG(2,2) is the smallest plane, so the smoke size is the full one.
        "full": {"q": 2, "group": "z:2", "expect": (4096, 512, 1), "pool": 8},
        "tiny": {"q": 2, "group": "z:2", "expect": (4096, 512, 1), "pool": 1},
    },
    "large-q": {
        "full": {"build_q": 11, "build_order": (12, 10), "w_q": 7,
                 "w_order": (7, 7), "criterion_q": 13},
        "tiny": {"build_q": 3, "build_order": (4, 2), "w_q": 3,
                 "w_order": (3, 3), "criterion_q": 5},
    },
}


# -- seeded inputs ------------------------------------------------------------


def seeded_rng(seed, tag):
    """A generator that depends only on the workload seed and a tag."""
    return random.Random(f"gainquad-bench/{seed}/{tag}")


def relabel(geometry, s, rng):
    """A copy of s with points and lines permuted; labels travel along."""
    pts = list(range(s.n_points))
    lns = list(range(s.n_lines))
    rng.shuffle(pts)
    rng.shuffle(lns)
    new_pt = {old: new for new, old in enumerate(pts)}
    new_ln = {old: new for new, old in enumerate(lns)}
    return geometry.IncidenceStructure(
        [s.point_labels[i] for i in pts],
        [s.line_labels[j] for j in lns],
        [(new_pt[p], new_ln[b]) for p, b in s.incidence])


def write_structure(path, s):
    """Structure JSON in the documented file format, byte-stable."""
    doc = {"points": list(s.point_labels), "lines": list(s.line_labels),
           "incidence": sorted([p, b] for p, b in s.incidence)}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return path


def _dirs(work):
    inp, out = os.path.join(work, "in"), os.path.join(work, "out")
    os.makedirs(inp, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    return inp, out


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- checks -------------------------------------------------------------------


def _expect_rc(outcome, rc):
    if outcome.rc != rc:
        return f"exit code {outcome.rc}, expected {rc}"
    return None


def _check_tools(gq):
    """The library functions checks use, bound before any tracer wraps
    them, so that checking never shows up in the traced layers."""
    g = gq.geometry
    return types.SimpleNamespace(
        Isomorphism=g.Isomorphism, verify_isomorphism=g.verify_isomorphism,
        structure_from_json=g.structure_from_json,
        is_generalized_ngon=g.is_generalized_ngon)


def _witness_check(tools, path, first, second):
    """Exit code, then the witness revalidated against our own copies."""

    def check(outcome):
        problem = _expect_rc(outcome, 0)
        if problem:
            return problem
        doc = _read_json(path)
        iso = tools.Isomorphism(tuple(doc["point_map"]), tuple(doc["line_map"]))
        if not tools.verify_isomorphism(first, second, iso):
            return f"witness {os.path.basename(path)} is not an isomorphism"
        return None

    return check


def _representatives_are_quadrangles(tools, doc):
    for i, rep in enumerate(doc["representatives"]):
        s, _ = tools.structure_from_json(rep["structure"])
        if not tools.is_generalized_ngon(s, 4):
            return f"representative {i} is not a generalized quadrangle"
    return None


def _budget_search_check(tools, path, budget, near_miss):
    def check(outcome):
        problem = _expect_rc(outcome, 3)
        if problem:
            return problem
        doc = _read_json(path)
        if doc["scanned"] != budget or not doc["partial"]:
            return f"scanned {doc['scanned']} (partial={doc['partial']}), expected {budget}"
        if near_miss:
            tally = sum(doc["near_miss"].values()) + doc["gq_count"]
            if tally != doc["scanned"]:
                return f"near-miss histogram plus gq_count is {tally}, not {doc['scanned']}"
        return _representatives_are_quadrangles(tools, doc)

    return check


def _verify_order_check(path, order):
    def check(outcome):
        problem = _expect_rc(outcome, 0)
        if problem:
            return problem
        doc = _read_json(path)
        got = (doc.get("s"), doc.get("t"))
        if not doc["ok"] or got != tuple(order):
            return f"verify reported ok={doc['ok']} order {got}, expected {tuple(order)}"
        return None

    return check


# -- workloads ----------------------------------------------------------------


def _payne_pair(gq, q):
    """Our own copies of both payne-check sides at order q."""
    cat = gq.catalog
    left = gq.construction.expand(
        cat.affine_gains(cat.affine_plane(gq.fields.field_from_order(q))))
    right = cat.dual(cat.payne_derivation(cat.symplectic_quadrangle(q)))
    return left, right


def prepare_payne(gq, work, seed, size):
    p = SIZES["payne"][size]
    tools = _check_tools(gq)
    inp, out = _dirs(work)
    pairs = {q: _payne_pair(gq, q)
             for q in set(p["check_qs"]) | {p["pair_q"], p["natural_q"]}}
    rng = seeded_rng(seed, "payne")
    m_pair, d_pair = pairs[p["pair_q"]]
    m_nat, d_nat = pairs[p["natural_q"]]
    natural = write_structure(os.path.join(inp, f"m{p['natural_q']}.json"), m_nat)
    pool = []
    for k in range(p["pool"]):
        sets = []
        for i in range(p["pairs"]):
            a, b = relabel(gq.geometry, m_pair, rng), relabel(gq.geometry, d_pair, rng)
            fa = write_structure(os.path.join(inp, f"p{k}-{i}-expansion.json"), a)
            fb = write_structure(os.path.join(inp, f"p{k}-{i}-dual.json"), b)
            sets.append((fa, a, fb, b))
        for i in range(p["naturals"]):
            b = relabel(gq.geometry, d_nat, rng)
            fb = write_structure(os.path.join(inp, f"n{k}-{i}-dual.json"), b)
            sets.append((natural, m_nat, fb, b))
        pool.append(sets)

    def ops(index):
        result = []
        for q in p["check_qs"]:
            w = os.path.join(out, f"payne{q}.json")
            result.append(Op(f"payne-check {q}",
                             _witness_check(tools, w, *pairs[q]),
                             argv=["payne-check", str(q), "--witness", w]))
        for i, (fa, a, fb, b) in enumerate(pool[index % len(pool)]):
            w = os.path.join(out, f"iso{i}.json")
            q = p["pair_q"] if fa != natural else p["natural_q"]
            kind = "relabelled" if fa != natural else "natural"
            result.append(Op(f"isocheck q={q} {kind}",
                             _witness_check(tools, w, a, b),
                             argv=["isocheck", fa, fb, "--witness", w]))
        return result

    return ops


def _scan_bases(gq, work, seed, q, pool):
    inp, out = _dirs(work)
    plane = gq.catalog.affine_plane(gq.fields.field_from_order(q)).structure
    rng = seeded_rng(seed, f"ag2:{q}")
    return [write_structure(os.path.join(inp, f"ag2-{q}-{k}.json"),
                            relabel(gq.geometry, plane, rng))
            for k in range(pool)], out


def _prepare_gauge(name, fast):
    def prepare(gq, work, seed, size):
        p = SIZES[name][size]
        tools = _check_tools(gq)
        bases, out = _scan_bases(gq, work, seed, p["q"], p["pool"])

        def ops(index):
            result = []
            for i in range(p["searches"]):
                base = bases[(index * p["searches"] + i) % len(bases)]
                report = os.path.join(out, f"scan{i}.json")
                argv = ["search", "--base", base, "--group", p["group"],
                        "--budget", str(p["budget"]), "--report", report]
                argv += ["--fast"] if fast else []
                result.append(Op("search --fast" if fast else "search near-miss",
                                 _budget_search_check(tools, report, p["budget"], not fast),
                                 argv=argv, work=p["budget"]))
            return result

        return ops

    return prepare


def prepare_unreduced(gq, work, seed, size):
    p = SIZES["scan-unreduced"][size]
    tools = _check_tools(gq)
    bases, out = _scan_bases(gq, work, seed, p["q"], p["pool"])
    scanned, survivors, classes = p["expect"]

    def check_report(path):
        def check(outcome):
            problem = _expect_rc(outcome, 0)
            if problem:
                return problem
            doc = _read_json(path)
            got = (doc["scanned"], doc["gq_count"], doc["class_count"])
            if got != (scanned, survivors, classes):
                return f"scanned/survivors/classes {got}, expected {(scanned, survivors, classes)}"
            return _representatives_are_quadrangles(tools, doc)

        return check

    def ops(index):
        report = os.path.join(out, "scan.json")
        argv = ["search", "--base", bases[index % len(bases)], "--group",
                p["group"], "--unreduced", "--report", report]
        return [Op("search --unreduced", check_report(report), argv=argv,
                   work=scanned)]

    return ops


def prepare_large_q(gq, work, seed, size):
    # No seeded input: every op takes a generator spec, so the seed only
    # names the run.  The build output is compared with our own expansion.
    p = SIZES["large-q"][size]
    _, out = _dirs(work)
    q = p["build_q"]
    cat = gq.catalog
    own = gq.construction.expand(cat.affine_gains(cat.affine_plane(gq.fields.GF(q))))
    own_doc = {"points": list(own.point_labels), "lines": list(own.line_labels),
               "incidence": [list(x) for x in own.incidence]}
    built = os.path.join(out, f"m{q}.json")

    def check_build(outcome):
        problem = _expect_rc(outcome, 0)
        if problem:
            return problem
        doc = _read_json(built)
        if {k: doc[k] for k in own_doc} != own_doc:
            return f"build output {os.path.basename(built)} differs from the expansion"
        return None

    def criterion():
        c, f = gq.catalog, gq.fields
        return gq.construction.gq_criterion(
            c.affine_gains(c.affine_plane(f.GF(p["criterion_q"]))))

    def ops(index):
        v_built = os.path.join(out, f"verify-m{q}.json")
        v_w = os.path.join(out, f"verify-w{p['w_q']}.json")
        return [
            Op(f"build ag2 {q}", check_build,
               argv=["build", "ag2", str(q), "--with-gains", "-o", built]),
            Op(f"verify m{q} --as gq", _verify_order_check(v_built, p["build_order"]),
               argv=["verify", built, "--as", "gq", "--report", v_built]),
            Op(f"verify w:{p['w_q']} --as gq", _verify_order_check(v_w, p["w_order"]),
               argv=["verify", f"w:{p['w_q']}", "--as", "gq", "--report", v_w]),
            Op(f"gq_criterion q={p['criterion_q']}",
               lambda o: None if o.value is not None and bool(o.value)
               else f"criterion returned {o.value!r}",
               call=criterion),
        ]

    return ops


@dataclass(frozen=True)
class Workload:
    why: str
    prepare: Callable  # (modules, work dir, seed, size) -> ops(pass index)


WORKLOADS = {
    "payne": Workload(
        "canonical labelling of a few large, very symmetric structures, "
        "plus W(q) construction over GF(q)",
        prepare_payne),
    "scan-gauge": Workload(
        "criterion full sweep on many small gain graphs; detour tables "
        "dominate and almost nothing reaches iso",
        _prepare_gauge("scan-gauge", fast=False)),
    "scan-gauge-fast": Workload(
        "short-circuit criterion on many small gain graphs; the per-call "
        "linear-space check and gain-graph setup dominate",
        _prepare_gauge("scan-gauge-fast", fast=True)),
    "scan-unreduced": Workload(
        "512 canonical forms of tiny structures, the opposite use of iso "
        "to payne; survivor deduplication shows here",
        prepare_unreduced),
    "large-q": Workload(
        "dense 4-gon census, pure-Python GF(7) multiplication in W(7), "
        "and one criterion call on one large gain graph",
        prepare_large_q),
}
