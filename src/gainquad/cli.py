"""Command-line surface: build, verify, isocheck, payne-check, search,
export, selftest.

Exit codes: 0 verified/isomorphic/success, 1 disproved with witness,
2 usage or IO error, 3 budget exceeded.  Every report embeds the run
configuration (seed included) so runs are reproducible; output files are
written atomically.

Wherever a structure file is expected, a generator spec is also
accepted: "ag2:q" for the affine plane over GF(q), q a prime power, or
"ag2:p:n" over GF(p^n), "w:q" for the symplectic quadrangle,
"payne-dual:q" for the dual of its derivation.
"""

import argparse
import functools
import json
import math
import os
import random
import sys
import time

import numpy as np

from . import catalog
from .construction import expand, gq_criterion, gq_parameters, switching_isomorphism
from .fields import GF, field_from_order
from .gains import GainGraph, gains_from_json, gains_to_json, identity_gains
from .geometry import (IncidenceStructure, census_ngon, is_generalized_ngon,
                       is_linear_space, is_ovoid, quadrangle_order,
                       steiner_parameters, structure_from_json, structure_to_json)
from .groups import AdditiveGroup, CyclicGroup
from .iso import are_isomorphic, canonical_form, distinguishing_invariant
from .search import run_search
from .storage import atomic_write, json_text, read_json

GENERATORS = ("ag2", "w", "payne-dual")


def _write_json(path, doc):
    atomic_write(path, json_text(doc))


def _field_from_args(name, args):
    if len(args) == 1:
        return field_from_order(args[0])
    if len(args) == 2:
        return GF(args[0], args[1])
    raise ValueError(f"{name} takes one or two integer arguments: q or p n")


def realize_base(spec):
    """Resolve a structure source: file path or generator spec.

    Generator specs are "ag2:q" (q a prime power) or "ag2:p:n" for the
    affine plane, "w:q" and "payne-dual:q".  Returns a dict with
    structure, optional tags, optional plane, name.
    """
    # a file name may itself contain ":"
    if os.path.isfile(spec):
        s, tags = structure_from_json(read_json(spec))
        return {"structure": s, "tags": tags, "plane": None, "name": spec}
    name, *args = spec.split(":")
    if name not in GENERATORS:
        raise ValueError(f"{name!r} is neither a file nor one of {GENERATORS}")
    args = [int(t) for t in args]
    if name == "ag2":
        plane = catalog.affine_plane(_field_from_args(name, args))
        return {"structure": plane.structure, "tags": None, "plane": plane,
                "name": spec}
    if len(args) != 1:
        raise ValueError(f"{name} takes one integer argument: q")
    w = catalog.symplectic_quadrangle(args[0])
    if name == "w":
        s = w.structure
    else:
        s = catalog.dual(catalog.payne_derivation(w))
    return {"structure": s, "tags": None, "plane": None, "name": spec}


def parse_group(spec):
    """Group spec: "z:n", "gf:q" or "gf:p:n" (the field named as ag2
    names it)."""
    kind, *args = spec.lower().split(":")
    if kind == "z" and len(args) == 1:
        return CyclicGroup(int(args[0]))
    if kind == "gf":
        return AdditiveGroup(_field_from_args(kind, [int(t) for t in args]))
    raise ValueError(f"unknown group spec {spec!r}: expected z:n, gf:q or gf:p:n")


def _config(args, command):
    return {
        "command": command,
        "seed": args.seed,
        "verbose": args.verbose,
        "argv": [a for a in args.raw_argv],
    }


def _deadline(timeout):
    """The time.monotonic() deadline of a --timeout budget, None without
    one; ValueError unless it is a positive finite number of seconds."""
    if timeout is None:
        return None
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"--timeout takes a positive number of seconds, not {timeout}")
    return time.monotonic() + timeout


def _note(args, message):
    if args.verbose:
        print(message, file=sys.stderr)


def _read_base(args, spec):
    """realize_base(spec), with one -v line of its size and wall seconds."""
    start = time.perf_counter()
    base = realize_base(spec)
    s = base["structure"]
    _note(args, f"base {base['name']}: {s.n_points} points, {s.n_lines} lines, "
                f"{len(s.pairs)} incidences in {time.perf_counter() - start:.3f} s")
    return base


# -- subcommands --------------------------------------------------------------


def cmd_build(args):
    """With -v, one stderr line of wall seconds per stage: base, gains,
    expansion, and the -o document written."""
    tokens = args.base
    gains_path = args.gains
    # "build ag2 3" is the spec "ag2:3"; two tokens that do not start
    # with a generator name are "build base.json gains.json"
    if gains_path is None and len(tokens) == 2 and tokens[0] not in GENERATORS:
        tokens, gains_path = tokens[:1], tokens[1]
    if ((gains_path is not None) + args.with_gains + args.identity_gains != 1
            or (args.group is not None and not args.identity_gains)):
        raise ValueError("give one gain source: a gains file, --with-gains, "
                         "or --identity-gains with an optional --group")
    base = _read_base(args, ":".join(tokens))
    s = base["structure"]
    start = time.perf_counter()
    if gains_path is not None:
        g = gains_from_json(s, read_json(gains_path))
    elif args.with_gains:
        if base["plane"] is None:
            raise ValueError("--with-gains needs an ag2 base")
        g = catalog.affine_gains(base["plane"])
    else:
        group = parse_group(args.group) if args.group else None
        if group is None and base["plane"] is not None:
            group = AdditiveGroup(base["plane"].field)
        if group is None:
            raise ValueError("--identity-gains needs --group for this base")
        g = identity_gains(s, group)
    _note(args, f"gains: {len(g.codes)} edges in {time.perf_counter() - start:.3f} s")
    if args.emit_base:
        _write_json(args.emit_base, structure_to_json(s))
    if args.emit_gains:
        _write_json(args.emit_gains, gains_to_json(g))
    start = time.perf_counter()
    c = expand(g)
    _note(args, f"expansion: {c.n_points} points, {c.n_lines} lines "
                f"in {time.perf_counter() - start:.3f} s")
    if args.output:
        start = time.perf_counter()
        doc = structure_to_json(c, tags=c.tags_json())
        doc["config"] = _config(args, "build")
        _write_json(args.output, doc)
        _note(args, f"document written to {args.output} "
                    f"in {time.perf_counter() - start:.3f} s")
    print(f"built expansion: {c.n_points} points, {c.n_lines} lines, "
          f"{len(c.pairs)} incidences")
    return 0


def cmd_verify(args):
    """With -v, one stderr line for reading the structure and one for the
    check, each with its wall seconds."""
    base = _read_base(args, args.structure)
    s, tags = base["structure"], base["tags"]
    report = {"config": _config(args, "verify"), "input": base["name"],
              "check": args.check}
    if args.check == "ovoid" and tags is None:
        raise ValueError("ovoid check needs an expansion file with tags")
    start = time.perf_counter()
    if args.check in ("linear-space", "steiner"):
        verdict = is_linear_space(s)
    else:
        verdict = is_generalized_ngon(s, 4)
    _note(args, f"{args.check}: {s.n_elements} elements in "
                f"{time.perf_counter() - start:.3f} s")
    ok = verdict.ok
    if args.check == "linear-space":
        report["witness"] = verdict.witness
    elif args.check == "steiner":
        sp = steiner_parameters(s) if verdict else None
        ok = sp is not None
        if ok:
            report["v"], report["k"] = sp
        else:
            report["witness"] = (verdict.witness if not verdict
                                 else "unequal-line-sizes")
    elif args.check == "gq":
        if ok:
            try:
                report["s"], report["t"] = quadrangle_order(s)
            except ValueError:  # unequal degrees, as in a 2 x 3 grid: no order
                report["s"] = report["t"] = None
        else:
            report["witness"] = verdict.witness
    elif not verdict:
        report["witness"] = ("not-a-quadrangle",) + tuple(verdict.witness)
    else:
        xs = {i for i, t in enumerate(tags["points"]) if t[0] == "x"}
        ok = is_ovoid(s, xs)
        if not ok:
            report["witness"] = "x-points-not-an-ovoid"
    report["ok"] = ok
    if args.report:
        _write_json(args.report, report)
    print(f"{args.check}: {'pass' if ok else 'fail'}"
          + ("" if ok else f" witness={report.get('witness')}"))
    return 0 if ok else 1


def cmd_isocheck(args):
    """With -v, one stderr line of wall seconds per structure read, and one
    of counters and wall seconds per search it ran, also when the
    --timeout budget ends it."""
    s1 = _read_base(args, args.first)["structure"]
    s2 = _read_base(args, args.second)["structure"]
    stats = []
    try:
        iso = are_isomorphic(s1, s2, deadline=_deadline(args.timeout), stats=stats)
    finally:
        for which, st in zip(("first", "second"), stats):
            _note(args, f"search on the {which} structure: {st.nodes} nodes, "
                        f"{st.leaves} leaves, {st.automorphisms} automorphisms, "
                        f"{st.refinement_rounds} refinement rounds, "
                        f"{st.orbit_prunes} orbit prunes, {st.backjumps} backjumps, "
                        f"depth {st.max_depth}, {st.seconds:.3f} s, "
                        f"of which refinement {st.refine_seconds:.3f} s, "
                        f"{st.stabiliser_elements} stabiliser elements "
                        f"in {st.stabiliser_seconds:.3f} s")
    if iso is None:
        inv = distinguishing_invariant(s1, s2) or "search-exhausted"
        if args.witness:
            _write_json(args.witness, {"isomorphic": False, "distinguishing": inv,
                                       "config": _config(args, "isocheck")})
        print(f"non-isomorphic ({inv})")
        return 1
    doc = {"point_map": list(iso.point_map), "line_map": list(iso.line_map),
           "config": _config(args, "isocheck")}
    if args.witness:
        _write_json(args.witness, doc)
    print("isomorphic")
    return 0


def cmd_payne_check(args):
    """The witness is catalog.payne_isomorphism's verified map.  With -v,
    one stderr line of wall seconds for each side built and for the map."""
    q = args.q
    if q > catalog.MAX_SYMPLECTIC_ORDER:  # W(q)'s ceiling, before anything is built
        raise ValueError(f"order {q} exceeds the {catalog.MAX_SYMPLECTIC_ORDER} ceiling")
    start = time.perf_counter()
    plane = catalog.affine_plane(field_from_order(q))
    left = expand(catalog.affine_gains(plane))
    _note(args, f"built the affine expansion: {left.n_points}/{left.n_lines}, "
                f"{time.perf_counter() - start:.3f} s")
    start = time.perf_counter()
    w = catalog.symplectic_quadrangle(q)
    right = catalog.dual(catalog.payne_derivation(w))
    _note(args, f"built the dual derivation: {right.n_points}/{right.n_lines}, "
                f"{time.perf_counter() - start:.3f} s")
    start = time.perf_counter()
    iso = catalog.payne_isomorphism(plane, w, left, right)
    _note(args, f"mapped and verified: {time.perf_counter() - start:.3f} s")
    doc = {"q": q, "config": _config(args, "payne-check"),
           "left": {"points": left.n_points, "lines": left.n_lines},
           "right": {"points": right.n_points, "lines": right.n_lines},
           "isomorphic": True, "point_map": list(iso.point_map), "line_map": list(iso.line_map)}
    if args.witness:
        _write_json(args.witness, doc)
    print(f"q={q}: isomorphic (witness verified)")
    return 0


def _kernel_rate(counts):
    """Assignments a second through the detour kernel, from a ScanStats."""
    return counts.rows / max(counts.kernel_seconds, 1e-9)


def cmd_search(args):
    base = realize_base(args.base)
    group = parse_group(args.group)
    stats = []

    def progress(report, counts):
        _note(args, f"progress: {report.scanned} scanned, {counts.rows} evaluated, "
                    f"{report.gq_count} survivors, {_kernel_rate(counts):.0f} assignments/s")

    report = run_search(base["structure"], group, budget=args.budget,
                        unreduced=args.unreduced, near_miss=not args.fast,
                        checkpoint_path=args.checkpoint, stats=stats, progress=progress)
    _note(args, f"scan: {report.scanned} scanned, {stats[0].rows} evaluated, "
                f"{report.gq_count} survivors, {len(report.representatives)} classes "
                f"in {stats[0].seconds:.3f} s, {_kernel_rate(stats[0]):.0f} assignments/s")
    report.config = _config(args, "search")
    doc = report.to_json()
    if args.report:
        _write_json(args.report, doc)
        stem = args.report[:-5] if args.report.endswith(".json") else args.report
        for i, rep in enumerate(report.representatives):
            _write_json(f"{stem}.class{i:03d}.json", rep["structure"])
    print(f"scanned {report.scanned}/{report.total_space} assignments; "
          f"{report.gq_count} quadrangles in {len(report.certificates)} classes"
          + (" [partial]" if report.partial else ""))
    return 3 if report.partial else 0


def cmd_export(args):
    base = realize_base(args.structure)
    s, tags = base["structure"], base["tags"]
    if args.format == "json":
        text = json_text(structure_to_json(s, tags=tags))
    else:
        text = _to_dot(s, tags)
    if args.output:
        atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _dot_quote(s):
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(s, tags=None):
    lines = ["graph incidence {"]
    for i in range(s.n_points):
        attrs = [f"label={_dot_quote(s.point_labels[i])}", "shape=circle"]
        if tags is not None:
            attrs.append(f"tag={_dot_quote(':'.join(str(x) for x in tags['points'][i]))}")
        lines.append(f"  p{i} [{', '.join(attrs)}];")
    for j in range(s.n_lines):
        attrs = [f"label={_dot_quote(s.line_labels[j])}", "shape=box"]
        if tags is not None:
            attrs.append(f"tag={_dot_quote(':'.join(str(x) for x in tags['lines'][j]))}")
        lines.append(f"  b{j} [{', '.join(attrs)}];")
    for p, b in s.pairs[s.line_order].tolist():
        lines.append(f"  b{b} -- p{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_selftest(args):
    rng = random.Random(args.seed)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    for q in (2, 3):
        g = catalog.affine_gains(catalog.affine_plane(GF(q)))
        c = expand(g)
        verdicts = (("criterion", gq_criterion(g)), ("verifier", is_generalized_ngon(c, 4)))
        rejected = "".join(f", {stage} witness {v.witness}" for stage, v in verdicts if not v)
        check(f"shipped gains over GF({q}) give order ({q + 1},{q - 1}){rejected}",
              not rejected and gq_parameters(c) == (q + 1, q - 1))

    plane = catalog.affine_plane(GF(2))
    g0 = catalog.affine_gains(plane)
    randoms = []
    for _ in range(20):
        g = GainGraph(plane.structure, g0.group, np.array([rng.randrange(2) for _ in g0.codes]))
        randoms.append((g, expand(g)))
    check("criterion agrees with the generic verifier on random gains",
          all(bool(gq_criterion(g)) == bool(is_generalized_ngon(c, 4))
              for g, c in randoms))
    check("quadrangle check agrees with the census oracle",
          all(is_generalized_ngon(c, 4).ok == census_ngon(c, 4).ok for _, c in randoms))

    ok = True
    for _ in range(10):
        f = {e: g0.group.decode([rng.randrange(2)])
             for e in range(plane.structure.n_elements)}
        try:
            switching_isomorphism(g0, f)
        except RuntimeError:
            ok = False
            break
    check("switching induces verified isomorphisms", ok)

    c = expand(g0)
    perm_pts = list(range(c.n_points))
    perm_lns = list(range(c.n_lines))
    rng.shuffle(perm_pts)
    rng.shuffle(perm_lns)
    # New index i holds old element perm[i], so old j goes to argsort(perm)[j].
    shuffled = IncidenceStructure(
        [c.point_labels[j] for j in perm_pts],
        [c.line_labels[j] for j in perm_lns],
        np.column_stack([np.argsort(perm_pts)[c.pairs[:, 0]],
                         np.argsort(perm_lns)[c.pairs[:, 1]]]))
    check("canonical form survives relabeling",
          canonical_form(c) == canonical_form(shuffled))

    report = run_search(plane.structure, CyclicGroup(2))
    check("gauge-fixed scan of the smallest plane finds quadrangles",
          report.scanned == 8 and report.gq_count >= 1)

    print(f"selftest: {'all passed' if failures == 0 else f'{failures} failed'}")
    return 0 if failures == 0 else 1


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argparse tree, built once per process on the first main call."""
    ap = argparse.ArgumentParser(
        prog="gainquad",
        description="Build and verify generalized quadrangles from gain "
                    "functions on incidence graphs of linear spaces.")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized property checks (recorded in reports)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="progress notes on stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="expand a gain graph into a structure file")
    p.add_argument("base", nargs="+",
                   help="structure file or generator spec; tokens are joined "
                        "with ':', so ag2 3 is ag2:3")
    p.add_argument("--gains", help="gain-function JSON file")
    p.add_argument("--with-gains", action="store_true",
                   help="use the shipped affine-plane gains (ag2 bases)")
    p.add_argument("--identity-gains", action="store_true")
    p.add_argument("--group", help="group spec for --identity-gains, e.g. z:2")
    p.add_argument("-o", "--output")
    p.add_argument("--emit-base", help="also write the base structure JSON")
    p.add_argument("--emit-gains", help="also write the gain-function JSON")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run a structural verifier")
    p.add_argument("structure")
    p.add_argument("--as", dest="check", required=True,
                   choices=["gq", "linear-space", "steiner", "ovoid"])
    p.add_argument("--report", help="write the verdict JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("isocheck", help="isomorphism test with witness")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--witness", help="write the witness JSON here")
    p.add_argument("--timeout", type=float, default=None, help="positive seconds")
    p.set_defaults(func=cmd_isocheck)

    p = sub.add_parser("payne-check",
                       help="compare the affine-plane quadrangle with the "
                            "dual derived symplectic quadrangle")
    p.add_argument("q", type=int)
    p.add_argument("--witness")
    p.set_defaults(func=cmd_payne_check)

    p = sub.add_parser("search", help="scan gain functions on a linear space")
    p.add_argument("--base", required=True,
                   help="structure file or generator spec: ag2:q, ag2:p:n, "
                        "w:q, payne-dual:q")
    p.add_argument("--group", required=True, help="z:n, gf:q or gf:p:n")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--unreduced", action="store_true",
                   help="scan every assignment instead of one per switching class")
    p.add_argument("--fast", action="store_true",
                   help="skip the near-miss histogram, and with it every block "
                        "of assignments whose leading gains already fail a "
                        "detour pair (the survivors are the same)")
    p.add_argument("--checkpoint")
    p.add_argument("--report")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export", help="write a structure as DOT or JSON")
    p.add_argument("structure")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("selftest", help="quick deterministic property sweep")
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    args.raw_argv = argv
    try:
        return args.func(args)
    except TimeoutError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
