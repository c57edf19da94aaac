"""Command-line entry point.

Exit codes: 0 on success/pass, 1 on a verified failure (for example a
rainbow violation found or an exact non-existence result), 2 on parameter,
file-format, or budget errors.  ``RAMSEY_BUDGET`` overrides the default
work budget.  All files are UTF-8 with LF line endings; sequence files are
one line of whitespace-separated integers; vertex indices in reports are
1-based.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys

from .errors import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    FileFormatError,
    IncompleteSearchError,
    ParameterError,
    PreconditionError,
    RamseyKitError,
)
from . import delta, hedgehog, rainbow, report, seqpat, stepup

PASS, FAIL, USAGE = 0, 1, 2


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read: {exc}", path=path) from None


def _parse_sequence(text, path=None):
    toks = text.split()
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        bad = next(t for t in toks if not _is_int(t))
        raise FileFormatError(f"bad integer {bad!r}", path=path, line=1) from None


def _is_int(tok):
    try:
        int(tok)
        return True
    except ValueError:
        return False


def _sequence_arg(args):
    if args.seq is not None:
        return _parse_sequence(args.seq)
    if args.seq_file is not None:
        return _parse_sequence(_read(args.seq_file), path=args.seq_file)
    raise ParameterError("provide --seq or --seq-file")


def _perm_arg(text):
    return tuple(int(t) for t in text.replace(",", " ").split())


def _emit(args, doc, out=None):
    doc = {"schema": report.SCHEMA, **doc}
    if args.format == "json":
        payload = report.encode_report(doc)
    else:
        payload = report.render_text(doc)
    target = out or getattr(args, "output", None)
    if target:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _config_of(args, names):
    cfg = {"subcommand": args.cmd}
    for name in names:
        cfg[name.replace("_", "-")] = getattr(args, name)
    cfg["budget"] = args.budget
    cfg["workers"] = args.workers
    return cfg


def _load_base(args):
    if getattr(args, "colouring", None):
        return stepup.parse_tabulated(_read(args.colouring), path=args.colouring)
    if getattr(args, "random_base", None):
        k, n, q, seed = (int(x) for x in args.random_base)
        return stepup.random_colouring(k, n, q, seed)
    raise ParameterError("provide --colouring or --random-base k n q seed")


def _load_schedule_colouring(args):
    """Build a lazy colouring from a schedule file (plus optional base flags)."""
    base_spec, raw_steps = stepup.parse_schedule(
        _read(args.schedule), path=args.schedule
    )
    if getattr(args, "colouring", None) or getattr(args, "random_base", None):
        base = _load_base(args)
    elif base_spec is None:
        raise ParameterError(
            "schedule has no base line; provide --colouring or --random-base"
        )
    elif base_spec[0] == "random":
        _, k, n, q, seed = base_spec
        base = stepup.random_colouring(k, n, q, seed)
    else:
        base = stepup.parse_tabulated(_read(base_spec[1]), path=base_spec[1])
    return stepup.tower_compose(base, stepup.build_steps(raw_steps))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_pattern(args):
    s = _sequence_arg(args)
    p = seqpat.pattern_of(s)
    _emit(args, {
        "command": "pattern",
        "config": _config_of(args, []),
        "sequence": list(s),
        "pattern": list(p),
        "is_permutation": seqpat.is_permutation_pattern(p),
    })
    return PASS


def cmd_gen_sk(args):
    s = seqpat.gen_sk(args.k)
    if args.format == "text" and not args.output:
        print(" ".join(str(x) for x in s))
    else:
        _emit(args, {
            "command": "gen-sk",
            "config": _config_of(args, ["k"]),
            "sequence": list(s),
        })
    return PASS


def cmd_extract(args):
    s = _sequence_arg(args)
    L = _perm_arg(args.left)
    R = _perm_arg(args.right)
    w = seqpat.find_l_r_or_homogeneous(s, L, R)
    doc = {
        "command": "extract",
        "config": _config_of(args, ["left", "right"]),
        "witness_kind": "sequence-witness",
        "sequence": list(s),
        "left": list(L),
        "right": list(R),
        **w.to_dict(),
    }
    _emit(args, doc)
    return PASS


def cmd_separated(args):
    s = _sequence_arg(args)
    if args.perm:
        sigma = _perm_arg(args.perm)
        ix = seqpat.contains_separated_permutation(s, sigma)
        doc = {
            "command": "separated",
            "config": _config_of(args, ["perm"]),
            "witness_kind": "separated-witnesses",
            "sequence": list(s),
            "witnesses": {" ".join(map(str, sigma)): list(ix)} if ix else {},
            "found": ix is not None,
        }
        _emit(args, doc)
        return PASS if ix is not None else FAIL
    res = seqpat.separated_interlacing(s, args.k)
    doc = {
        "command": "separated",
        "config": _config_of(args, ["k"]),
        "witness_kind": "separated-witnesses",
        "sequence": list(s),
        "chain_levels": [list(l) for l in res.levels],
        "chain_values": list(res.level_values),
        "witnesses": {
            " ".join(map(str, sig)): list(ix) for sig, ix in sorted(res.witnesses.items())
        },
    }
    _emit(args, doc)
    return PASS


def cmd_delta(args):
    vs = delta.parse_vertex_file(_read(args.vertex_file), path=args.vertex_file)
    ds = delta.delta_sequence(sorted(vs, key=lambda v: v.value))
    doc = {
        "command": "delta",
        "config": _config_of(args, ["vertex_file"]),
        "width": ds.width,
        "vertices": [v.value for v in ds.vertices],
        "deltas": list(ds.deltas),
        "unique_and_max": delta.check_unique_and_max(ds),
    }
    _emit(args, doc)
    return PASS


def cmd_stepup(args):
    c = _load_schedule_colouring(args)
    doc = {
        "command": "stepup",
        "config": _config_of(args, ["schedule"]),
        "colouring": report.colouring_spec(c),
        "uniformity": c.uniformity,
        "vertices": c.num_vertices,
        "colour_budget": c.budget,
    }
    if args.edge:
        e = tuple(int(x) for x in args.edge.replace(",", " ").split())
        doc["edge"] = list(e)
        doc["colour"] = stepup.colour_str(c.colour(e))
        if args.explain:
            doc["trace"] = c.explain(e)
    _emit(args, doc)
    return PASS


def cmd_verify(args):
    if args.schedule:
        c = _load_schedule_colouring(args)
    else:
        c = _load_base(args)
    mode = "sampled" if args.sample else "exhaustive"
    rep = rainbow.verify_rainbow(
        c,
        args.t,
        args.p,
        mode=mode,
        trials=args.sample or 1000,
        seed=args.seed,
        budget=args.budget,
        workers=args.workers,
    )
    doc = {
        "command": "verify",
        "config": _config_of(args, ["t", "p", "sample", "seed"]),
        "colouring": report.colouring_spec(c),
        "passed": rep.passed,
        "coverage": rep.coverage,
        "sets_checked": rep.sets_checked,
        "span_histogram": {str(k): v for k, v in sorted(rep.histogram.items())},
    }
    if rep.coverage == "sampled":
        doc["disclaimer"] = (
            "sampled verification is evidence, not proof; replay with the "
            "logged seed"
        )
    if not rep.passed:
        doc["witness_kind"] = "rainbow-violation"
        doc["p"] = args.p
        doc["violating_set"] = list(rep.violating_set)
        doc["violating_colours"] = [stepup.colour_str(c0) for c0 in rep.violating_colours]
    _emit(args, doc)
    return PASS if rep.passed else FAIL


def cmd_search_random(args):
    got = rainbow.search_random_rainbow(
        args.k, args.n, args.q, args.t, args.p,
        max_attempts=args.attempts, seed=args.seed, budget=args.budget,
    )
    cfg = _config_of(args, ["k", "n", "q", "t", "p", "attempts", "seed"])
    if got is None:
        _emit(args, {
            "command": "search-random",
            "config": cfg,
            "found": False,
            "note": "exhausted attempts; this is a report, not a proof",
        })
        return FAIL
    colouring, rep, attempts = got
    doc = {
        "command": "search-random",
        "config": cfg,
        "found": True,
        "attempts": attempts,
        "winning_seed": colouring.seed,
        "colouring": report.colouring_spec(colouring),
        "verified": rep.passed,
    }
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(stepup.format_tabulated(colouring))
        doc["exported"] = args.export
    _emit(args, doc)
    return PASS


def cmd_exact_oracle(args):
    exists, witness = rainbow.exact_rainbow_exists(
        args.k, args.n, args.q, args.t, args.p, budget=args.budget
    )
    doc = {
        "command": "exact-oracle",
        "config": _config_of(args, ["k", "n", "q", "t", "p"]),
        "exists": exists,
        "summary": (
            "a rainbow colouring exists" if exists else "no rainbow colouring exists"
        ),
    }
    if witness is not None and args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(stepup.format_tabulated(witness))
        doc["exported"] = args.export
    _emit(args, doc)
    return PASS if exists else FAIL


def cmd_hedgehog(args):
    action = args.action
    if action == "build":
        h = hedgehog.build_hedgehog(args.t, args.k, args.s)
        hyp = h.to_hypergraph()
        doc = {
            "command": "hedgehog build",
            "config": _config_of(args, ["t", "k", "s"]),
            "edges": len(hyp.edges),
            "vertices": len(hyp.vertices),
            "body": list(h.body),
        }
        if args.export:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.write(hedgehog.format_hypergraph(hyp))
            doc["exported"] = args.export
        _emit(args, doc)
        return PASS
    if action == "degeneracy":
        h = hedgehog.parse_hypergraph(_read(args.hypergraph), path=args.hypergraph)
        _emit(args, {
            "command": "hedgehog degeneracy",
            "config": _config_of(args, ["hypergraph"]),
            "degeneracy": hedgehog.degeneracy(h),
        })
        return PASS
    if action == "piercing":
        h = hedgehog.parse_hypergraph(_read(args.hypergraph), path=args.hypergraph)
        a = tuple(int(x) for x in args.subset.replace(",", " ").split())
        res = hedgehog.piercing_number(h, a, budget=args.budget)
        _emit(args, {
            "command": "hedgehog piercing",
            "config": _config_of(args, ["hypergraph", "subset"]),
            "exact": res.exact,
            "lower": res.lower,
            "upper": res.upper,
            "witness": list(res.witness),
        })
        return PASS
    if action == "lift":
        base = _load_base(args)
        lifted = hedgehog.lift_colouring(base, args.k)
        doc = {
            "command": "hedgehog lift",
            "config": _config_of(args, ["k"]),
            "colouring": report.colouring_spec(lifted),
            "uniformity": lifted.uniformity,
            "set_size": lifted.p,
            "colour_budget": lifted.budget,
        }
        if args.edge:
            e = tuple(int(x) for x in args.edge.replace(",", " ").split())
            doc["edge"] = list(e)
            doc["colour"] = stepup.colour_str(lifted.colour(e))
        _emit(args, doc)
        return PASS
    if action == "find-mono":
        if args.random_base:
            k, n, q, seed = (int(x) for x in args.random_base)
            if q != 2:
                raise ParameterError("find-mono needs a 2-colouring")
            c = stepup.random_colouring(k, n, q, seed)
        else:
            c = _load_base(args)
        emb = hedgehog.find_mono_hedgehog(c, args.t, budget=args.budget)
        doc = {
            "command": "hedgehog find-mono",
            "config": _config_of(args, ["t"]),
            "witness_kind": "embedding",
            "colouring": report.colouring_spec(c),
            "colour": stepup.colour_str(emb.colour),
            **emb.to_dict(),
        }
        _emit(args, doc)
        return PASS
    if action == "burr-erdos":
        return cmd_burr_erdos(args)
    raise ParameterError(f"unknown hedgehog action {action!r}")


def cmd_burr_erdos(args):
    h, host = hedgehog.burr_erdos_pair(args.n)
    doc = {
        "command": "burr-erdos",
        "config": _config_of(args, ["n"]),
        "hypergraph_vertices": len(h.vertices),
        "hypergraph_edges": len(h.edges),
        "degeneracy": hedgehog.degeneracy(h),
        "host_vertices": host.num_vertices,
        "host_parts": host.num_parts,
        "colouring": report.colouring_spec(host),
    }
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(hedgehog.format_hypergraph(h))
        doc["exported"] = args.export
    check = getattr(args, "check", None)
    if check:
        res = _scan_host_for_blue(host, mode=check, trials=args.sample, seed=args.seed)
        doc["host_check"] = res
        if not res["passed"]:
            _emit(args, doc)
            return FAIL
    _emit(args, doc)
    return PASS


def _scan_host_for_blue(host, mode="exhaustive", trials=10**6, seed=0):
    """Every 5-subset of the host must contain a blue triple."""
    n = host.num_vertices
    part = host.part_of
    checked = 0
    if mode == "exhaustive":
        sets = itertools.combinations(range(1, n + 1), 5)
    else:
        rng = random.Random(seed)
        population = range(1, n + 1)
        sets = (tuple(sorted(rng.sample(population, 5))) for _ in range(trials))
    for s5 in sets:
        checked += 1
        if _blue_triple_in(host, part, s5) is None:
            return {
                "passed": False,
                "mode": mode,
                "checked": checked,
                "violating_set": list(s5),
                "seed": seed if mode == "sampled" else None,
            }
    return {
        "passed": True,
        "mode": mode,
        "checked": checked,
        "seed": seed if mode == "sampled" else None,
    }


def _blue_triple_in(host, part, s5):
    parts = {}
    for v in s5:
        parts.setdefault(part(v), []).append(v)
    for p0, members in parts.items():
        if len(members) >= 3:
            tri = tuple(members[:3])
            if host.colour(tri) == hedgehog.BLUE:
                return tri
    if len(parts) >= 3:
        tri = tuple(sorted(members[0] for members in list(parts.values())[:3]))
        if host.colour(tri) == hedgehog.BLUE:
            return tri
    for tri in itertools.combinations(s5, 3):
        if host.colour(tri) == hedgehog.BLUE:
            return tri
    return None


def cmd_validate(args):
    try:
        doc = json.loads(_read(args.witness))
    except json.JSONDecodeError as exc:
        raise FileFormatError(str(exc), path=args.witness) from None
    try:
        ok, message = report.validate_witness(doc)
    except KeyError as exc:
        raise FileFormatError(
            f"malformed witness: missing field {exc}", path=args.witness
        ) from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise FileFormatError(
            f"malformed witness: {exc}", path=args.witness
        ) from None
    _emit(args, {
        "command": "validate",
        "config": _config_of(args, ["witness"]),
        "valid": ok,
        "message": message,
    })
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# Presets: the composition recipes at desk scale
# ---------------------------------------------------------------------------

def cmd_preset(args):
    name = args.name
    handlers = {
        "cor-five-colours": _preset_five_colours,
        "cor-three-three": _preset_three_three,
        "hedgehog-lower": _preset_hedgehog_lower,
        "lemma-k5-13": _preset_lemma_k5_13,
    }
    if name not in handlers:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {sorted(handlers)}"
        )
    doc, code = handlers[name](args)
    doc = {
        "command": f"preset {name}",
        "config": _config_of(args, ["name", "seed", "samples"]),
        **doc,
    }
    _emit(args, doc)
    return code


def _witness_stage(c, sets, sizes, seed):
    """Sample vertex subsets and hunt forced-colour witnesses in each."""
    rng = random.Random(seed)
    outcomes = {"p-colours": 0, "branch": 0}
    examples = []
    for i in range(sets):
        vs = sorted(rng.sample(range(1, c.num_vertices + 1), sizes))
        rep = stepup.witness_p_colours(c, vs)
        outcomes[rep.outcome] += 1
        if not rep.revalidate(c, vs):
            raise IncompleteSearchError(
                "a sampled witness failed re-validation", stage="witness"
            )
        if i == 0 and rep.outcome == "p-colours":
            examples.append({
                "vertices": vs,
                "edges": [
                    {"edge": list(e), "colour": stepup.colour_str(col)}
                    for e, col in rep.edges
                ],
            })
    return outcomes, examples


def _preset_five_colours(args):
    """One +1 doubling step over a random 3-uniform base, forcing 5 colours."""
    q, t, n0 = 5, 6, 8
    stages = [{
        "stage": "random base",
        "description": f"search a ({t};{q},{q})-rainbow colouring of the "
        f"3-subsets of 1..{n0}",
    }]
    got = rainbow.search_random_rainbow(3, n0, q, t, 5, max_attempts=300,
                                        seed=args.seed, budget=args.budget)
    if got is None:
        raise IncompleteSearchError("random base not found", stage="base")
    base, rep, attempts = got
    stages[0]["attempts"] = attempts
    part = stepup.partition_patterns(3, 5)
    stepped = stepup.step_up_1(base, part)
    stages.append({
        "stage": "plus-one step",
        "description": "pattern classes of length 3 split into 5 classes; "
        "budget 2q+p-2",
        "budget": stepped.budget,
        "universe": stepped.num_vertices,
        "uniformity": stepped.uniformity,
    })
    outcomes, examples = _witness_stage(stepped, args.samples, 40, args.seed)
    stages.append({
        "stage": "sampled witnesses",
        "outcomes": outcomes,
        "example": examples,
    })
    return {"stages": stages, "colouring": report.colouring_spec(stepped)}, PASS


def _preset_three_three(args):
    """Colour-preserving doubling keeps 3 colours while the uniformity grows."""
    q, t, n0 = 3, 6, 8
    got = rainbow.search_random_rainbow(3, n0, q, t, 3, max_attempts=300,
                                        seed=args.seed, budget=args.budget)
    if got is None:
        raise IncompleteSearchError("random base not found", stage="base")
    base, rep, attempts = got
    part = stepup.partition_patterns(3, 5)
    stepped = stepup.step_up_1b(base, part)
    outcomes, examples = _witness_stage(stepped, args.samples, 40, args.seed)
    stages = [
        {"stage": "random base", "attempts": attempts,
         "description": f"({t};{q},{q})-rainbow colouring of the 3-subsets of 1..{n0}"},
        {"stage": "colour-preserving plus-one step", "budget": stepped.budget,
         "universe": stepped.num_vertices, "uniformity": stepped.uniformity,
         "description": "class colours aliased onto the first p-2 base colours"},
        {"stage": "sampled witnesses (forcing p-2 colours)", "outcomes": outcomes,
         "example": examples},
    ]
    return {"stages": stages, "colouring": report.colouring_spec(stepped)}, PASS


def _preset_hedgehog_lower(args):
    """Degenerate doubling schedule: lifting a pair colouring to triples."""
    q, t, n = 16, 4, 10
    got = rainbow.search_random_rainbow(2, n, q, t, 4, max_attempts=300,
                                        seed=args.seed, budget=args.budget)
    if got is None:
        raise IncompleteSearchError("random base not found", stage="base")
    base, rep, attempts = got
    lifted = hedgehog.lift_colouring(base, 3)
    spread = hedgehog.verify_hedgehog_spread(
        lifted, t, 1, embeddings=args.samples, seed=args.seed
    )
    stages = [
        {"stage": "random base", "attempts": attempts,
         "description": f"({t};{q},4)-rainbow colouring of the pairs of 1..{n}"},
        {"stage": "lift to triples (zero doubling steps)",
         "set_size": lifted.p, "budget": lifted.budget},
        {"stage": "spread certification",
         "bodies": spread.bodies_checked,
         "min_base_span": spread.min_base_span,
         "embeddings": spread.embeddings_checked,
         "min_lifted_span": spread.min_lifted_span,
         "passed": spread.passed},
    ]
    return (
        {"stages": stages, "colouring": report.colouring_spec(lifted)},
        PASS if spread.passed else FAIL,
    )


def _preset_lemma_k5_13(args):
    """Zero plus-one steps from uniformity 4, then lifting to uniformity 5."""
    q, t, n = 14, 6, 8
    got = rainbow.search_random_rainbow(4, n, q, t, 6, max_attempts=300,
                                        seed=args.seed, budget=args.budget)
    if got is None:
        raise IncompleteSearchError("random base not found", stage="base")
    base, rep, attempts = got
    lifted = hedgehog.lift_colouring(base, 5)
    spread = hedgehog.verify_hedgehog_spread(
        lifted, t, 1, embeddings=0, seed=args.seed
    )
    stages = [
        {"stage": "random base", "attempts": attempts,
         "description": f"({t};{q},6)-rainbow colouring of the 4-subsets of 1..{n}; "
         "14 colours match the length-4 Catalan bound"},
        {"stage": "plus-one steps", "count": 0,
         "budget_rule": "each step would turn budget q into 2q+p-2",
         "budgets": [q]},
        {"stage": "lift to uniformity 5", "set_size": lifted.p,
         "budget": lifted.budget,
         "budget_rule": "C(q, C(k,s)) sets of base colours"},
        {"stage": "spread certification", "bodies": spread.bodies_checked,
         "min_base_span": spread.min_base_span, "passed": spread.passed},
    ]
    return (
        {"stages": stages, "colouring": report.colouring_spec(lifted)},
        PASS if spread.passed else FAIL,
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, root: bool):
    """Global flags, accepted both before and after the subcommand."""
    d = (lambda v: v) if root else (lambda v: argparse.SUPPRESS)
    p.add_argument("--format", choices=("text", "json"), default=d("text"))
    p.add_argument("--output", default=d(None), help="write the report to a file")
    p.add_argument(
        "--budget",
        type=int,
        default=d(int(os.environ.get("RAMSEY_BUDGET", DEFAULT_BUDGET))),
        help="work budget in elementary edge evaluations",
    )
    p.add_argument("--workers", type=int, default=d(1))
    p.add_argument("--seed", type=int, default=d(0))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramseykit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(ap, root=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, root=False)
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    def seqflags(p):
        p.add_argument("--seq", help="inline sequence, e.g. '1 3 2'")
        p.add_argument("--seq-file")

    p = sub.add_parser("pattern", help="canonical pattern of a sequence")
    seqflags(p)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("gen-sk", help="doubling permutation family")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_gen_sk)

    p = sub.add_parser("extract", help="max-induced L/R or homogeneous witness")
    seqflags(p)
    p.add_argument("--left", required=True, help="left-property permutation")
    p.add_argument("--right", required=True, help="right-property permutation")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("separated", help="separated subsequence realizations")
    seqflags(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--perm", help="single permutation to find instead")
    p.set_defaults(func=cmd_separated)

    p = sub.add_parser("delta", help="delta sequence of a vertex-set file")
    p.add_argument("--vertex-file", required=True)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("stepup", help="build a scheduled colouring, evaluate edges")
    p.add_argument("--schedule", required=True)
    p.add_argument("--colouring", help="tabulated base colouring file")
    p.add_argument("--random-base", nargs=4, metavar=("K", "N", "Q", "SEED"))
    p.add_argument("--edge", help="evaluate one edge, e.g. '1 2 4 8'")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_stepup)

    p = sub.add_parser("verify", help="rainbow verification")
    p.add_argument("--colouring")
    p.add_argument("--schedule")
    p.add_argument("--random-base", nargs=4, metavar=("K", "N", "Q", "SEED"))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sample", type=int, help="sampled mode with this many trials")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-random", help="first-moment style random search")
    for name in ("k", "n", "q", "t", "p"):
        p.add_argument(f"--{name}", type=int, required=True)
    p.add_argument("--attempts", type=int, default=100)
    p.add_argument("--export", help="write the found colouring here")
    p.set_defaults(func=cmd_search_random)

    p = sub.add_parser("exact-oracle", help="complete existence search")
    for name in ("k", "n", "q", "t", "p"):
        p.add_argument(f"--{name}", type=int, required=True)
    p.add_argument("--export")
    p.set_defaults(func=cmd_exact_oracle)

    p = sub.add_parser("hedgehog", help="body-and-spine hypergraph operations")
    p.add_argument("action", choices=(
        "build", "lift", "find-mono", "degeneracy", "piercing", "burr-erdos",
    ))
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--hypergraph")
    p.add_argument("--subset")
    p.add_argument("--colouring")
    p.add_argument("--random-base", nargs=4, metavar=("K", "N", "Q", "SEED"))
    p.add_argument("--edge")
    p.add_argument("--export")
    p.add_argument("--check", choices=("exhaustive", "sampled"))
    p.add_argument("--sample", type=int, default=10**6)
    p.set_defaults(func=cmd_hedgehog)

    p = sub.add_parser("burr-erdos", help="low-degeneracy hypergraph + host")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--export")
    p.add_argument("--check", choices=("exhaustive", "sampled"))
    p.add_argument("--sample", type=int, default=10**6)
    p.set_defaults(func=cmd_burr_erdos)

    p = sub.add_parser("preset", help="composition recipes at desk scale")
    p.add_argument("--name", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("validate", help="re-check an emitted witness file")
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, PreconditionError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return USAGE
    except IncompleteSearchError as exc:
        print(f"incomplete ({exc.stage}): {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
