"""Command-line entry point.

Exit codes: 0 on success/pass, 1 on a verified failure (for example a
rainbow violation found or an exact non-existence result), 2 on parameter,
file-format, budget or internal errors and on a constructive stage of a
preset or of ``hedgehog find-mono`` that ran out of attempts (one line on
stderr, never a traceback).  ``search-random`` out of attempts exits 1
with ``found: false``: its report says it is not a proof.  All files
are UTF-8 with LF line endings, ``#`` starts a comment and blank lines are
skipped; sequence files hold whitespace-separated integers; vertex indices
in reports are 1-based.

Each ``cmd_*`` handler returns ``(report, exit code)`` and writes no
report itself: ``main`` writes the report once, as JSON or text, to stdout
or ``--output``.  A ``None`` report means the handler printed its plain
output already (``gen-sk`` in text mode).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    FileFormatError,
    IncompleteSearchError,
    ParameterError,
    PreconditionError,
    ints,
    records,
)
from . import delta, hedgehog, presets, rainbow, report, seqpat, stepup

PASS, FAIL, USAGE = 0, 1, 2


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read: {exc}", path=path) from None


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write: {exc}", path=path) from None


def _int_list(text, flag, commas=True):
    """Integers separated by whitespace and, when ``commas``, by commas;
    a bad token raises ParameterError naming ``flag``."""
    if commas:
        text = text.replace(",", " ")
    try:
        return ints(text.split(), "integer", None, None)
    except FileFormatError as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def _sequence_arg(args):
    if args.seq is not None:
        return _int_list(args.seq, "--seq", commas=False)
    if args.seq_file is not None:
        path = args.seq_file
        return tuple(
            v for line, toks in records(_read(path))
            for v in ints(toks, "integer", path, line)
        )
    raise ParameterError("provide --seq or --seq-file")


def _emit(args, doc):
    doc = {"schema": report.SCHEMA, **doc}
    if args.format == "json":
        payload = report.encode_report(doc)
    else:
        payload = report.render_text(doc)
    if args.output:
        _write(args.output, payload)
    else:
        sys.stdout.write(payload)


def _config_of(args, names):
    cfg = {"subcommand": args.cmd}
    for name in names:
        cfg[name.replace("_", "-")] = getattr(args, name)
    cfg["budget"] = args.budget
    cfg["workers"] = args.workers
    return cfg


def _load_base(args, line=None):
    """The base colouring named by ``--colouring`` or ``--random-base`` or,
    failing both, by a schedule's ``base`` line: ``("file", path)`` or
    ``("random", k, n, q, seed)``."""
    if args.colouring:
        line = ("file", args.colouring)
    elif args.random_base:
        line = ("random", *args.random_base)
    if line is None:
        raise ParameterError(
            "provide --colouring, --random-base k n q seed or a schedule base line"
        )
    if line[0] == "random":
        return stepup.random_colouring(*line[1:])
    return stepup.parse_tabulated(_read(line[1]), path=line[1])


def _load_schedule_colouring(args):
    """The lazy colouring a schedule file builds over its base."""
    line, steps = stepup.parse_schedule(_read(args.schedule), path=args.schedule)
    return stepup.tower_compose(_load_base(args, line), steps)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_pattern(args):
    s = _sequence_arg(args)
    p = seqpat.pattern_of(s)
    return {
        "command": "pattern",
        "config": _config_of(args, []),
        "sequence": list(s),
        "pattern": list(p),
        "is_permutation": seqpat.is_permutation_pattern(p),
    }, PASS


def cmd_gen_sk(args):
    s = seqpat.gen_sk(args.k)
    if args.format == "text" and not args.output:
        print(" ".join(str(x) for x in s))
        return None, PASS
    return {
        "command": "gen-sk",
        "config": _config_of(args, ["k"]),
        "sequence": list(s),
    }, PASS


def cmd_extract(args):
    s = _sequence_arg(args)
    L = _int_list(args.left, "--left")
    R = _int_list(args.right, "--right")
    w = seqpat.find_l_r_or_homogeneous(s, L, R)
    return {
        "command": "extract",
        "config": _config_of(args, ["left", "right"]),
        "witness_kind": "sequence-witness",
        "sequence": list(s),
        "left": list(L),
        "right": list(R),
        **w.to_dict(),
    }, PASS


def cmd_separated(args):
    s = _sequence_arg(args)
    if args.perm:
        sigma = _int_list(args.perm, "--perm")
        ix = seqpat.contains_separated_permutation(s, sigma)
        doc = {
            "command": "separated",
            "config": _config_of(args, ["perm"]),
            "witness_kind": "separated-witnesses",
            "sequence": list(s),
            "witnesses": {" ".join(map(str, sigma)): list(ix)} if ix else {},
            "found": ix is not None,
        }
        if ix is None:
            # a not-found report carries no witness for validate to check
            del doc["witness_kind"], doc["witnesses"]
        return doc, PASS if ix is not None else FAIL
    res = seqpat.separated_interlacing(s, args.k)
    return {
        "command": "separated",
        "config": _config_of(args, ["k"]),
        "witness_kind": "separated-witnesses",
        "sequence": list(s),
        "chain_levels": [list(l) for l in res.levels],
        "chain_values": list(res.level_values),
        "witnesses": {
            " ".join(map(str, sig)): list(ix) for sig, ix in sorted(res.witnesses.items())
        },
    }, PASS


def cmd_delta(args):
    vs = delta.parse_vertex_file(_read(args.vertex_file), path=args.vertex_file)
    ds = delta.delta_sequence(sorted(vs, key=lambda v: v.value))
    return {
        "command": "delta",
        "config": _config_of(args, ["vertex_file"]),
        "width": ds.width,
        "vertices": [v.value for v in ds.vertices],
        "deltas": list(ds.deltas),
        "unique_and_max": delta.check_unique_and_max(ds, budget=args.budget),
    }, PASS


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
        e = _int_list(args.edge, "--edge")
        doc["edge"] = list(e)
        doc["colour"] = stepup.colour_str(c.colour(e))
        if args.explain:
            doc["trace"] = c.explain(e)
    return doc, PASS


def cmd_verify(args):
    c = _load_schedule_colouring(args) if args.schedule else _load_base(args)
    # verify runs in one process; --workers is only recorded in the config
    if args.workers < 1:
        raise ParameterError(f"workers = {args.workers}, must be at least 1")
    rep = rainbow.verify_rainbow(
        c,
        args.t,
        args.p,
        mode="exhaustive" if args.sample is None else "sampled",
        trials=args.sample,
        seed=args.seed,
        budget=args.budget,
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
    return doc, PASS if rep.passed else FAIL


def cmd_search_random(args):
    got = rainbow.search_random_rainbow(
        args.k, args.n, args.q, args.t, args.p,
        max_attempts=args.attempts, seed=args.seed, budget=args.budget,
    )
    cfg = _config_of(args, ["k", "n", "q", "t", "p", "attempts", "seed"])
    if got is None:
        if args.p > rainbow.max_span(args.k, args.t, args.q):
            note = (f"no {args.t}-set can span {args.p} colours, so none exists; "
                    "nothing was drawn")
        else:
            note = "exhausted attempts; this is a report, not a proof"
        return {
            "command": "search-random",
            "config": cfg,
            "found": False,
            "note": note,
        }, FAIL
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
        _write(args.export, stepup.format_tabulated(colouring))
        doc["exported"] = args.export
    return doc, PASS


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
        _write(args.export, stepup.format_tabulated(witness))
        doc["exported"] = args.export
    return doc, PASS if exists else FAIL


def _hypergraph_arg(args):
    if args.hypergraph is None:
        raise ParameterError(f"hedgehog {args.action}: provide --hypergraph")
    return hedgehog.parse_hypergraph(_read(args.hypergraph), path=args.hypergraph)


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
            _write(args.export, hedgehog.format_hypergraph(hyp))
            doc["exported"] = args.export
        return doc, PASS
    if action == "degeneracy":
        h = _hypergraph_arg(args)
        return {
            "command": "hedgehog degeneracy",
            "config": _config_of(args, ["hypergraph"]),
            "degeneracy": hedgehog.degeneracy(h),
        }, PASS
    if action == "piercing":
        h = _hypergraph_arg(args)
        if args.subset is None:
            raise ParameterError("hedgehog piercing: provide --subset")
        a = _int_list(args.subset, "--subset")
        res = hedgehog.piercing_number(h, a, budget=args.budget)
        return {
            "command": "hedgehog piercing",
            "config": _config_of(args, ["hypergraph", "subset"]),
            "exact": res.exact,
            "lower": res.lower,
            "upper": res.upper,
            "witness": list(res.witness),
        }, PASS
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
            e = _int_list(args.edge, "--edge")
            doc["edge"] = list(e)
            doc["colour"] = stepup.colour_str(lifted.colour(e))
        return doc, PASS
    if action == "find-mono":
        c = _load_base(args)
        emb = hedgehog.find_mono_hedgehog(c, args.t, budget=args.budget)
        return {
            "command": "hedgehog find-mono",
            "config": _config_of(args, ["t"]),
            "witness_kind": "embedding",
            "colouring": report.colouring_spec(c),
            "colour": stepup.colour_str(emb.colour),
            **emb.to_dict(),
        }, PASS
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
        _write(args.export, hedgehog.format_hypergraph(h))
        doc["exported"] = args.export
    code = PASS
    if args.check:
        res = host.scan_for_blue(mode=args.check, trials=args.sample, seed=args.seed)
        doc["host_check"] = res
        code = PASS if res["passed"] else FAIL
    return doc, code


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
    return {
        "command": "validate",
        "config": _config_of(args, ["witness"]),
        "valid": ok,
        "message": message,
    }, PASS if ok else FAIL


def cmd_preset(args):
    doc, passed = presets.run_preset(args.name, args.seed, args.samples, args.budget)
    return {
        "command": f"preset {args.name}",
        "config": _config_of(args, ["name", "seed", "samples"]),
        **doc,
    }, PASS if passed else FAIL


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
        default=d(DEFAULT_BUDGET),
        help="work budget of a stage: edge evaluations, set lookups, "
        "re-coloured witness edges, lifted colours or search nodes",
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
    p.add_argument("--random-base", type=int, nargs=4, metavar=("K", "N", "Q", "SEED"))
    p.add_argument("--edge", help="evaluate one edge, e.g. '1 2 4 8'")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_stepup)

    p = sub.add_parser("verify", help="rainbow verification")
    p.add_argument("--colouring")
    p.add_argument("--schedule")
    p.add_argument("--random-base", type=int, nargs=4, metavar=("K", "N", "Q", "SEED"))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sample", type=int, help="sampled mode with this many trials")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-random", help="seeded random rainbow search")
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
        "build", "lift", "find-mono", "degeneracy", "piercing",
    ))
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--hypergraph")
    p.add_argument("--subset")
    p.add_argument("--colouring")
    p.add_argument("--random-base", type=int, nargs=4, metavar=("K", "N", "Q", "SEED"))
    p.add_argument("--edge")
    p.add_argument("--export")
    p.set_defaults(func=cmd_hedgehog)

    p = sub.add_parser("burr-erdos", help="low-degeneracy hypergraph + host")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--export")
    p.add_argument("--check", choices=("exhaustive", "sampled"))
    p.add_argument(
        "--sample", type=int, default=10**6,
        help="trials of --check sampled; drawn only when a part-profile class fails",
    )
    p.set_defaults(func=cmd_burr_erdos)

    p = sub.add_parser("preset", help="composition recipes at desk scale")
    p.add_argument("--name", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("validate", help="re-check an emitted witness file")
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_validate)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process, which
    builds its parser once."""
    args = _parser().parse_args(argv)
    try:
        # dispatch by name, so a handler rebound after the parser was built
        # is the one that runs
        doc, code = globals()[args.func.__name__](args)
        if doc is not None:
            _emit(args, doc)
        return code
    except (ParameterError, PreconditionError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return USAGE
    except IncompleteSearchError as exc:
        print(f"incomplete ({exc.stage}): {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
