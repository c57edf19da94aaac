"""In-memory span tracing of the library's layers, from outside the library.

:class:`Tracer` replaces the public functions of the layer modules by
timing wrappers (module attributes only; no library file changes) and
counts ``Colouring.colour`` calls.  Spans stay in memory until the run ends.
:func:`layer_metrics` turns spans into per-pass layer numbers.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import namedtuple

LAYERS = ("cli", "report", "rainbow", "stepup", "seqpat", "delta", "hedgehog")

# name, start, end, parent span index (-1 for a job), job index, attributes
Span = namedtuple("Span", "name start end parent job attrs")

BUILD = frozenset({
    "stepup.random_colouring", "stepup.parse_tabulated", "stepup.parse_schedule",
    "stepup.partition_patterns", "stepup.tower_compose",
})
# a span's self time is charged to the nearest enclosing span named here
OPS = {
    "stepup.sweep_reachable_colours": "sweep",
    "rainbow.verify_rainbow": "verify",
    "stepup.witness_p_colours": "witness",
    "rainbow.exact_rainbow_exists": "oracle",
    "rainbow.search_random_rainbow": "search",
    "hedgehog.find_mono_hedgehog": "find_mono",
    "hedgehog.piercing_number": "piercing",
    "hedgehog.verify_hedgehog_spread": "spread",
    "seqpat.find_l_r_or_homogeneous": "extract",
    "delta.delta_sequence": "delta",
    "report.encode_report": "encode",
    "report.validate_witness": "validate",
    "cli.parse": "parse",
    **{name: "build" for name in BUILD},
}
SHARES = ("sweep", "verify", "witness", "oracle", "search", "find_mono",
          "host_scan", "piercing", "spread", "extract", "delta", "build",
          "encode", "validate", "parse", "other")


def _attrs_verify(args, kw, res):
    return {"coverage": res.coverage, "sets": res.sets_checked,
            "workers": kw.get("workers", 1)}


def _attrs_sweep(args, kw, res):
    c = args[0]
    return {"edges": math.comb(c.num_vertices, c.uniformity)}


def _attrs_search(args, kw, res):
    return {"attempts": kw.get("max_attempts", 100) if res is None else res[2]}


def _attrs_witness(args, kw, res):
    return {"outcome": res.outcome}


ATTRS = {
    "rainbow.verify_rainbow": _attrs_verify,
    "stepup.sweep_reachable_colours": _attrs_sweep,
    "rainbow.search_random_rainbow": _attrs_search,
    "stepup.witness_p_colours": _attrs_witness,
}


class Tracer:
    """Records spans for jobs run between :meth:`begin` and :meth:`end`."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.job_names: list[str] = []  # by traced job id
        self.colour_calls = 0
        self._stack: list[int] = []
        self._job = None
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def begin(self, job_name: str) -> None:
        self._job = len(self.job_names)
        self.job_names.append(job_name)
        self._stack[:] = [len(self.spans)]
        self.spans.append(Span("job", time.perf_counter(), None, -1, self._job, {}))

    def end(self) -> None:
        root = self._stack[0]
        self.spans[root] = self.spans[root]._replace(end=time.perf_counter())
        self._stack.clear()
        self._job = None

    def _wrap(self, name, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS.get(name)

        def traced(*args, **kw):
            if self._job is None:
                return fn(*args, **kw)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf()
            try:
                res = fn(*args, **kw)
            finally:
                end = perf()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._job, {})
            if attrs_of is not None:
                spans[index].attrs.update(attrs_of(args, kw, res))
            return res

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every public layer function wherever the package holds it."""
        pkg = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == pkg or n.startswith(pkg + ".")]
        wrapped = {}
        for layer in LAYERS:
            if layer == "cli":  # the job span covers main() and the handlers
                continue
            mod = sys.modules[f"{pkg}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        cli = sys.modules[f"{pkg}.cli"]
        wrapped[id(cli.build_parser)] = self._wrap_parser(cli.build_parser)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, name, wrapped[id(obj)])
        colouring = sys.modules[f"{pkg}.stepup"].Colouring
        colour = colouring.colour

        def counted(c, edge):
            if self._job is not None:
                self.colour_calls += 1
            return colour(c, edge)

        self._patch(colouring, "colour", counted)

    def _wrap_parser(self, build_parser):
        """``cli.parse`` spans cover building the parser and parsing argv."""
        build = self._wrap("cli.parse", build_parser)

        def traced_build():
            parser = build()
            parser.parse_args = self._wrap("cli.parse", parser.parse_args)
            return parser

        return traced_build

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread), so their summed
    durations are the part of the parent's interval they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _outermost(spans, names):
    """Indices of spans named in ``names`` with no ancestor named there."""
    keep = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            keep.append(i)
    return keep


def _total(spans, names):
    return sum(spans[i].end - spans[i].start for i in _outermost(spans, names))


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, job_names, passes: int, colour_calls: int = 0,
                  host_scan_sets: int = 0) -> dict:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``job_names[j]`` is the name of traced job ``j``; ``host_scan_sets`` is
    the ``checked`` count of their host-scan reports.  Times are seconds per
    pass; counts are per pass; ``share.<op>`` is the fraction of job time
    whose self time rolls up to that operation.
    """
    selfs = self_times(spans)
    op_of: list = []
    shares = dict.fromkeys(SHARES, 0.0)
    job_time = 0.0
    job_self = dict.fromkeys(("host_scan", "other"), 0.0)
    for i, s in enumerate(spans):
        if s.parent < 0:
            job_time += s.end - s.start
            op = "host_scan" if job_names[s.job] == "host-scan" else "other"
            job_self[op] += selfs[i]
        else:
            op = OPS.get(s.name) or op_of[s.parent]
        op_of.append(op)
        shares[op] += selfs[i]

    def named(name):
        return [s for s in spans if s.name == name]

    verify = named("rainbow.verify_rainbow")
    exh = [s for s in verify if s.attrs["coverage"] == "exhaustive"]
    smp = [s for s in verify if s.attrs["coverage"] == "sampled"]
    exh_s = sum(s.end - s.start for s in exh)
    smp_s = sum(s.end - s.start for s in smp)
    exh_sets = sum(s.attrs["sets"] for s in exh)
    smp_sets = sum(s.attrs["sets"] for s in smp)
    sweeps = named("stepup.sweep_reachable_colours")
    sweep_s = _total(spans, {"stepup.sweep_reachable_colours"})
    sweep_edges = sum(s.attrs["edges"] for s in sweeps)
    witness = named("stepup.witness_p_colours")
    witness_hits = sum(s.attrs["outcome"] == "p-colours" for s in witness)
    host_s = job_self["host_scan"]

    serial = [s for s in exh if s.attrs["workers"] == 1
              and job_names[s.job] == "verify-workers-1"]
    parallel = [s for s in exh if s.attrs["workers"] > 1]
    speedup = 0.0
    if serial and parallel:
        speedup = (sum(s.end - s.start for s in serial)
                   / sum(s.end - s.start for s in parallel))

    per = 1.0 / passes
    m = {
        "stepup.sweep_s": sweep_s * per,
        "stepup.sweep_edges": sweep_edges * per,
        "stepup.sweep_edges_per_s": _rate(sweep_edges, sweep_s),
        "stepup.colour_calls": colour_calls * per,
        "stepup.build_s": _total(spans, BUILD) * per,
        "stepup.witness_s": _total(spans, {"stepup.witness_p_colours"}) * per,
        "stepup.witness_calls": len(witness) * per,
        "stepup.witness_p_colours_frac": witness_hits / len(witness) if witness else 0.0,
        "rainbow.verify_exhaustive_s": exh_s * per,
        "rainbow.verify_exhaustive_sets": exh_sets * per,
        "rainbow.verify_exhaustive_sets_per_s": _rate(exh_sets, exh_s),
        "rainbow.verify_sampled_s": smp_s * per,
        "rainbow.verify_sampled_sets": smp_sets * per,
        "rainbow.verify_sampled_sets_per_s": _rate(smp_sets, smp_s),
        "rainbow.verify_parallel_speedup": speedup,
        "rainbow.search_s": _total(spans, {"rainbow.search_random_rainbow"}) * per,
        "rainbow.search_calls": len(named("rainbow.search_random_rainbow")) * per,
        "rainbow.search_attempts": sum(
            s.attrs["attempts"] for s in named("rainbow.search_random_rainbow")) * per,
        "rainbow.oracle_s": _total(spans, {"rainbow.exact_rainbow_exists"}) * per,
        "rainbow.oracle_calls": len(named("rainbow.exact_rainbow_exists")) * per,
        "hedgehog.find_mono_s": _total(spans, {"hedgehog.find_mono_hedgehog"}) * per,
        "hedgehog.host_scan_s": host_s * per,
        "hedgehog.host_scan_sets": host_scan_sets * per,
        "hedgehog.host_scan_sets_per_s": _rate(host_scan_sets, host_s),
        "hedgehog.piercing_s": _total(spans, {"hedgehog.piercing_number"}) * per,
        "hedgehog.spread_s": _total(spans, {"hedgehog.verify_hedgehog_spread"}) * per,
        "seqpat.extract_s": _total(spans, {"seqpat.find_l_r_or_homogeneous"}) * per,
        "seqpat.homogeneous_s": _total(spans, {"seqpat.longest_homogeneous_max_induced"}) * per,
        "seqpat.max_induced_calls": len(named("seqpat.contains_max_induced")) * per,
        "delta.sequence_s": _total(spans, {"delta.delta_sequence", "delta.delta_sequence_of_ints"}) * per,
        "report.encode_s": _total(spans, {"report.encode_report"}) * per,
        "report.validate_s": _total(spans, {"report.validate_witness"}) * per,
        "report.validate_calls": len(named("report.validate_witness")) * per,
        "cli.parse_s": _total(spans, {"cli.parse"}) * per,
        "cli.self_s": job_self["other"] * per,
        "trace.job_s": job_time * per,
        "trace.jobs": sum(1 for s in spans if s.parent < 0) * per,
    }
    for op in SHARES:
        m[f"share.{op}"] = shares[op] / job_time if job_time > 0 else 0.0
    return m
