"""Output gate: decides whether one job's answer is correct.

A job fails when it exits with a code its job does not expect, exits 2,
raises, emits a witness that ``report.validate_witness`` rejects, reports
a verdict or histogram that contradicts what is known about its input, or
(on a seed with recorded digests) reports anything but the recorded bytes.
"""

from __future__ import annotations

import hashlib
import json
import math

# config keys that hold file names; they are the only path-dependent fields
PATH_KEYS = frozenset({
    "schedule", "colouring", "vertex-file", "hypergraph", "witness", "seq-file",
})


def digest(doc: dict) -> str:
    """Short hash of a report with its path-valued fields removed."""
    body = dict(doc)
    body.pop("exported", None)
    if isinstance(body.get("config"), dict):
        body["config"] = {
            k: v for k, v in body["config"].items() if k not in PATH_KEYS
        }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_budget(step: str, q: int, k: int, p: int) -> tuple[int, int]:
    """Uniformity and colour budget of one doubling step over a k-uniform
    q-colouring: up1 gives k+1 and 2q+p-2, up2 gives 2k and p*q."""
    if step == "up1":
        return k + 1, 2 * q + p - 2
    return 2 * k, p * q


def check(job, code, doc, validate=None) -> list[str]:
    """Problems with one job's outcome; an empty list means correct.

    ``doc`` is the parsed JSON report (or ``None`` when there was none);
    ``validate`` re-checks an emitted witness and returns ``(ok, message)``.
    """
    if code not in job.expect:
        return [f"exit {code!r}, expected one of {job.expect}"]
    if doc is None:
        return ["no JSON report"]
    problems = []
    facts = job.facts
    if job.kind == "sweep":
        problems += _check_sweep(job, doc)
    if "witness_kind" in doc and validate is not None:
        ok, message = validate(doc)
        if not ok:
            problems.append(f"emitted witness fails validate: {message}")
    if "exists" in facts and doc.get("exists") is not facts["exists"]:
        problems.append(f"oracle says exists={doc.get('exists')}, known {facts['exists']}")
    if "witness" in facts:
        # a verify run that met no violation leaves a report, not a witness
        with open(facts["witness"], encoding="utf-8") as fh:
            emitted = "witness_kind" in json.load(fh)
        if doc.get("valid") is not emitted:
            problems.append(f"validate says valid={doc.get('valid')}: {doc.get('message')}")
    if job.name.startswith("verify"):
        problems += _check_verify(job, code, doc)
    if job.name == "host-scan":
        hc = doc.get("host_check", {})
        if hc.get("passed") is not True or hc.get("checked") != str(facts["trials"]):
            problems.append(f"host scan {hc} does not cover {facts['trials']} sets")
    if job.name == "preset" and "samples" in facts:
        outcomes = doc["stages"][-1]["outcomes"]
        if sum(int(v) for v in outcomes.values()) != facts["samples"]:
            problems.append(f"witness outcomes {outcomes} != {facts['samples']} samples")
    if job.name == "delta" and (
        doc.get("unique_and_max") is not True
        or len(doc["deltas"]) != facts["vertices"] - 1
    ):
        problems.append("delta sequence breaks the unique-maximum facts")
    if job.name == "piercing" and (
        doc.get("exact") is not True
        or doc["lower"] != doc["upper"]
        or len(doc["witness"]) != int(doc["lower"])
    ):
        problems.append("piercing number is not exact and witnessed")
    return problems


def _check_verify(job, code, doc) -> list[str]:
    facts = job.facts
    problems = []
    passed = doc.get("passed")
    if passed is not (code == 0):
        problems.append(f"verdict passed={passed} disagrees with exit {code}")
    checked = int(doc["sets_checked"])
    if sum(int(v) for v in doc["span_histogram"].values()) != checked:
        problems.append("span histogram does not sum to sets_checked")
    spans = [int(s) for s in doc["span_histogram"]]
    if passed and spans and min(spans) < facts["p"]:
        problems.append("passing verdict with a span below p")
    if passed and doc.get("coverage") == "exhaustive" and checked != math.comb(facts["n"], facts["t"]):
        problems.append(f"exhaustive pass checked {checked} of C({facts['n']},{facts['t']}) sets")
    if passed and doc.get("coverage") == "sampled" and checked != facts["trials"]:
        problems.append(f"sampled pass checked {checked} of {facts['trials']} sets")
    if not passed:
        vs = doc.get("violating_set", [])
        if len(vs) != facts["t"] or len(doc["violating_colours"]) >= facts["p"]:
            problems.append("violating set has the wrong size or spans p colours")
    return problems


def _check_sweep(job, doc) -> list[str]:
    step, k, n, q, _, p = job.call
    uniformity, budget = sweep_budget(step, q, k, p)
    hist = {c: int(v) for c, v in doc["histogram"].items()}
    palette = set(doc["palette"])
    problems = []
    edges = math.comb(2**n, uniformity)
    if sum(hist.values()) != edges:
        problems.append(f"histogram sums to {sum(hist.values())}, not C({2**n},{uniformity})")
    if not set(hist) <= palette:
        problems.append(f"colours {sorted(set(hist) - palette)} outside the palette")
    if len(palette) > budget or len(hist) > budget:
        problems.append(f"more than the budget of {budget} colours")
    return problems
