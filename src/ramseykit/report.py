"""Report serialization and self-contained witness files.

Reports are JSON objects with a ``schema`` version tag.  Every integer
except the schema tag is serialized as a decimal string, because doubled
universes overflow 64-bit consumers.  Every randomized run logs its seed
and every report embeds the full configuration needed to replay it.

Witness files are JSON objects with a ``witness_kind`` tag and enough
embedded context (host sequence, colouring description, ...) that the
``validate`` subcommand can re-check them without extra inputs.
"""

from __future__ import annotations

import json
import math

from .errors import FileFormatError, ParameterError
from . import seqpat, stepup, hedgehog

SCHEMA = 1

__all__ = [
    "SCHEMA",
    "encode_report",
    "render_text",
    "colouring_spec",
    "build_colouring",
    "validate_witness",
]


def _stringify(obj, keep_ints=False):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj if keep_ints else str(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {
            str(_flat_key(k)): _stringify(v, keep_ints=(k == "schema"))
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_stringify(v) for v in obj)
    return obj


def _flat_key(k):
    if isinstance(k, tuple):
        return " ".join(str(x) for x in k)
    return k


def encode_report(report: dict) -> str:
    """Serialize a report dict: schema stays an integer, every other
    integer becomes a decimal string."""
    body = dict(report)
    body.setdefault("schema", SCHEMA)
    return json.dumps(_stringify(body), indent=2, sort_keys=True) + "\n"


def render_text(report: dict, indent: int = 0) -> str:
    """Plain-text rendering of a report for terminal use."""
    lines = []
    pad = "  " * indent

    def emit(key, value, depth):
        p = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{p}{key}:")
            for k2 in value:
                emit(k2, value[k2], depth + 1)
        elif isinstance(value, (list, tuple)) and value and isinstance(
            value[0], (dict, list, tuple)
        ):
            lines.append(f"{p}{key}:")
            for i, v in enumerate(value):
                emit(f"[{i}]", v, depth + 1)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{p}{key}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{p}{key}: {value}")

    for k, v in report.items():
        emit(k, v, indent)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Colouring specs: a JSON-able description sufficient to rebuild a colouring
# ---------------------------------------------------------------------------

def colouring_spec(c) -> dict:
    if isinstance(c, hedgehog.BurrErdosHost):
        return {"type": "burr-erdos-host", "n": c.n}
    if isinstance(c, stepup.TabulatedColouring):
        if c.kind == "random-seeded" and c.seed is not None:
            return {
                "type": "random",
                "k": c.uniformity,
                "n": c.num_vertices,
                "q": c.budget,
                "seed": c.seed,
            }
        return {"type": "tabulated", "data": stepup.format_tabulated(c)}
    if isinstance(c, stepup.SteppedPlusOne):
        step = ["up1b" if c.aliased else "up1", c.partition.k, c.partition.p]
    elif isinstance(c, stepup.SteppedDouble):
        step = ["up2", c.base.uniformity, c.p]
    elif isinstance(c, hedgehog.LiftedColouring):
        step = ["lift", c.base.uniformity, c.uniformity]
    else:
        raise ParameterError(f"cannot describe colouring kind {c.kind!r}")
    spec = colouring_spec(c.base)
    steps = spec.pop("steps", [])
    steps.append(step)
    base = spec if spec.get("type") != "schedule" else spec["base"]
    return {"type": "schedule", "base": base, "steps": steps}


def build_colouring(spec: dict):
    t = spec.get("type")
    if t == "random":
        return stepup.random_colouring(
            int(spec["k"]), int(spec["n"]), int(spec["q"]), int(spec["seed"])
        )
    if t == "tabulated":
        return stepup.parse_tabulated(spec["data"])
    if t == "burr-erdos-host":
        return hedgehog.BurrErdosHost(int(spec["n"]))
    if t == "schedule":
        c = build_colouring(spec["base"])
        for step in spec["steps"]:
            name, k, p = step[0], int(step[1]), int(step[2])
            if name in ("up1", "up1b"):
                part = stepup.partition_patterns(k, p)
                c = (stepup.step_up_1 if name == "up1" else stepup.step_up_1b)(c, part)
            elif name == "up2":
                c = stepup.step_up_2(c, p)
            elif name == "lift":
                c = hedgehog.lift_colouring(c, p)
            else:
                raise ParameterError(f"unknown schedule step {name!r}")
        return c
    raise ParameterError(f"unknown colouring spec type {t!r}")


# ---------------------------------------------------------------------------
# Witness validation
# ---------------------------------------------------------------------------

def _ints(xs):
    return tuple(int(x) for x in xs)


def validate_witness(doc: dict) -> tuple[bool, str]:
    """Re-check a witness file; returns (ok, message)."""
    kind = doc.get("witness_kind")
    if kind == "sequence-witness":
        return _validate_sequence_witness(doc)
    if kind == "separated-witnesses":
        return _validate_separated(doc)
    if kind == "rainbow-violation":
        return _validate_rainbow_violation(doc)
    if kind == "p-colour-witness":
        return _validate_p_colours(doc)
    if kind == "embedding":
        return _validate_embedding_doc(doc)
    return False, f"unknown witness_kind {kind!r}"


def _validate_sequence_witness(doc):
    s = _ints(doc["sequence"])
    ix = _ints(doc["indices"])
    tag = doc["kind"]
    try:
        if not seqpat.is_max_induced(s, ix):
            return False, "index set is not max-induced"
    except ParameterError as exc:
        return False, str(exc)
    values = seqpat.subsequence(s, ix)
    if list(values) != list(_ints(doc["values"])):
        return False, "stored values do not match the sequence"
    if tag == "L":
        want = seqpat.pattern_of(_ints(doc["left"]))
    elif tag == "R":
        want = seqpat.pattern_of(_ints(doc["right"]))
    elif tag == "homogeneous":
        if not seqpat.is_homogeneous(values):
            return False, "witness is not homogeneous"
        return True, "homogeneous max-induced witness checks out"
    else:
        return False, f"unknown witness tag {tag!r}"
    if seqpat.pattern_of(values) != want:
        return False, f"pattern mismatch: {seqpat.pattern_of(values)} != {want}"
    return True, f"max-induced copy of {tag} checks out"


def _validate_separated(doc):
    s = _ints(doc["sequence"])
    for key, ix in doc["witnesses"].items():
        sigma = _ints(key.split())
        ix = _ints(ix)
        if any(b <= a + 1 for a, b in zip(ix, ix[1:])):
            return False, f"{sigma}: indices not separated"
        if seqpat.pattern_of(seqpat.subsequence(s, ix)) != sigma:
            return False, f"{sigma}: pattern mismatch"
    return True, f"{len(doc['witnesses'])} separated realizations check out"


def _validate_rainbow_violation(doc):
    c = build_colouring(doc["colouring"])
    ts = _ints(doc["violating_set"])
    p = int(doc["p"])
    import itertools as it

    seen = {c.colour(e) for e in it.combinations(sorted(ts), c.uniformity)}
    if len(seen) >= p:
        return False, f"set spans {len(seen)} >= {p} colours"
    return True, f"violating set spans {len(seen)} < {p} colours"


def _validate_p_colours(doc):
    c = build_colouring(doc["colouring"])
    vs = set(_ints(doc["vertices"]))
    seen = set()
    for item in doc["edges"]:
        e = _ints(item["edge"])
        if not set(e) <= vs:
            return False, f"edge {e} leaves the vertex set"
        col = c.colour(e)
        if stepup.colour_str(col) != item["colour"]:
            return False, f"edge {e} re-evaluates to {stepup.colour_str(col)}"
        seen.add(col)
    if len(seen) != len(doc["edges"]):
        return False, "colours are not pairwise distinct"
    return True, f"{len(seen)} pairwise distinct colours check out"


def _validate_embedding_doc(doc):
    c = build_colouring(doc["colouring"])
    body = _ints(doc["body"])
    edges = tuple(
        (_ints(item["subset"]), _ints(item["private"])) for item in doc["edges"]
    )
    cols = {item["colour"] for item in doc["edges"]}
    if len(cols) != 1:
        return False, "edges are not monochromatic in the file"
    emb = hedgehog.HedgehogEmbedding(
        body=body,
        edges=edges,
        colour=stepup.parse_colour(next(iter(cols))),
        stats={},
    )
    if not hedgehog.validate_embedding(emb, c, len(body)):
        return False, "embedding fails re-validation"
    return True, "monochromatic embedding checks out"
