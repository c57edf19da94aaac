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

import itertools
import json

from .errors import ParameterError
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
            str(k): _stringify(v, keep_ints=(k == "schema"))
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_stringify(v) for v in obj)
    return obj


def encode_report(report: dict) -> str:
    """Serialize a report dict: schema stays an integer, every other
    integer becomes a decimal string."""
    body = dict(report)
    body.setdefault("schema", SCHEMA)
    return json.dumps(_stringify(body), indent=2, sort_keys=True) + "\n"


def render_text(report: dict) -> str:
    """Plain-text rendering of a report for terminal use."""
    lines = []

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
        emit(k, v, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Colouring specs: a JSON-able description sufficient to rebuild a colouring
# ---------------------------------------------------------------------------

def colouring_spec(c) -> dict:
    if isinstance(c, hedgehog.BurrErdosHost):
        return {"type": "burr-erdos-host", "n": c.n}
    if isinstance(c, stepup.TabulatedColouring):
        if c.seed is not None:
            return {
                "type": "random",
                "k": c.uniformity,
                "n": c.num_vertices,
                "q": c.budget,
                "seed": c.seed,
            }
        return {"type": "tabulated", "data": stepup.format_tabulated(c)}
    if c.step is None:
        raise ParameterError(f"cannot describe colouring kind {c.kind!r}")
    spec = colouring_spec(c.base)
    steps = spec.pop("steps", [])
    steps.append(list(c.step))
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
        steps = [(name, int(k), int(p)) for name, k, p in spec["steps"]]
        return stepup.tower_compose(build_colouring(spec["base"]), steps)
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
    if kind == "embedding":
        return _validate_embedding_doc(doc)
    return False, f"unknown witness_kind {kind!r}"


def _validate_sequence_witness(doc):
    s = _ints(doc["sequence"])
    ix = _ints(doc["indices"])
    tag = doc["kind"]
    left, right = _ints(doc["left"]), _ints(doc["right"])
    # --left and --right split on commas and whitespace, as the CLI splits them
    configured = [_ints(doc["config"][side].replace(",", " ").split())
                  for side in ("left", "right")]
    if [left, right] != configured:
        return False, "stored left and right are not the configured ones"
    problem = seqpat.check_sequence_witness(s, tag, ix, left, right)
    if problem is not None:
        return False, problem
    if seqpat.subsequence(s, ix) != _ints(doc["values"]):
        return False, "stored values do not match the sequence"
    if tag == "homogeneous":
        return True, "homogeneous max-induced witness checks out"
    return True, f"max-induced copy of {tag} checks out"


def _validate_separated(doc):
    s = _ints(doc["sequence"])
    if not doc["witnesses"]:
        return False, "no separated realizations to check"
    for key, ix in doc["witnesses"].items():
        sigma = _ints(key.split())
        if sorted(sigma) != list(range(1, len(sigma) + 1)):
            return False, f"key {key!r} is not a permutation"
        ix = _ints(ix)
        if any(b <= a + 1 for a, b in zip(ix, ix[1:])):
            return False, f"{sigma}: indices not separated"
        if seqpat.pattern_of(seqpat.subsequence(s, ix)) != sigma:
            return False, f"{sigma}: pattern mismatch"
    return True, f"{len(doc['witnesses'])} separated realizations check out"


def _validate_rainbow_violation(doc):
    c = build_colouring(doc["colouring"])
    ts = sorted(_ints(doc["violating_set"]))
    p = int(doc["p"])
    t = int(doc["config"]["t"])
    if p != int(doc["config"]["p"]):
        return False, f"p = {p} is not the configured p = {doc['config']['p']}"
    if len(set(ts)) != len(ts):
        return False, "violating set repeats a vertex"
    if len(ts) != t:
        return False, f"violating set has {len(ts)} distinct vertices, not t = {t}"
    seen = {c.colour(e) for e in itertools.combinations(ts, c.uniformity)}
    if len(seen) >= p:
        return False, f"set spans {len(seen)} >= {p} colours"
    if list(doc["violating_colours"]) != [stepup.colour_str(x) for x in sorted(seen)]:
        return False, "stored colours do not match the re-coloured set"
    return True, f"violating set spans {len(seen)} < {p} colours"


def _validate_embedding_doc(doc):
    c = build_colouring(doc["colouring"])
    body = _ints(doc["body"])
    edges = tuple(
        (_ints(item["subset"]), _ints(item["private"])) for item in doc["edges"]
    )
    cols = {item["colour"] for item in doc["edges"]}
    if len(cols) != 1:
        return False, "edges are not monochromatic in the file"
    if "colour" in doc and doc["colour"] not in cols:
        return False, "stored colour is not the edges' colour"
    emb = hedgehog.HedgehogEmbedding(
        body=body,
        edges=edges,
        colour=stepup.parse_colour(next(iter(cols))),
    )
    if not hedgehog.validate_embedding(emb, c, int(doc["config"]["t"])):
        return False, "embedding fails re-validation"
    return True, "monochromatic embedding checks out"
