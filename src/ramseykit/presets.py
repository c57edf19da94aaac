"""Presets: the paper's composition recipes, run end to end at desk scale.

Each recipe adds one provenance dict per stage to its report, in the order
the stages ran.  The layers are called through their module attributes, so
a function rebound on its module (a test double, a tracing wrapper) is the
one a recipe runs.
"""

from __future__ import annotations

import random

from .errors import DEFAULT_BUDGET, IncompleteSearchError, ParameterError, charge
from . import hedgehog, rainbow, report, stepup


def run_preset(name, seed, samples, budget=DEFAULT_BUDGET):
    """Run the preset ``name``: ``(doc, passed)``, where ``doc`` is
    ``{"stages": [...], "colouring": spec}`` and ``spec`` describes the
    colouring built last.  ``passed`` is False only for a verified
    failure; a base search out of attempts raises IncompleteSearchError."""
    if name not in RECIPES:
        raise ParameterError(f"unknown preset {name!r}; choose from {sorted(RECIPES)}")
    if samples < 1:
        raise ParameterError(f"--samples must be positive, got {samples}")
    stages, colouring, passed = RECIPES[name](seed, samples, budget)
    return {"stages": stages, "colouring": report.colouring_spec(colouring)}, passed


def _random_base(k, n, q, t, p, seed, budget):
    """A (t;q,p)-rainbow random base of K_n^(k), its exhaustive report and
    its ``random base`` stage, or IncompleteSearchError."""
    got = rainbow.search_random_rainbow(k, n, q, t, p, max_attempts=300,
                                        seed=seed, budget=budget)
    if got is None:
        raise IncompleteSearchError("random base not found", stage="base")
    base, base_report, attempts = got
    subsets = "pairs" if k == 2 else f"{k}-subsets"
    return base, base_report, {
        "stage": "random base", "attempts": attempts,
        "description": f"({t};{q},{p})-rainbow colouring of the {subsets} of 1..{n}",
    }


def _shape(c):
    return {"budget": c.budget, "universe": c.num_vertices, "uniformity": c.uniformity}


def _witness_stage(name, c, sets, seed, budget):
    """Sample 40-vertex subsets and hunt forced-colour witnesses in each.

    Before drawing, the budget is charged the edges one witness
    re-colours, ``c.forced_colours``, per sampled set; more than
    ``budget`` raises BudgetExceededError."""
    work = sets * c.forced_colours
    charge(work, budget, f"{sets} sampled witnesses re-colour up to {work} edges")
    rng = random.Random(seed)
    outcomes = {"p-colours": 0, "branch": 0}
    examples = []
    for i in range(sets):
        vs = stepup._sample_set(rng, c.num_vertices, 40)
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
    return {"stage": name, "outcomes": outcomes, "example": examples}


def _lift(k, n, q, t, p, to, embeddings, seed, budget):
    """Search a random base, lift it to ``to``-sets and certify the spread:
    the base stage, the lifted colouring and the spread stage."""
    base, base_report, found = _random_base(k, n, q, t, p, seed, budget)
    lifted = hedgehog.lift_colouring(base, to)
    spread = hedgehog.verify_hedgehog_spread(
        lifted, t, 1, base_report=base_report, embeddings=embeddings,
        seed=seed, budget=budget,
    )
    stage = {"stage": "spread certification", "bodies": spread.bodies_checked,
             "min_base_span": spread.min_base_span}
    if embeddings:
        stage["embeddings"] = spread.embeddings_checked
        stage["min_lifted_span"] = spread.min_lifted_span
    stage["passed"] = spread.passed
    return found, lifted, stage


def _five_colours(seed, samples, budget):
    """One +1 doubling step over a random 3-uniform base, forcing 5 colours."""
    base, _, found = _random_base(3, 8, 5, 6, 5, seed, budget)
    stepped = stepup.step_up_1(base, stepup.partition_patterns(3, 5))
    stages = [
        {"stage": "random base", "description": "search a " + found["description"],
         "attempts": found["attempts"]},
        {"stage": "plus-one step",
         "description": "pattern classes of length 3 split into 5 classes; "
         "budget 2q+p-2", **_shape(stepped)},
        _witness_stage("sampled witnesses", stepped, samples, seed, budget),
    ]
    return stages, stepped, True


def _three_three(seed, samples, budget):
    """Colour-preserving doubling keeps 3 colours while the uniformity grows."""
    base, _, found = _random_base(3, 8, 3, 6, 3, seed, budget)
    stepped = stepup.step_up_1b(base, stepup.partition_patterns(3, 5))
    stages = [
        found,
        {"stage": "colour-preserving plus-one step", **_shape(stepped),
         "description": "class colours aliased onto the first p-2 base colours"},
        _witness_stage("sampled witnesses (forcing p-2 colours)", stepped,
                       samples, seed, budget),
    ]
    return stages, stepped, True


def _hedgehog_lower(seed, samples, budget):
    """Degenerate doubling schedule: lifting a pair colouring to triples."""
    found, lifted, spread = _lift(2, 10, 16, 4, 4, 3, samples, seed, budget)
    stages = [
        found,
        {"stage": "lift to triples (zero doubling steps)",
         "set_size": lifted.p, "budget": lifted.budget},
        spread,
    ]
    return stages, lifted, spread["passed"]


def _lemma_k5_13(seed, samples, budget):
    """Zero plus-one steps from uniformity 4, then lifting to uniformity 5."""
    q = 14
    found, lifted, spread = _lift(4, 8, q, 6, 6, 5, 0, seed, budget)
    found["description"] += "; 14 colours match the length-4 Catalan bound"
    stages = [
        found,
        {"stage": "plus-one steps", "count": 0,
         "budget_rule": "each step would turn budget q into 2q+p-2",
         "budgets": [q]},
        {"stage": "lift to uniformity 5", "set_size": lifted.p, "budget": lifted.budget,
         "budget_rule": "C(q, C(k,s)) sets of base colours"},
        spread,
    ]
    return stages, lifted, spread["passed"]


RECIPES = {
    "cor-five-colours": _five_colours,
    "cor-three-three": _three_three,
    "hedgehog-lower": _hedgehog_lower,
    "lemma-k5-13": _lemma_k5_13,
}
