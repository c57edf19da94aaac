"""Seeded job lists for the three benchmark workloads.

Every input comes from ``random.Random`` seeded with the workload name and
the ``--seed`` argument; the program under test only ever sees argv and the
input files returned beside the job list.  A job list is one *pass*; a run
repeats passes in a closed loop with a single client.

Job kinds and what the output gate knows about each:

* ``cli``      -- one ``ramseykit.cli.main(argv)`` call with ``--format json``.
* ``sweep``    -- one ``stepup.sweep_reachable_colours`` call over a full
  2^n-vertex universe (no CLI command exposes it).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("tower", "base", "hedgehog")
DEFAULT_SEED = 1
# a seed not used while tuning a change, to confirm a claim on fresh inputs
SECOND_SEED = 2

# (k, n, q, t, p) -> does a (t, p)-rainbow q-colouring of K_n^(k) exist?
ORACLE_ANSWERS = {
    (2, 5, 2, 3, 2): True,
    (2, 6, 2, 3, 2): False,
    (2, 7, 3, 4, 3): True,
    (3, 6, 2, 4, 2): True,
    (3, 7, 2, 4, 2): True,
}


@dataclass(frozen=True)
class Job:
    """One request of the closed loop.

    ``argv`` is the CLI argument list (``cli`` jobs) and ``call`` the
    library call parameters (``sweep`` jobs).  ``expect`` lists the exit
    codes that are correct answers; ``facts`` carries what the gate checks
    the report against; ``output`` names the file a ``--output`` job writes
    its report to.
    """

    kind: str
    name: str
    argv: tuple = ()
    call: tuple = ()
    expect: tuple = (0,)
    facts: dict = field(default_factory=dict)
    output: str = ""


def _cli(name, argv, expect=(0,), output="", **facts):
    argv = tuple(str(a) for a in argv) + ("--format", "json")
    if output:
        argv += ("--output", output)
    return Job("cli", name, argv=argv, expect=expect, facts=facts, output=output)


def _validate(witness):
    return _cli("validate", ["validate", "--witness", witness],
                expect=(0, 1), witness=witness)


def _schedule(k, n, q, seed, steps):
    lines = [f"base random {k} {n} {q} {seed}"]
    lines += [" ".join(str(x) for x in step) for step in steps]
    return "\n".join(lines) + "\n"


def _tabulated(rng, k, n, q, plant=None):
    """Uniform random q-colouring of the k-subsets of 1..n in the tabulated
    file format; ``plant`` is a vertex set whose edges all get colour b1."""
    lines = [f"{k} {n} {q}"]
    for e in itertools.combinations(range(1, n + 1), k):
        col = 1 + rng.randrange(q)
        if plant is not None and set(e) <= plant:
            col = 1
        lines.append(" ".join(map(str, e)) + f" b{col}")
    return "\n".join(lines) + "\n"


def _ruler(start, length):
    return [(i ^ (i + 1)).bit_length() for i in range(start, start + length)]


def _vertex_deltas(rng, width, count):
    vs = sorted(rng.sample(range(1 << width), count))
    return [(a ^ b).bit_length() for a, b in zip(vs, vs[1:])]


# ---------------------------------------------------------------------------
# tower: lazy stepped colourings over 2^n-vertex universes
# ---------------------------------------------------------------------------

def _tower(rng):
    files, jobs = {}, []
    seed = lambda: rng.randrange(10**6)

    jobs.append(Job("sweep", "sweep-up1", call=("up1", 3, 6, 3, seed(), 5)))
    jobs.append(Job("sweep", "sweep-up2", call=("up2", 3, 5, 3, seed(), 4)))

    for i in range(6):
        files[f"up1-256-{i}.txt"] = _schedule(3, 8, 3, seed(), [("up1", 3, 5)])
    for i in range(3):
        files[f"up1-16-{i}.txt"] = _schedule(3, 4, 3, seed(), [("up1", 3, 5)])
    for i in range(2):
        files[f"up2-32-{i}.txt"] = _schedule(3, 5, 3, seed(), [("up2", 3, 4)])

    # the job mix and sizes are fixed; the seed draws only the contents, so
    # the work per pass hardly depends on it
    witnesses = []
    for i in range(12):
        sched = f"up1-256-{i % 6}.txt"
        if i % 4 == 0:
            # p = 6 meets a low-span 9-set within the first few samples
            t, p, trials, out = 9, 6, 100, f"w-sampled-{i}.json"
            witnesses.append(out)
        else:
            t, p, trials, out = 7 + i % 3, 3, 200, ""
        jobs.append(_cli(
            "verify-sampled",
            ["verify", "--schedule", sched, "--t", t, "--p", p,
             "--sample", trials, "--seed", seed()],
            expect=(0, 1), output=out, t=t, p=p, trials=trials,
        ))
    for i in range(6):
        t = 6 + i % 3
        jobs.append(_cli(
            "verify-exhaustive",
            ["verify", "--schedule", f"up1-16-{i % 3}.txt", "--t", t, "--p", 3],
            expect=(0, 1), t=t, p=3, n=16,
        ))

    for i in range(3):
        jobs.append(_cli(
            "preset", ["preset", "--name", "cor-five-colours", "--seed", seed(),
                       "--samples", 40],
            samples=40,
        ))

    for i in range(4):
        if i % 2 == 0:
            seq = _ruler(rng.randrange(1 << 20), 1000)
        else:
            seq = _vertex_deltas(rng, 14, 1001)
        files[f"seq-{i}.txt"] = " ".join(map(str, seq)) + "\n"
        out = f"w-extract-{i}.json"
        jobs.append(_cli(
            "extract", ["extract", "--seq-file", f"seq-{i}.txt",
                        "--left", "2 1", "--right", "1 2"],
            output=out,
        ))
        witnesses.append(out)

    for i in range(20):
        width, count = 10 + i % 10, 60
        vs = rng.sample(range(1 << width), count)
        files[f"vertices-{i}.txt"] = f"m={width}\n" + "\n".join(map(str, vs)) + "\n"
        jobs.append(_cli("delta", ["delta", "--vertex-file", f"vertices-{i}.txt"],
                         vertices=count))

    for i in range(30):
        if i % 3 == 2:
            sched, k, n = f"up2-32-{i % 2}.txt", 6, 32
        else:
            sched, k, n = f"up1-256-{i % 6}.txt", 4, 256
        edge = sorted(rng.sample(range(1, n + 1), k))
        jobs.append(_cli(
            "stepup", ["stepup", "--schedule", sched,
                       "--edge", " ".join(map(str, edge)), "--explain"],
        ))

    rng.shuffle(jobs)
    return files, jobs + [_validate(w) for w in witnesses]


# ---------------------------------------------------------------------------
# base: explicit tabulated colourings on at most 14 vertices
# ---------------------------------------------------------------------------

def _base(rng):
    files, jobs = {}, []
    seed = lambda: rng.randrange(10**6)
    # (k, n, q, t, p) for which a uniform colouring passes with
    # overwhelming probability, so the check enumerates every t-set
    passing = ((2, 12, 3, 6, 2), (2, 14, 3, 6, 2), (2, 13, 4, 5, 2),
               (3, 10, 4, 6, 3), (3, 12, 4, 7, 3), (3, 11, 3, 6, 2))
    for i in range(36):
        k, n, q, t, p = passing[i % len(passing)]
        files[f"pass-{i}.txt"] = _tabulated(rng, k, n, q)
        jobs.append(_cli(
            "verify-exhaustive",
            ["verify", "--colouring", f"pass-{i}.txt", "--t", t, "--p", p],
            expect=(0, 1), t=t, p=p, n=n,
        ))

    witnesses = []
    for i in range(6):
        k, n, q, t = ((2, 12, 3, 6), (3, 11, 3, 6), (2, 14, 4, 5))[i % 3]
        plant = set(rng.sample(range(1, n + 1), t))
        files[f"fail-{i}.txt"] = _tabulated(rng, k, n, q, plant=plant)
        out = f"w-fail-{i}.json"
        jobs.append(_cli(
            "verify-exhaustive",
            ["verify", "--colouring", f"fail-{i}.txt", "--t", t, "--p", 2],
            expect=(1,), output=out, t=t, p=2, n=n,
        ))
        witnesses.append(out)

    files["pair.txt"] = _tabulated(rng, 3, 14, 4)
    pair = [_cli(
        f"verify-workers-{workers}",
        ["verify", "--colouring", "pair.txt", "--t", 8, "--p", 3,
         "--workers", workers],
        expect=(0, 1), t=8, p=3, n=14,
    ) for workers in (1, 2)]

    menu = ((3, 10, 3, 6, 3), (2, 12, 3, 6, 3), (2, 9, 4, 5, 4))
    for i in range(12):
        k, n, q, t, p = menu[i % len(menu)]
        jobs.append(_cli(
            "search-random",
            ["search-random", "--k", k, "--n", n, "--q", q, "--t", t, "--p", p,
             "--attempts", 100, "--seed", seed()],
            expect=(0, 1),
        ))

    for rep in range(2):
        for (k, n, q, t, p), exists in ORACLE_ANSWERS.items():
            jobs.append(_cli(
                "exact-oracle",
                ["exact-oracle", "--k", k, "--n", n, "--q", q, "--t", t, "--p", p],
                expect=(0 if exists else 1,), exists=exists,
            ))

    rng.shuffle(jobs)
    # the verify-workers pair stays adjacent so host drift hits both alike
    return files, jobs + pair + [_validate(w) for w in witnesses]


# ---------------------------------------------------------------------------
# hedgehog: the hedgehog module and the Burr-Erdos host scan only
# ---------------------------------------------------------------------------

def _hedgehog(rng):
    files, jobs = {}, []
    seed = lambda: rng.randrange(10**6)
    jobs.append(_cli("burr-erdos-export",
                     ["burr-erdos", "--n", 12, "--export", "burr-erdos-12.txt"]))
    witnesses = []
    for i in range(6):
        out = f"w-mono-{i}.json"
        jobs.append(_cli(
            "find-mono",
            ["hedgehog", "find-mono", "--random-base", 3, 81, 2, seed(), "--t", 3],
            output=out,
        ))
        witnesses.append(out)
    for i in range(4):
        jobs.append(_cli(
            "host-scan",
            ["burr-erdos", "--n", 12, "--check", "sampled", "--sample", 30000,
             "--seed", seed()],
            trials=30000,
        ))
    for i in range(40):
        size = 2 if i % 4 == 0 else 1
        subset = sorted(rng.sample(range(1, 80), size))
        jobs.append(_cli(
            "piercing",
            ["hedgehog", "piercing", "--hypergraph", "burr-erdos-12.txt",
             "--subset", " ".join(map(str, subset))],
        ))
    for i in range(6):
        jobs.append(_cli(
            "preset",
            ["preset", "--name", "hedgehog-lower", "--seed", seed(),
             "--samples", 40],
        ))
    # the export job writes the hypergraph the piercing jobs read
    head, rest = jobs[:1], jobs[1:]
    rng.shuffle(rest)
    return files, head + rest + [_validate(w) for w in witnesses]


_GENERATORS = {"tower": _tower, "base": _base, "hedgehog": _hedgehog}


def make_workload(name: str, seed: int):
    """Return ``(files, jobs)``: input file texts by name, and one pass."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return _GENERATORS[name](random.Random(f"{name}-{seed}"))
