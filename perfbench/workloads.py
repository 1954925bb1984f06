"""The benchmark's job matrix: workloads, their jobs and their seed variants.

A job is one kgraph-lab CLI invocation (without --out) plus what the
correctness gate expects of it.  Seed 0 is the canonical matrix.  Any
other seed redraws the rational parameters from small closed sets whose
members do the same amount of work at the same depth, so that runs on
different seeds measure the same cost:

* the lambda2N:N=2 permutation (every member checks the same CK blocks);
* the Kawamura ``a`` (denominators are powers of two, like the default 1/2);
* the signs of the product bias ``c,r`` (same magnitudes as the default);
* the Markov ``x`` (1/3 or 2/3, the same entries in the other order).

Depths are chosen so that each job takes about a second on a 2-core
host, and a run holds several samples of every job; each sample is timed
against calibrate.py next to it (see run.py).  At the depths of the
ROADMAP baseline one rep-verify job alone takes 13-20 s, so a run would
hold one or two samples of it.

Biases with other magnitudes were left out: on exonevtwoe at depth 8,
geometric:1/4,1/2 took about 25 % longer than geometric:1/2,1/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PERMS = ["2;1;4;3", "3;4;1;2", "4;3;2;1", "2;3;4;1", "1;2;3;4"]
KAWAMURA_A = ["1/2", "1/4", "3/4", "3/8", "5/8"]
PRODUCT_BIAS = ["1/2,1/2", "-1/2,1/2", "1/2,-1/2", "-1/2,-1/2"]
MARKOV_X = ["1/3", "2/3"]


@dataclass(frozen=True)
class Job:
    """One CLI job and the gate's expectations of it.

    ``kind`` is "ck", "monic" or "measure".  ``exact`` says whether the
    job's residuals are exact rationals (must be exactly 0) or floats
    (must be within ``tol``).
    """

    argv: tuple
    kind: str
    exit_code: int = 0
    verdict: str = ""
    exact: bool = False
    tol: float = 1e-10

    @property
    def label(self):
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: object  # callable(params) -> list[Job]


def _ck_jobs(p):
    star = "lambda2N:N=2"
    if p["perm"] != PERMS[0]:  # PERMS[0] is the builtin's default
        star += f",perm={p['perm']}"
    return [
        Job(("rep-verify", "--builtin", star,
             "--rep", "standard", "--measure", "pf", "--depth", "2"), "ck"),
        Job(("rep-verify", "--builtin", "ex3v8e", "--rep", "faithful",
             "--depth", "4"), "ck", exact=True),
    ]


def _monic_jobs(p):
    return [
        Job(("monic", "--builtin", f"kawamura:a={p['a']}", "--depth", "10"),
            "monic", verdict="Monic"),
        Job(("monic", "--builtin", "double-kawamura", "--depth", "5"),
            "monic", verdict="Monic"),
        # NotMonic by design: exits 1 after the invariant-atom fixpoint
        Job(("monic", "--builtin", "exonevthreeed", "--depth", "14"),
            "monic", exit_code=1, verdict="NotMonic"),
    ]


def _measure_jobs(p):
    return [
        Job(("measure", "--builtin", "exonevtwoe", "--measure",
             f"product:geometric:{p['bias']}", "--depth", "6"),
            "measure", exact=True),
        Job(("measure", "--builtin", "exonevtwoe", "--measure",
             f"markov:x={p['x']}", "--depth", "6"), "measure", exact=True),
        Job(("measure", "--builtin", "ex3v8e", "--measure", "pf",
             "--depth", "9"), "measure"),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "ck-verify",
            "CK residuals: time goes to kgraph lambda_min/factorize/compose and "
            "operators tables; intervals and sbfs stay idle",
            _ck_jobs,
        ),
        Workload(
            "monic-interval",
            "monic probe: intervals and Fraction comparisons dominate, kgraph "
            "and operators are bypassed",
            _monic_jobs,
        ),
        Workload(
            "measure-exact",
            "cylinder measures: kgraph factorize without lambda_min, Fraction "
            "products and TSV writes",
            _measure_jobs,
        ),
    ]
}


def params_for(seed):
    """Rational parameters for a seed; seed 0 gives the canonical matrix."""
    if seed == 0:
        return {"perm": PERMS[0], "a": KAWAMURA_A[0],
                "bias": PRODUCT_BIAS[0], "x": MARKOV_X[0]}
    rng = random.Random(seed)
    return {"perm": rng.choice(PERMS), "a": rng.choice(KAWAMURA_A),
            "bias": rng.choice(PRODUCT_BIAS), "x": rng.choice(MARKOV_X)}


def jobs_for(workload, seed):
    return WORKLOADS[workload].make_jobs(params_for(seed))
