"""The routes of kgraph_lab that once ran on numpy, on the cases that their
numpy references check in test_operators.py.

This module imports no numpy, so an interpreter that cannot import it runs
``results()``: masks and unit vectors, monic probe ranks, induced measure
values from a vector xi, and witness norms.
"""

import random
from fractions import Fraction

from kgraph_lab import operators
from kgraph_lab.catalog import builtin_graph, builtin_sbfs
from kgraph_lab.kgraph import deg_diag, deg_grid, deg_sub
from kgraph_lab.measures import (
    ProductMeasureSpec,
    markov_measure,
    pf_measure,
    product_measure,
    t_x_matrix,
)
from kgraph_lab.operators import (
    IntervalDiagonalRep,
    KPRep,
    induced_measure,
    monic_vector_probe,
    nonfaithful_witness,
    standard_rep,
)
from test_kgraph import random_graph

WITNESS_GRAPHS = ["ehfg", "ex3v8e", "exonevtwoe", "double-kawamura"]


def point_mass(dim):
    xi = [0.0] * dim
    xi[0] = 1.0
    return xi


def probe_cases():
    """(label, rep, level, xi): each monic probe case of the tests, then
    standard pf and KP reps of random strongly connected 2- and 3-graphs."""
    g = builtin_graph("exonevtwoe")
    for tag, m in [("pf", pf_measure(g)), ("markov", markov_measure(g, t_x_matrix(Fraction(1, 3)))),
                   ("product", product_measure(g, ProductMeasureSpec("const", c=Fraction(0))))]:
        rep = standard_rep(g, m, 3)
        for level in (1, 2, 3):
            yield f"standard exonevtwoe {tag} {level}", rep, level, None
    for name, level in [("exonevthreeed", 3), ("exonevtwoe", 4), ("ex3v8e", 3)]:
        rep = IntervalDiagonalRep(builtin_sbfs(name), level, Fraction(1, 16))
        yield f"interval {name} {level}", rep, level, None
    kp = KPRep(g, 2)
    yield "kp exonevtwoe single vector", kp, 2, point_mass(kp.block_dim((2, 2)))
    for k, depth in [(2, 2), (3, 1)]:
        for seed in (511, 512, 513, 514):  # strongly connected draws
            rg = random_graph(random.Random(seed), k)
            yield f"kp random{k}-{seed}", KPRep(rg, depth), depth, None
            yield f"standard random{k}-{seed}", standard_rep(rg, pf_measure(rg), depth), depth, None


def probe_paths(g, level):
    """The paths lam with d(lam) <= level*(1,..,1), in the probe's order."""
    return [lam for n in deg_grid(g.k, level) for lam in g.enumerate_paths(n)]


def induced_cases():
    """(label, rep, block, xi) for induced_measure from a vector."""
    g = builtin_graph("exonevtwoe")
    rep = standard_rep(g, pf_measure(g), 2)
    yield "standard exonevtwoe unit", rep, (2, 2), rep.unit_vector((2, 2))
    kp = KPRep(g, 3)
    yield "kp exonevtwoe point mass", kp, (3, 3), point_mass(kp.block_dim((3, 3)))
    sys = builtin_sbfs("ex3v8e")
    irep = IntervalDiagonalRep(sys, 3, Fraction(1, 16))
    yield "interval ex3v8e unit", irep, (3, 3), irep.unit_vector(None)


def witness_difference(g, depth, mu, nu, scale):
    """(rep, op): op is t_mu t_mu^* - scale t_nu t_mu^* on the standard pf
    rep, embedded in the deep block as nonfaithful_witness embeds it."""
    srep = standard_rep(g, pf_measure(g), depth)
    deep = deg_diag(g.k, depth)
    base = deg_sub(deep, tuple(max(b - a, 0) for a, b in zip(mu.degree, nu.degree)))

    def embedded(op):
        return op.then(srep.refinement(op.dst_key, deep))

    first, second = (embedded(operators._outer(srep, lam, mu, base)) for lam in (mu, nu))
    return srep, first.add(second.scaled(scale), sign=-1)


def outer_sum(rep, n, key):
    """The sum of (-1)^i / (i + 1) t_lam t_mu^* on block key over the pairs
    (lam, mu) of paths of degree n with one source: a nonzero operator
    whose top singular value the power iteration has to find."""
    g, total = rep.graph, None
    pairs = [(lam, mu) for lam in g.enumerate_paths(n) for mu in g.enumerate_paths(n)
             if g.s(lam) == g.s(mu)]
    for i, (lam, mu) in enumerate(pairs):
        op = operators._outer(rep, lam, mu, key).scaled((-1) ** i / (i + 1))
        total = op if total is None else total.add(op)
    return total


def difference_cases():
    """(label, rep, op): nonzero operators of rep.  The witness pairs of three builtins
    at depth 3, their difference taken with scales other than the witness's,
    and outer sums on float pf and Markov weights."""
    for name in ("ehfg", "ex3v8e", "exonevtwoe"):
        g = builtin_graph(name)
        report = nonfaithful_witness(g, pf_measure(g), 3)
        for scale in (0.5, -2.0):
            yield f"{name} {scale}", *witness_difference(g, 3, report.mu, report.nu, scale)
    g = builtin_graph("ex3v8e")
    rep = standard_rep(g, pf_measure(g), 2)
    yield "ex3v8e outer sum (1, 0)", rep, outer_sum(rep, (1, 0), (1, 1))
    yield "ex3v8e outer sum (1, 1)", rep, outer_sum(rep, (1, 1), (2, 2))
    g = builtin_graph("exonevtwoe")
    rep = standard_rep(g, markov_measure(g, t_x_matrix(Fraction(1, 3))), 2)
    yield "exonevtwoe markov outer sum (1, 1)", rep, outer_sum(rep, (1, 1), (2, 2))


def results():
    """What each route gives on each case, as JSON data."""
    probes = {}
    for label, rep, level, xi in probe_cases():
        block = deg_diag(rep.graph.k, level)
        probes[label] = {
            "unit": rep.unit_vector(block),
            "masks": [rep.pvm_mask(lam, block) for lam in probe_paths(rep.graph, level)],
            "rank": monic_vector_probe(rep, level, xi).span_dim,
        }
    induced = {}
    for label, rep, block, xi in induced_cases():
        m = induced_measure(rep, xi=xi, block=block)
        induced[label] = [m.value(lam) for lam in probe_paths(rep.graph, block[0])]
    witness = {name: nonfaithful_witness(builtin_graph(name), pf_measure(builtin_graph(name)), 4)
               .norm_standard for name in WITNESS_GRAPHS}
    norms = {label: operators._norm(op) for label, _, op in difference_cases()}
    return {"probes": probes, "induced": induced, "witness": witness, "norms": norms}
