"""Time one job's set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py <job argv as a JSON list>

Set-up is importing kgraph_lab and building the job's inputs through the
public constructors; the check or probe itself does not run.
"""

import json
import sys
import time

t0 = time.perf_counter()
from fractions import Fraction  # noqa: E402

from kgraph_lab import catalog, measures, operators  # noqa: E402


def _flag(argv, name, default=None):
    flag = "--" + name
    return argv[argv.index(flag) + 1] if flag in argv else default


def build(argv):
    command, builtin = argv[0], _flag(argv, "builtin")
    if command == "monic":
        return catalog.builtin_sbfs(builtin)
    g = catalog.builtin_graph(builtin)
    spec = _flag(argv, "measure", "pf")
    if command == "rep-verify" and _flag(argv, "rep") == "faithful":
        return operators.faithful_rep(g, depth=int(_flag(argv, "depth")))
    if spec == "pf":
        m = measures.pf_measure(g)
    elif spec.startswith("product:"):
        m = measures.product_measure(g, measures.parse_product_spec(spec[len("product:"):]))
    elif spec.startswith("markov:x="):
        m = measures.markov_measure(g, measures.t_x_matrix(Fraction(spec[len("markov:x="):])))
    else:
        raise SystemExit(f"set-up probe does not know measure {spec!r}")
    if command == "rep-verify":
        return operators.standard_rep(g, m, int(_flag(argv, "depth")))
    return m


if __name__ == "__main__":
    build(json.loads(sys.argv[1]))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
