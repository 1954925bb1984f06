"""Exception types shared across the package.

Graph validation errors carry enough structure for reports to name the
offending vertex, edge, or square.
"""


class KGraphLabError(Exception):
    """Base class for all package errors."""


class GraphValidationError(KGraphLabError):
    """A skeleton failed to define a k-graph."""


class DanglingEndpoint(GraphValidationError):
    def __init__(self, edge_id, vertex):
        self.edge_id = edge_id
        self.vertex = vertex
        super().__init__(f"edge {edge_id!r} references unknown vertex {vertex!r}")


class InvalidSquare(GraphValidationError):
    def __init__(self, square, reason):
        self.square = square
        self.reason = reason
        super().__init__(f"square {square} is malformed: {reason}")


class SquareNotBijective(GraphValidationError):
    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind  # "uncovered" or "doubly-covered"
        super().__init__(f"composable pair {pair} is {kind} by the square relation")


class CubeConditionFailed(GraphValidationError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(
            f"edge triple {triple}: the two square-reordering routes disagree"
        )


class SourceVertex(GraphValidationError):
    def __init__(self, vertex, color):
        self.vertex = vertex
        self.color = color
        super().__init__(f"vertex {vertex!r} receives no edge of color {color}")


class NotComposable(KGraphLabError):
    """Attempt to compose paths with mismatched source/range."""


class DegreeOutOfRange(KGraphLabError):
    """Requested degree is not between 0 and d(path)."""


class DegreeCapExceeded(KGraphLabError):
    """Enumeration request exceeds the configured path-length cap."""


class DepthTooSmall(KGraphLabError):
    """The requested depth cannot separate any pair of shifts."""


class InvalidPermutation(KGraphLabError):
    """Permutation input does not describe a bijection of {1..2N}."""


class NotStronglyConnected(KGraphLabError):
    """Operation requires a strongly connected graph."""

    def __init__(self, name):
        graph = f"graph {name}" if name else "the graph"
        super().__init__(
            f"{graph} is not strongly connected; "
            "this command needs a strongly connected k-graph"
        )


class NoConvergence(KGraphLabError):
    def __init__(self, iterations):
        self.iterations = iterations
        super().__init__(f"power iteration did not converge in {iterations} steps")


class AdditivityViolation(KGraphLabError):
    def __init__(self, path, residual):
        self.path = path
        self.residual = residual
        super().__init__(f"cylinder additivity fails at {path}: residual {residual}")


class UnsupportedGraphShape(KGraphLabError):
    """Measure family is only defined on specific path-space shapes."""


class GammaOutOfRange(KGraphLabError):
    """A product-measure weight left the interval (0, 1)."""


class SpecInvariantViolated(KGraphLabError):
    """A measure specification violates its declared invariants."""


class IncomparableSpecs(KGraphLabError):
    """Kakutani classification requires two specs of the same kind/shape."""


class ZeroDenominator(KGraphLabError):
    """A Radon-Nikodym quotient hit a zero-mass cylinder."""


class DegenerateMap(KGraphLabError):
    """A prefixing map has a vanishing Jacobian on a positive-measure set."""


class ParameterOutOfRange(KGraphLabError):
    """A builtin-system parameter is outside its legal range."""


class DimensionUnsupported(KGraphLabError):
    """Interval-system operation limited to one or two dimensions."""


class ZeroVertexMass(KGraphLabError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"measure vanishes on the cylinder of vertex {vertex!r}")


class NonpositiveRN(KGraphLabError):
    def __init__(self, edge_id, witness):
        self.edge_id = edge_id
        self.witness = witness
        super().__init__(
            f"Radon-Nikodym quotient of edge {edge_id!r} nonpositive at {witness}"
        )


class NonpositiveDensity(KGraphLabError):
    """Density for a measure transport must be strictly positive."""


class CocycleViolation(KGraphLabError):
    def __init__(self, lam, nu, point, residual):
        self.lam = lam
        self.nu = nu
        self.point = point
        self.residual = residual
        super().__init__(
            f"cocycle fails for ({lam}, {nu}) at {point}: residual {residual}"
        )


class UnsupportedMeasure(KGraphLabError):
    """The measure has nonconstant Radon-Nikodym data on a needed cylinder class."""


class PrefixRuleInvalid(KGraphLabError):
    """An infinite-path prefix rule fails its composability requirements."""


class NoPeriodFound(KGraphLabError):
    """Non-faithfulness witness construction needs a period candidate."""


class PeriodicOrbit(KGraphLabError):
    """Permutative decomposition requires an aperiodic orbit."""


class CoverViolation(KGraphLabError):
    """An index is missed by every K set of some degree."""


class EncodingConflict(KGraphLabError):
    """An index lies in two K sets of the same degree."""


class UsageError(KGraphLabError):
    """CLI-level misuse; maps to exit code 2."""
