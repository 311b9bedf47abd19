"""Exception types shared across the package.

Every failure caused by bad input or an unsatisfiable request raises a
subclass of :class:`DomainError` carrying a stable machine-readable code.
The command line maps these to exit status 1; argument mistakes are left
to the argument parser and exit with status 2.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for input and domain failures raised by this package."""

    code = "domain-error"

    def to_json(self) -> dict:
        return {"type": self.code, "message": str(self)}


class LoopEdge(DomainError):
    """An edge joins a vertex to itself."""

    code = "loop-edge"


class DuplicateEdge(DomainError):
    """The same unordered vertex pair appears twice in an edge list."""

    code = "duplicate-edge"


class NonPositiveWeight(DomainError):
    """An edge weight is zero or negative; absent edges are simply omitted."""

    code = "non-positive-weight"


class Disconnected(DomainError):
    """The graph does not connect all vertices to the root."""

    code = "disconnected"


class VertexOutOfRange(DomainError):
    """A vertex label falls outside 0..n."""

    code = "vertex-out-of-range"


class VertexNotInU(DomainError):
    """The queried vertex does not belong to the given subset."""

    code = "vertex-not-in-subset"


class RootMissing(DomainError):
    """A vertex selection that must contain the root does not."""

    code = "root-missing"


class NotAPartition(DomainError):
    """Blocks fail to partition the vertex set."""

    code = "not-a-partition"


class BipartitionMissing(DomainError):
    """The operation needs a graph with designated blocks A and B."""

    code = "bipartition-missing"


class LengthMismatch(DomainError):
    """A vector's length disagrees with the structure it is checked against."""

    code = "length-mismatch"


class UNotMonotone(DomainError):
    """A threshold vector is not positive and non-decreasing."""

    code = "threshold-not-monotone"


class TooLarge(DomainError):
    """An enumeration or scan would exceed the configured size guard."""

    code = "too-large"


class NotAParkingFunction(DomainError):
    """The vector is not a parking function of the given graph."""

    code = "not-a-parking-function"


class NotInA(DomainError):
    """The orientation is not acyclic with the root as unique source."""

    code = "not-a-valid-orientation"


class NotMaximal(DomainError):
    """The vector cannot be a maximal parking function of the graph."""

    code = "not-maximal"


class InconsistentIndegrees(DomainError):
    """No orientation realizes the requested indegree targets."""

    code = "inconsistent-indegrees"


class NotMonotone(DomainError):
    """Grid entries decrease along some coordinate direction."""

    code = "grid-not-monotone"


class NegativeEntry(DomainError):
    """A grid entry is negative."""

    code = "negative-entry"


class ShapeMismatch(DomainError):
    """Dimensions of two objects (grid, pair, path, blocks) disagree."""

    code = "shape-mismatch"


class PathDoesNotBound(DomainError):
    """The lattice path does not produce the requested maximal pair."""

    code = "path-does-not-bound"


class InvalidParameters(DomainError):
    """Parameters admit no graph or grid of the requested form."""

    code = "invalid-parameters"


class NotClassified(DomainError):
    """The graph matches no case of the invariance classification."""

    code = "not-classified"
