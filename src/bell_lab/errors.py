"""Exception types shared across the package."""


class NumericalCheckError(Exception):
    """An internal numerical consistency check failed (should never happen)."""


class UndefinedCorrelationError(ValueError):
    """A correlation was requested where the coincidence probabilities sum to zero or a subnormal."""


class NodeSingularityError(Exception):
    """The wavefunction density fell below the node threshold.

    Bohmian velocities diverge at nodes; rather than extrapolate we refuse
    to evaluate.  When raised during trajectory integration the steps
    completed so far are attached as ``partial_trajectory``.
    """

    def __init__(self, message, partial_trajectory=None):
        super().__init__(message)
        self.partial_trajectory = partial_trajectory
