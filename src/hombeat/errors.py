"""The numerical failures the command line reports with exit code 3.

They live apart from the numpy modules that raise them, so that the command
line can catch them without importing numpy.
"""


class QuadratureError(RuntimeError):
    """The overlap integral did not reach the requested tolerance."""


class NoSolutionError(RuntimeError):
    """No sampled frequency produced a solvable emission geometry."""
