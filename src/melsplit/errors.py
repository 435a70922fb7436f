"""The base class of the package's numerical failures.

A quadrature that cannot reach its tolerance, an integration run that fails
part-way and a Newton iteration that does not converge each subclass
``NumericalFailure``, so that the command line maps all three to exit 2
without importing the modules that raise them.
"""


class NumericalFailure(RuntimeError):
    """A computation that stopped short of a result it could vouch for."""
