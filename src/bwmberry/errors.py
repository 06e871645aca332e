"""Exception types raised by the bwmberry package.

Every error deliberately raised by this package derives from
:class:`BwmBerryError`, so callers can catch the whole family with one
``except`` clause while still being able to tell domain violations apart
from numerical failures.
"""


class BwmBerryError(Exception):
    """Base class for all errors raised by bwmberry."""


class InvalidParam(BwmBerryError):
    """A parameter is outside the domain of the requested construction."""


class SingularMatrix(BwmBerryError):
    """Matrix inversion was requested for a (numerically) singular matrix."""


class NotHermitian(BwmBerryError):
    """A Hermitian eigensolve was requested for a non-Hermitian matrix."""


class NoConvergence(BwmBerryError):
    """The eigensolver failed to converge."""


class PoleEncountered(BwmBerryError):
    """Relativistic velocity addition hit the pole 1 + beta^2*u*v = 0."""


class DomainError(BwmBerryError):
    """Spectral-parameter map evaluated outside its real-angle domain."""


class NonUnimodular(BwmBerryError):
    """The phase factor that should lie on the unit circle does not.

    This signals an internal inconsistency (an implementation bug or
    catastrophic loss of precision), not a bad user input.
    """


class DegenerateSpectrum(BwmBerryError):
    """Eigenvalue branches are too close to follow around the loop."""


class ConfigError(BwmBerryError):
    """Command-line / config-file input could not be parsed or validated."""
