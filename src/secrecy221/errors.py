"""Exception hierarchy for the secrecy221 library.

Every error the library raises deliberately derives from SecrecyError so the
CLI can turn any of them into a structured error report instead of a
traceback.
"""


class SecrecyError(Exception):
    """Base class for all library errors."""


# --- small linear algebra ---------------------------------------------------

class MatrixError(SecrecyError):
    """Base class for matrix kernel failures."""


class SingularMatrix(MatrixError):
    """Determinant too small relative to the matrix scale to invert."""


class NoiseDegenerate(MatrixError):
    """Noise cross-correlation has norm at (or beyond) one."""


# --- channel validation and rank --------------------------------------------

class ChannelError(SecrecyError):
    """Base class for channel-level failures."""


class RankDeficient(ChannelError):
    """An operation requiring a full-rank main channel got a singular one."""


class InvalidCovariance(ChannelError):
    """Transmit covariance violates its constraints."""


class NotPSD(InvalidCovariance):
    """Covariance has a substantially negative eigenvalue."""


class PowerExceeded(InvalidCovariance):
    """Covariance trace exceeds the power budget."""


# --- converse construction ---------------------------------------------------

class ConverseError(SecrecyError):
    """Base class for upper-bound construction failures."""


class DegenerateDirection(ConverseError):
    """The optimizing alpha is unbounded for this direction."""


# --- generic -----------------------------------------------------------------

class PreconditionFailed(SecrecyError):
    """A documented operation precondition does not hold."""


class InvariantViolated(SecrecyError):
    """An identity the construction guarantees failed numerically; this
    signals an implementation bug or a severely ill-conditioned input,
    never a valid outcome."""


class ChannelSpecError(SecrecyError):
    """A channel spec file failed to parse or validate."""
