"""Shared exception types.

Exit-code mapping used by the CLI:
  2 -> UsageError, 3 -> resource/cap errors, 1 -> check failures.
"""


class CoxkitError(Exception):
    pass


class RingParameterError(CoxkitError):
    """Scalar ring cannot represent the requested value (e.g. m does not divide N)."""


class CapError(CoxkitError):
    """A computation stepped outside the enumerated group ball."""


class ResourceError(CoxkitError):
    """An explicit element budget was exceeded during enumeration."""


class NotFinitaryError(CoxkitError):
    """The parabolic subgroup W_I is not finite (within the ball)."""


class UnsupportedBraidError(CoxkitError):
    """No generator matrix is available for this braid order m_st."""


class UnsupportedCharacteristicError(CoxkitError):
    """The scalar ring cannot be reduced to the requested characteristic."""


class NotInvertibleError(CoxkitError):
    """An element has no inverse: zero in a field, or a root supported
    inside I in Q_I."""


class UsageError(CoxkitError):
    """Bad command-line or API usage."""
