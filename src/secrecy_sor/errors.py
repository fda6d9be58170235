"""Shared exception and warning types."""


class InfeasibleRateError(ValueError):
    """The target secrecy rate cannot be met even with all power on the signal.

    For multiuser scenarios the message starts with the user that failed
    (``"user 1: ..."``).
    """


class DegenerateArrayError(ValueError):
    """The array geometry or alignment leaves the requested operation undefined
    (e.g. perfectly aligned eavesdropper, or too few side lobes to select)."""


class ResolutionWarning(UserWarning):
    """A grid is too coarse for the requested quadrature to be trustworthy."""
