"""Shared exception and warning types."""


class InfeasibleRateError(ValueError):
    """The target secrecy rate cannot be met even with all power on the signal.

    Carries the normalized shortfall in ``deficit`` (how far the required SNR
    exceeds what the array can deliver, as a fraction of the available SNR).
    For multiuser scenarios ``mu_sor_boundary`` sets ``user_index`` to the
    user that failed; it is None otherwise.
    """

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit
        self.user_index = None


class DegenerateArrayError(ValueError):
    """The array geometry or alignment leaves the requested operation undefined
    (e.g. perfectly aligned eavesdropper, or too few side lobes to select)."""


class ResolutionWarning(UserWarning):
    """A grid is too coarse for the requested quadrature to be trustworthy."""
