"""Exception hierarchy shared across the package."""


class ErgodynError(Exception):
    """Base class for all errors raised by this package."""


class RefinementError(ErgodynError):
    """Integration step too coarse: conserved quantities drifted past tolerance."""


class ConfigError(ErgodynError):
    """Scenario configuration is invalid.  Carries field-level messages."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class EngineDisagreementError(ErgodynError):
    """Independent evolution engines disagree beyond tolerance.

    ``residuals`` maps an engine pair to its largest residual, ``peaks``
    the same pair to (channel, time index, time) where that residual peaks.
    """

    def __init__(self, message, residuals=None, peaks=None):
        self.residuals = dict(residuals or {})
        self.peaks = dict(peaks or {})
        super().__init__(message)
