"""Exception types shared across the package."""


class BosewitError(Exception):
    """Base class for every toolkit-specific error."""


class NonHermitianInput(BosewitError, ValueError):
    """A matrix that must be hermitian deviates beyond tolerance; like every
    other refused input it is a ValueError."""


class EigendecompositionFailure(BosewitError):
    """The eigensolver did not converge on a valid hermitian input."""


class SectorTooLarge(BosewitError):
    """A sector passes the dense-sector cap of ensemble_to_state (256 particles)."""


class WitnessError(BosewitError):
    """Base for failures tied to one specific entanglement criterion.

    Callers evaluating several witnesses catch this to keep going after a
    single criterion is infeasible on the given state.
    """


class DegenerateLocalCorrelation(WitnessError):
    """Both local correlators vanish, so the Cauchy-Schwarz ratio is 0/0."""


class OrderTooHigh(WitnessError):
    """The requested correlation order annihilates the state identically."""


class EmptyState(WitnessError):
    """The state carries no particles, so per-particle ratios are undefined."""


class ZeroMeanSpinDirection(WitnessError):
    """The mean spin has no transverse component to normalize against."""


class NonFiniteWitnessValue(WitnessError):
    """A witness evaluated to NaN or an infinity, which no bound can judge."""


class PovmError(BosewitError):
    """Base for malformed or inconsistently used measurement sets."""


class IncompletePovm(PovmError):
    """POVM elements do not sum to the identity within tolerance."""


class NegativeElement(PovmError):
    """A POVM element has an eigenvalue below the positivity tolerance."""


class UnknownLabel(PovmError):
    """An outcome label does not belong to the measurement set."""


class DimensionMismatch(PovmError):
    """Operator dimensions are incompatible with the state or each other."""


class StateSpecError(BosewitError):
    """A state-description document failed to parse or validate."""

    def __init__(self, message: str, source: str = "<string>", line: int = 0, col: int = 0):
        self.message = message
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{source}:{line}:{col}: {message}")
