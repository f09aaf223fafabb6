"""Exception types shared by all qcausal modules."""


class QcausalError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(QcausalError):
    """An argument violates a documented precondition."""


class NotPositiveSemidefinite(QcausalError):
    """A density matrix has an eigenvalue too negative to be numerical noise."""


class IncompleteInstrument(QcausalError):
    """Measurement operators do not satisfy the completeness relation."""


class DegenerateMeasurement(QcausalError):
    """Every measurement outcome has probability below the floor."""


class EmptyConditioner(InvalidInput):
    """The conditioning subsystem C is empty, so the conditional form is undefined.

    Raised by every empty C (a `Partition`, a time series of adjacent sites, an
    arrival scan from d = 1); an `InvalidInput`, so the CLI exits 2."""


class NumericalInstability(QcausalError):
    """A quantity violated an analytic guarantee beyond tolerance."""


class InsufficientData(QcausalError):
    """Not enough usable data points for the requested estimate."""


class DegenerateSeries(QcausalError):
    """A series cannot be quantile-binned (non-finite or otherwise ill-posed)."""
