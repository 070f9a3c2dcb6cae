"""Exception types shared across the package."""


class CoxSubError(Exception):
    """Base class for all coxsub errors."""


class CsvError(CoxSubError):
    """Malformed input file: missing column, bad cell, invalid value.

    ``row`` is the 1-based data-row number (header excluded) when the
    problem is tied to a specific record, else None.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class NumericsError(CoxSubError):
    """Numerical failure: exp overflow, empty/underflowed risk set."""


class SingularHessianError(NumericsError):
    """Curvature matrix not positive definite (collinear or separated data).

    Carries the condition number of the offending matrix, and the smallest
    eigenvalue of the matrix judged with the floor it was held to, when
    available.
    """

    def __init__(self, message, cond=None, smallest_eigenvalue=None, floor=None):
        details = []
        if smallest_eigenvalue is not None:
            details.append(f"smallest eigenvalue {smallest_eigenvalue:.3e} against a floor of {floor:.3e}")
        if cond is not None:
            details.append(f"condition number ~ {cond:.3e}")
        if details:
            message = f"{message} ({'; '.join(details)})"
        super().__init__(message)
        self.cond = cond
        self.smallest_eigenvalue = smallest_eigenvalue
        self.floor = floor


class PilotError(CoxSubError):
    """The pilot subsample cannot support estimation (e.g. has no events)."""


class CalibrationError(CoxSubError):
    """Censoring-bound search could not bracket the target rate."""


class TwoStepError(CoxSubError):
    """Failure inside the two-step procedure, labelled with the phase."""

    def __init__(self, phase, message):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase
