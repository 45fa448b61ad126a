"""Exception hierarchy for the cvmodes package.

Errors on input and numerics derive from :class:`CVModesError`, but bad
arguments to ``ModeLabel``, ``ModeRegister``, ``QPlateSpec`` and
``opo_source`` raise ``ValueError``, which the file and config readers and
``run_pipeline`` wrap.  Each class carries the process exit code the CLI
returns for it in ``exit_code``: 2 for bad input (the default), 3 for a
failed pipeline step, 4 for a numerical failure.
"""


class CVModesError(Exception):
    """Base class for all cvmodes errors."""

    exit_code = 2


# -- state construction / inspection ---------------------------------------

class DimensionMismatch(CVModesError):
    """Covariance matrix or mean vector does not match the register size."""


class PhysicalityViolation(CVModesError):
    """Covariance matrix violates the Heisenberg uncertainty bound.

    Carries the offending minimum eigenvalue of ``cov + (i/2) Omega`` in
    :attr:`min_eigenvalue` when known.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class IndexOutOfRange(CVModesError):
    """A mode index does not exist in the register."""


class DuplicateIndex(CVModesError):
    """A mode index was given more than once."""


class NotAPermutation(CVModesError):
    """The supplied sequence is not a permutation of the register indices."""


class NonPositiveDeterminant(CVModesError):
    """det(cov) <= 0; the matrix cannot describe a Gaussian state."""

    exit_code = 4


# -- transforms -------------------------------------------------------------

class RegisterMismatch(CVModesError):
    """State register differs from the transform's input register."""


class NonSymplectic(CVModesError):
    """Matrix fails S Omega S^T = Omega within tolerance."""

    exit_code = 4


class BadPolarization(CVModesError):
    """Mode polarization is invalid for the requested optical element."""


class DuplicateLabel(CVModesError):
    """A mode label collides with one already present in the register."""


class UnpairedMode(CVModesError):
    """A mode has no coupling partner in the register."""


class NotCircular(CVModesError):
    """Operation requires circularly polarized (L/R) modes."""


# -- numerics ----------------------------------------------------------------

class NumericalFailure(CVModesError):
    """An eigenvalue computation produced structurally invalid results."""

    exit_code = 4


# -- file formats and pipeline ----------------------------------------------

class ParseError(CVModesError):
    """A state, matrix, or config file could not be parsed."""


class ConventionMismatch(CVModesError):
    """File uses a phase-space convention this toolkit does not accept as-is."""


class PipelineStepError(CVModesError):
    """A pipeline step failed; wraps the underlying module error.

    Exits with 3, or with 4 when the cause is a numerical failure.
    """

    exit_code = 3

    def __init__(self, step_index, step_name, cause):
        super().__init__(
            f"step {step_index} ({step_name}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.step_index = step_index
        self.step_name = step_name
        self.cause = cause
        if getattr(cause, "exit_code", None) == 4:
            self.exit_code = 4
