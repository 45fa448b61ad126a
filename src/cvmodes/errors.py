"""Exception hierarchy for the cvmodes package.

Errors on input and numerics derive from :class:`CVModesError`, but bad
arguments to ``ModeLabel``, ``QPlateSpec`` and ``opo_source``, and an empty
``ModeRegister``, raise ``ValueError``, which the file and config readers and
``run_pipeline`` wrap.  Each class carries the process exit code the CLI
returns for it in ``exit_code``: 2 for bad input (the default), 3 for a
failed pipeline step, 4 for a numerical failure.

The number rule.  A number is a float or any other ``numbers.Real`` but a
bool, so a Python or numpy float or integer; a bool, a string (even
``"1.5"``), None, a list, an array (even a 0-d one), a complex number and
an integer too large for a float are not.  An array of numbers is a
number, an array of integer or float dtype or of objects that are
numbers, or lists and tuples of these nested to any depth that numpy can
stack; a bool or string array, or a list holding a bool, is not.
What breaks the rule raises:

- ``DimensionMismatch`` from the API where it takes an array of numbers
  (a mean, a covariance, a transform matrix, angles, a spectrum), and for
  the ``a``, ``b``, ``c1``, ``c2`` of ``standard_form_matrix`` and
  ``make_standard_form``;
- ``ParseError`` from a file, for each number and array of numbers of a
  state or config file, and for the ``band`` of the four deciders,
  ``run_pipeline`` and ``reproduce_paper`` and the ``delta`` and ``q`` of
  ``distribution_config``;
- ``ValueError`` for ``opo_source`` (``r``, ``eta``) and ``QPlateSpec``
  (``q``, ``delta``).

A message shows the refused value, but an integer of over 4,300 digits,
which Python refuses to print, as ``<int too long to print>``.

``emit_report`` raises ParseError for a report that is not an
``EntanglementReport`` and for an unknown format.
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
    """A register does not fit where it is used.

    A state register differs from the transform's input register, the
    register of a state, transform or q-plate is not a ``ModeRegister``,
    or a register mode (an embedded vacuum label, say) is not a
    ``ModeLabel``.
    """


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
