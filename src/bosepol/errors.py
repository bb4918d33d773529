"""Exception hierarchy shared across the package.

Configuration / input problems are plain ``ValueError`` subclasses; anything
that goes wrong during a numerical computation derives from
``NumericalError`` so callers (and the CLI exit-code mapping) can tell the
two apart.
"""


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


class InvalidStateError(NumericalError):
    """A Gaussian state failed validation (e.g. covariance not positive definite)."""


class ChemicalPotentialError(ValueError):
    """Chemical potential NaN, or at or above the band minimum: Bose occupations undefined."""


class NotTranslationInvariantError(ValueError):
    """Covariance (or mean) is not cell-circulant within tolerance."""


class RefinementExhaustedError(NumericalError):
    """Loop refinement hit the sample cap before meeting the phase-jump tolerance."""


class NonIntegerWindingError(NumericalError):
    """Accumulated winding is not close to an integer (under-sampled loop)."""


class GapClosureError(NumericalError):
    """Band gap closed at a sampled momentum; Zak phase undefined."""


class CutoffError(NumericalError):
    """Fock-space truncation tail exceeds the accuracy budget."""
