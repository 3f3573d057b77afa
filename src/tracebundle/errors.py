"""Exception taxonomy shared by all tracebundle modules."""


class TraceBundleError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatchError(TraceBundleError):
    """Operands live on different fibers, spaces, or bundles."""


class ContractViolationError(TraceBundleError):
    """An input violates a numerical precondition (e.g. non-Hermitian input
    to a Hermitian-only kernel, degenerate trace weights)."""


class NumericalFailureError(ContractViolationError):
    """A numerical limit was hit while a check ran (e.g. an Lp norm overflowed)."""


class UsageError(TraceBundleError, ValueError):
    """Caller error: bad argument values, unknown atom labels, empty input."""


class InconsistencyError(TraceBundleError):
    """A construction failed its own consistency verification (subalgebra
    closure blow-up, filtration inclusion residual too large)."""


class UnsupportedConfigurationError(TraceBundleError):
    """The requested operation needs a configuration this package does not
    model (e.g. a martingale limit on a tower whose top level is not the
    full algebra)."""


class ConfigError(TraceBundleError):
    """Experiment config failed schema validation.

    ``problems`` is a list of ``(field_path, message)`` pairs.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(f"invalid config: {lines}")
