"""Exception hierarchy shared by all modules, and the refusal rules that
every route applies to its inputs.

The split mirrors the CLI exit-code contract: parameter/configuration
problems exit 1, numerical failures exit 2.
"""

import math

# Every route refuses a plan whose memory or output could pass this many
# bytes, counted in its own byte model, before it allocates any of it.
BUDGET_BYTES = 2**30


class OptoEprError(Exception):
    """Base class for all package errors."""


class ParameterError(OptoEprError):
    """Invalid parameter value, configuration, or domain violation."""


class NumericalError(OptoEprError):
    """A numerical procedure failed to meet its contract."""


class ConvergenceError(NumericalError):
    """Root polishing or iteration did not reach the required residual."""


class InstabilityError(NumericalError):
    """The linearized drift matrix has a non-negative eigenvalue real part."""


class InvalidRegimeError(NumericalError):
    """Closed-form inference variance would be non-positive (eps <= -1/2)."""


def require_finite(**values: float) -> None:
    """Refuse the first of ``values`` that is inf or nan, by its name."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")


def _g(n: int, unit: int = 1) -> str:
    """n / unit as %.6g, also past the double range, where `Decimal`
    rounds the exact quotient to the same 6 digits.  `decimal` is imported
    there: importing the package does not load it."""
    try:
        return format(n / unit, ".6g")
    except OverflowError:
        import decimal
        six = decimal.Context(prec=6)
        return format(six.normalize(six.divide(n, unit)), "g")


def check_budget(what: str, n_bytes: int, advice: str, *counts: int) -> None:
    """Refuse a plan of ``n_bytes``, an exact int, above BUDGET_BYTES.

    ``what`` names the plan with a ``{}`` for each of ``counts``; the
    counts and the GiB print as %.6g, so a plan of any size is compared and
    reported without a float overflow or a many-digit integer."""
    if n_bytes > BUDGET_BYTES:
        raise ParameterError(
            f"{what.format(*map(_g, counts))} could need {_g(n_bytes, 2**30)} GiB, "
            f"above the {BUDGET_BYTES // 2**30} GiB budget; {advice}")
