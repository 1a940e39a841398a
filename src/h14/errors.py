"""Exception hierarchy shared by all modules, and the integer check of input
validation.

Two broad classes matter for the CLI exit-code contract: usage/config
problems (exit 2) and violated mathematical preconditions (exit 3).  A failed
verification is not an exception: the CLI prints ``RESULT fail`` and exits 1.
Any other exception, such as an ``ArithmeticError`` from a failed internal
consistency check, is reported as an internal error (exit 4).
"""


def is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``: booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_vector(values, what) -> tuple:
    """``tuple(values)``, or a ``ValidationError`` naming ``what`` if an entry
    fails :func:`is_int` (no truncation of floats, no booleans)."""
    vec = tuple(values)
    for x in vec:
        if not is_int(x):
            raise ValidationError(f"{what} entries must be integers, got {x!r}")
    return vec


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(ToolkitError):
    """Caller passed malformed or inconsistent input."""


class ShapeError(UsageError):
    """Matrix/vector dimensions do not match."""


class FieldMismatchError(UsageError):
    """Operands live in different coefficient fields."""


class ValidationError(UsageError):
    """Instance data violates a sign or positivity constraint."""


class GradingError(UsageError):
    """A generator is not homogeneous for the requested weights."""


class ConfigError(UsageError):
    """Config file is malformed or contains unknown keys."""


class PreconditionError(ToolkitError):
    """A mathematical precondition of the operation fails."""


class SingularMatrixError(PreconditionError):
    """Square matrix with zero determinant where invertibility is required."""


class LinealityError(PreconditionError):
    """The cone contains a line; carries one line direction."""

    def __init__(self, direction):
        self.direction = tuple(direction)
        super().__init__(f"cone is not pointed; contains the line through {self.direction}")


class IndependenceError(PreconditionError):
    """Monomials are algebraically dependent where independence is required."""


class ConditionError(PreconditionError):
    """A rational-inequality hypothesis fails (e.g. the ratio sum is >= 1)."""
