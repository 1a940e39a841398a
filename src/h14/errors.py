"""The two error classes of the package, and the integer checks of input
validation.

Each class is one exit code of the CLI: ``UsageError`` for malformed or
inconsistent input, a bad config included (exit 2), and ``PreconditionError``
for a violated mathematical precondition, such as a singular matrix or a cone
that contains a line (exit 3).  The message says which.  A failed verification
is not an exception: the CLI prints ``RESULT fail`` and exits 1.  Any other
exception, such as an ``ArithmeticError`` from a failed internal consistency
check, is reported as an internal error (exit 4).
"""


class UsageError(Exception):
    """Malformed or inconsistent input: exit 2."""


class PreconditionError(Exception):
    """A mathematical precondition of the operation fails: exit 3."""


def is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``: booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_vector(values, what) -> tuple:
    """``tuple(values)``, or a ``UsageError`` naming ``what`` if an entry
    fails :func:`is_int` (no truncation of floats, no booleans)."""
    vec = tuple(values)
    for x in vec:
        if not is_int(x):
            raise UsageError(f"{what} entries must be integers, got {x!r}")
    return vec


def check_int(value, what, low=0, high=None):
    """Raise a ``UsageError`` naming ``what`` unless ``value`` is an integer
    (see :func:`is_int`) in ``[low, high]``; ``high=None`` sets no upper end."""
    if not is_int(value) or value < low:
        kind = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        raise UsageError(f"{what} must be {kind}, got {value!r}")
    if high is not None and value > high:
        raise UsageError(f"{what} {value} exceeds the maximum {high}")
