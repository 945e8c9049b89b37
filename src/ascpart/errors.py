"""Exception types shared across the package, and the three input guards that raise them.

`require_at_least`, `require_one_of` and `require_within` are the only place
an input rule is stated: every lower bound, set of choices and size cap in
the package goes through them, so their messages keep one format.
"""


class AscpartError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AscpartError, ValueError):
    """An argument violates a function's mathematical precondition."""


class CapacityError(AscpartError, ValueError):
    """An argument exceeds a built-in size guard."""


def require_at_least(value, bound, name="n"):
    """Raise DomainError unless ``value >= bound``."""
    if value < bound:
        raise DomainError(f"{name} must be >= {bound}, got {value}")


def require_one_of(value, choices, name):
    """Raise DomainError unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise DomainError(f"{name} must be one of {sorted(choices)}, got {value!r}")


def require_within(value, cap, guard, name="n"):
    """Raise CapacityError if ``value`` exceeds ``cap``, the ``guard`` cap."""
    if value > cap:
        raise CapacityError(f"{name}={value} exceeds the {guard} cap {cap}")
