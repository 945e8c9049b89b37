"""Exception types shared across the package, and the two input guards that raise them."""


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


def require_within(value, cap, guard, name="n"):
    """Raise CapacityError if ``value`` exceeds ``cap``, the ``guard`` cap."""
    if value > cap:
        raise CapacityError(f"{name}={value} exceeds the {guard} cap {cap}")
