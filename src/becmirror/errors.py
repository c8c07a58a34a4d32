"""Exception types shared by all modules, and the argument checks every
public call applies before it computes anything."""

import contextlib
import math
import numbers

import numpy as np


class BecMirrorError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BecMirrorError, ValueError):
    """An input value or configuration violates a documented precondition."""


class StabilityError(BecMirrorError, RuntimeError):
    """A steady-state quantity was requested for a non-Hurwitz drift matrix."""


class NumericalError(BecMirrorError, ArithmeticError):
    """A numerical routine failed to meet its accuracy contract."""


def shown(value) -> str:
    """``repr(value)`` for a refusal message; an int too long for Python to
    print (past ``sys.get_int_max_str_digits()``) shows as its digit count."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):  # a container of such an int
            return f"a {type(value).__name__} holding an int too long to print"
    magnitude = abs(value)
    # log10 can be off by one next to a power of ten; the powers settle it.
    digits = int(math.log10(magnitude)) + 1
    if magnitude >= 10**digits:
        digits += 1
    elif magnitude < 10 ** (digits - 1):
        digits -= 1
    return f"an int of {digits} digits"


@contextlib.contextmanager
def float_arithmetic(what: str):
    """Float arithmetic on numbers or arrays whose overflow gives inf or NaN
    without a warning; a Python division by a value that underflowed to 0,
    or a Python power that overflows, is refused."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    except (ZeroDivisionError, OverflowError):
        raise ValidationError(f"{what} out of float range") from None


def within(value, bound: str):
    """``value > 0`` for the bound ``"> 0"``, else ``value >= 0``; NaN is within neither."""
    return value > 0 if bound == "> 0" else value >= 0


def finite_real(name: str, value, bound: str | None = None):
    """``value`` if it is a finite real number within ``bound`` (``"> 0"`` or
    ``">= 0"``; none by default), else raise :class:`ValidationError`.
    Booleans, strings and ``None`` are not numbers here, and an integer past
    the float range is not finite."""
    # float and int first: they short-circuit the slower abstract-class check.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValidationError(f"{name} must be a real number, got {shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be finite, got {shown(value)}")
    if bound is not None and not within(value, bound):
        raise ValidationError(f"{name} must be {bound}, got {shown(value)}")
    return value


def bounded_integer(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer (not a boolean) from
    ``minimum`` to ``maximum``, else raise :class:`ValidationError`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum or (maximum is not None and value > maximum)):
        span = f">= {minimum}" if maximum is None else f"from {minimum} to {maximum}"
        raise ValidationError(f"{name} must be an integer {span}, got {shown(value)}")
    return int(value)


def finite_square(name: str, value, size: int | None = None, *, stack: bool = False):
    """``value`` as a float array if it is a square matrix of finite
    entries, ``size`` x ``size`` when given; with ``stack``, an (N, n, n)
    stack of them.  Else raise :class:`ValidationError`."""
    try:
        matrix = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the float range
        raise ValidationError(f"{name} must be a real matrix, got {shown(value)}") from None
    shape = matrix.shape
    if len(shape) != 2 + stack or shape[-1] != shape[-2] or size not in (None, shape[-1]):
        kind = ("a stack of {} matrices" if stack else "a {} matrix").format(
            "square" if size is None else f"{size} x {size}")
        raise ValidationError(f"{name} must be {kind}, got shape {shape}")
    if not np.isfinite(matrix).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return matrix
