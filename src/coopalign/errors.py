"""Exception types and the input rules that raise them."""

import numbers
import sys

import numpy as np


class CoopAlignError(Exception):
    """Base class for package errors."""


class ParameterError(CoopAlignError):
    """A scheme or config parameter is out of its admissible range."""


class SymbolRangeError(CoopAlignError):
    """A symbol or payload entry lies outside its declared alphabet."""


class GenericityError(CoopAlignError):
    """Channel gains failed the generic-position check."""


class SingularChannelError(CoopAlignError):
    """Channel matrix is (numerically) singular and cannot be inverted."""


class MLBudgetError(CoopAlignError):
    """Exhaustive detection would exceed the configured candidate budget."""


class ProtocolError(CoopAlignError):
    """A cooperation-protocol step failed; carries round/node context."""

    def __init__(self, message, round_index=None, node=None):
        self.round_index = round_index
        self.node = node
        where = []
        if round_index is not None:
            where.append(f"round {round_index}")
        if node is not None:
            where.append(f"node {node}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class ConfigError(CoopAlignError):
    """Experiment configuration failed validation."""


def require_count(**counts):
    for name, value in counts.items():
        if not (type(value) is int and value >= 1):
            raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def require_seed(value):
    if not (type(value) is int and 0 <= value < 2 ** 64):
        raise ParameterError(f"rng_seed must be a 64-bit value, got {value!r}")


def is_finite_real(x) -> bool:
    """A real, not a bool, in float range; unlike math.isfinite, never overflows."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


def require_positive_real(value, name, zero=False):
    if not (is_finite_real(value) and (value >= 0 if zero else value > 0)):
        raise ParameterError(f"{name} must be finite and >{'=' * zero} 0 (a "
                             f"real, not a bool), got {value!r}")


def require_gamma(gamma):
    if not (isinstance(gamma, numbers.Complex) and not isinstance(gamma, bool)
            and is_finite_real(gamma.real) and is_finite_real(gamma.imag)
            and gamma != 0):
        raise ParameterError(f"gamma must be a nonzero finite number, got {gamma!r}")


def require_powers(values, name, zero=False, shape=None, inf=False) -> np.ndarray:
    """values as floats, each > 0 (>= 0 with zero) and finite (or inf, with
    inf), of the given shape if one is given, or ParameterError."""
    try:
        P = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        P = np.array(np.nan)
    # nan fails the comparison, and so does -inf
    if not ((P >= 0 if zero else P > 0).all() and (inf or np.isfinite(P).all())):
        raise ParameterError(f"{name} must be {'finite and ' * (not inf)}"
                             f">{'=' * zero} 0, got {values!r}")
    if shape is not None and P.shape != shape:
        raise ParameterError(f"{name} must have shape {shape}, got {P.shape}")
    return P


def require_power_grid(values, name="P_grid") -> np.ndarray:
    P = require_powers(values, name)
    if P.ndim != 1 or P.size < 4:
        raise ParameterError(f"{name} needs at least 4 points, got shape {P.shape}")
    if not (np.diff(P) > 0).all():
        raise ParameterError(f"{name} must be strictly increasing, got {values!r}")
    return P
