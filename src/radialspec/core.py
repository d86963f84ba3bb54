"""Shared value types: extension specs, exponential sums, radial functions, jets.

Every closed-form object in the library is a finite sum of exponentials
``sum_k a_k exp(chi_k r)`` with the Rayleigh operator of order l applied on
top.  These types are immutable: their fields never change, and equality,
hash and repr read the fields alone.  A RadialFunction also keeps a private
evaluation set-up (its regularity flag, and what ``rayleigh`` builds on first
use); each part is written once, deterministically, from the fields, so an
instance stays safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvalidSpec

VALID_L = (1, 2)
VALID_XI = (1, 2)

# Power of kappa in each family's closed forms, keyed by (xi, l): in the
# boundary condition kappa parametrizes and in the resolvent denominator p(z).
KAPPA_POWER = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 5}

# Tolerances fixed at construction time.
RATE_MERGE_RTOL = 1e-14
REGULARITY_TOL = 1e-12


def _phase(x: float) -> complex:
    """e^{i pi x}, the unit phase every closed form is written in."""
    return complex(np.exp(1j * np.pi * x))


@dataclass(frozen=True)
class Kappa:
    """Extension parameter as a projective pair; den == 0 encodes +infinity."""

    num: float
    den: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.num) and math.isfinite(self.den)):
            raise InvalidSpec(f"kappa pair ({self.num}, {self.den}) is not finite")
        if self.num == 0.0 and self.den == 0.0:
            raise InvalidSpec("kappa pair (0, 0) is not a projective point")

    @classmethod
    def of(cls, value) -> "Kappa":
        if isinstance(value, Kappa):
            return value.canonical()
        if isinstance(value, str) and value.strip().lower() in ("inf", "+inf", "infinity"):
            return cls(1.0, 0.0)
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise InvalidSpec(f"kappa must be a real number or 'inf', not {value!r}") from None
        if math.isinf(value):
            return cls(1.0, 0.0)
        return cls(value, 1.0)

    def canonical(self) -> "Kappa":
        if self.den == 0.0:
            return Kappa(1.0, 0.0)
        return Kappa(self.num / self.den, 1.0)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0.0

    @property
    def value(self) -> float:
        return math.inf if self.is_infinite else self.num / self.den

    def __float__(self) -> float:
        return self.value

    def __repr__(self):
        return "Kappa(inf)" if self.is_infinite else f"Kappa({self.value!r})"


@dataclass(frozen=True)
class ExtensionSpec:
    """One self-adjoint extension: angular momentum l, boundary family xi, kappa."""

    l: int
    xi: int
    kappa: Kappa

    @property
    def big_l(self) -> int:
        """l(l+1), the centrifugal coefficient."""
        return self.l * (self.l + 1)

    def __repr__(self):
        k = "inf" if self.kappa.is_infinite else repr(self.kappa.value)
        return f"ExtensionSpec(l={self.l}, xi={self.xi}, kappa={k})"


def make_extension_spec(l: int, xi: int, kappa) -> ExtensionSpec:
    """Validate and build an ExtensionSpec; kappa may be a float, 'inf', or Kappa."""
    if l not in VALID_L:
        raise InvalidSpec(f"l={l} not supported (only l=1,2 admit these extensions)")
    if xi not in VALID_XI:
        raise InvalidSpec(f"xi={xi} out of range (must be 1 or 2)")
    k = Kappa.of(kappa)
    if k.is_infinite and l != 2:
        raise InvalidSpec("kappa=inf is only meaningful for l=2")
    return ExtensionSpec(l, xi, k)


def _merge_rates(amplitudes, rates):
    """Merge terms whose rates coincide to relative tolerance RATE_MERGE_RTOL."""
    amplitudes = np.asarray(amplitudes, np.complex128)
    rates = np.asarray(rates, np.complex128)
    scale = np.max(np.abs(rates)) if rates.size else 0.0
    out_a, out_r = [], []
    for a, chi in zip(amplitudes, rates):
        for i, r0 in enumerate(out_r):
            if abs(chi - r0) <= RATE_MERGE_RTOL * max(scale, 1e-300):
                out_a[i] += a
                break
        else:
            out_a.append(a)
            out_r.append(chi)
    return np.array(out_a, np.complex128), np.array(out_r, np.complex128)


@dataclass(frozen=True)
class ExponentialSum:
    """Finite sum  sum_k amplitudes[k] * exp(rates[k] * r)  with distinct rates."""

    amplitudes: np.ndarray
    rates: np.ndarray

    def __init__(self, amplitudes, rates):
        a = np.atleast_1d(np.asarray(amplitudes, np.complex128))
        r = np.atleast_1d(np.asarray(rates, np.complex128))
        if a.size == 0 or r.size == 0:
            raise InvalidInput("exponential sum must have at least one term")
        if a.shape != r.shape:
            raise InvalidInput("amplitudes and rates must have equal length")
        a, r = _merge_rates(a, r)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "rates", r)
        self.amplitudes.setflags(write=False)
        self.rates.setflags(write=False)

    @property
    def amplitude_sum(self) -> complex:
        return complex(np.sum(self.amplitudes))

    def is_regular(self, tol: float = REGULARITY_TOL) -> bool:
        return check_regularity(self, tol)

    def __len__(self):
        return self.amplitudes.size


def check_regularity(s: ExponentialSum, tol: float = REGULARITY_TOL) -> bool:
    """True iff the amplitudes cancel: |sum a_k| <= tol * sum |a_k|."""
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    total = abs(np.sum(s.amplitudes))
    scale = float(np.sum(np.abs(s.amplitudes)))
    if scale == 0.0:
        return True
    return total <= tol * scale


@dataclass(frozen=True)
class RadialFunction:
    """The Rayleigh operator of order l applied to ``scale * base``."""

    base: ExponentialSum
    l: int
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.l not in VALID_L:
            raise InvalidSpec(f"l={self.l} not supported")
        object.__setattr__(self, "scale", complex(self.scale))

    @cached_property
    def regular_at_origin(self) -> bool:
        return self.base.is_regular()

    def rescaled(self, factor: complex) -> "RadialFunction":
        return RadialFunction(self.base, self.l, self.scale * factor)

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if self.l != other.l:
            raise InvalidInput("cannot add radial functions of different l")
        base = ExponentialSum(
            np.concatenate(
                [self.scale * self.base.amplitudes, other.scale * other.base.amplitudes]
            ),
            np.concatenate([self.base.rates, other.base.rates]),
        )
        return RadialFunction(base, self.l, 1.0)

    def __mul__(self, factor) -> "RadialFunction":
        return self.rescaled(factor)

    __rmul__ = __mul__


def radial_function(amplitudes, rates, l, scale=1.0) -> RadialFunction:
    return RadialFunction(ExponentialSum(amplitudes, rates), l, scale)


@dataclass(frozen=True)
class Jet6:
    """Derivatives of order 0..5 at the origin."""

    d: np.ndarray = field(default_factory=lambda: np.zeros(6, np.complex128))

    def __init__(self, d):
        arr = np.asarray(d, np.complex128)
        if arr.shape != (6,):
            raise InvalidInput("a jet has exactly six entries (orders 0..5)")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("jet entries must be finite")
        object.__setattr__(self, "d", arr)
        self.d.setflags(write=False)

    def __getitem__(self, j):
        return self.d[j]

    @property
    def magnitude(self) -> float:
        return float(np.max(np.abs(self.d)))
