"""Continuous functions on Z_p through truncated binomial-basis expansions.

Functions enter as sample vectors at z = 0..L-1; coefficients come out by
finite differences at 0, which only ever touch f(0..m).  Values are PAdicNum
or LambdaElt; everything here is generic over the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .padic_core import PadicError


class NotEnoughSamples(PadicError):
    pass


@dataclass(frozen=True)
class SampleVector:
    """Values f(0), f(1), ..., f(L-1)."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class MahlerFn:
    """f(z) = sum_{n < len(coeffs)} coeffs[n] * C(z, n); truncation explicit."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


def mahler_from_samples(s: SampleVector, count: int) -> MahlerFn:
    """Coefficients a_m = m-th forward difference of f at 0, m < count."""
    if len(s) < count:
        raise NotEnoughSamples(f"need {count} samples, have {len(s)}")
    row = list(s.values[:count])
    coeffs = []
    for m in range(count):
        coeffs.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return MahlerFn(tuple(coeffs))


def evaluate(f: MahlerFn, z: int):
    """f(z) with exact integer binomials; z a nonnegative integer."""
    if not f.coeffs:
        raise NotEnoughSamples("empty basis")
    acc = None
    for n, a in enumerate(f.coeffs):
        term = math.comb(z, n) * a
        acc = term if acc is None else acc + term
    return acc
