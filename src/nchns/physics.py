"""Constitutive laws, the hypothesis constants and the chemical potential.

The regular double-well potential and the bounded smooth viscosity profile
are the two material laws, each with the derivatives that the tangent and
adjoint solvers use.  ``HypothesisConstants`` holds the constants of the
growth/coercivity conditions on the potential.  Callers scale the kernel
with ``make_kernel(..., auto_scale_target=scale + c1)`` so that
a + F'' >= c1, which the adjoint checks on the state at every step; the test
suite samples the other conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField
from .kernels import Kernel, convolve


@dataclass(frozen=True)
class DoubleWell:
    """Quartic double well F(s) = (scale/4)(s^2 - 1)^2 + offset, C^infinity.

    F'(s) is evaluated in the factored form s (s - 1)(s + 1): it avoids a
    ``pow`` call per element, and near the wells s = +-1 the factor s -+ 1
    is exact (Sterbenz), so F' keeps its relative accuracy there, where
    s^3 - s and s (s^2 - 1) cancel catastrophically.
    """

    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("double-well scale must be positive")

    def f(self, s):
        return 0.25 * self.scale * (s ** 2 - 1.0) ** 2 + self.offset

    def df(self, s):
        return self.scale * s * (s - 1.0) * (s + 1.0)

    def d2f(self, s):
        return self.scale * (3.0 * s ** 2 - 1.0)


@dataclass(frozen=True)
class Viscosity:
    """Concentration-dependent viscosity nu(s) = mean + modulation * tanh(s).

    ``nu_min``/``nu_max`` are the certified global bounds; construction fails
    if the profile can escape them.
    """

    mean: float = 1.0
    modulation: float = 0.5
    nu_min: float = 0.4
    nu_max: float = 1.6

    def __post_init__(self):
        if self.nu_min <= 0:
            raise ValueError("lower viscosity bound must be positive")
        if self.mean - abs(self.modulation) < self.nu_min:
            raise ValueError(
                f"viscosity can drop to {self.mean - abs(self.modulation):g}, "
                f"below the declared bound {self.nu_min:g}")
        if self.mean + abs(self.modulation) > self.nu_max:
            raise ValueError(
                f"viscosity can reach {self.mean + abs(self.modulation):g}, "
                f"above the declared bound {self.nu_max:g}")

    def nu(self, s):
        return self.mean + self.modulation * np.tanh(s)

    def dnu(self, s):
        return self.modulation / np.cosh(s) ** 2


@dataclass(frozen=True)
class HypothesisConstants:
    """Constants entering the growth/coercivity conditions on the potential.

    c1: lower bound for F''(s) + a(x); c2, c3, p: polynomial growth floor
    F'' + a >= c2 |s|^{p-2} - c3; c4, c5, r: |F'|^r <= c4 |F| + c5.
    """

    c1: float = 0.1
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 5.0
    c5: float = 1.0
    p: float = 4.0
    r: float = 4.0 / 3.0

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3, self.c4) <= 0 or self.c5 < 0:
            raise ValueError("hypothesis constants must be positive (c5 >= 0)")
        if self.p <= 2:
            raise ValueError("growth exponent p must exceed 2")
        if not (1.0 < self.r <= 2.0):
            raise ValueError("exponent r must lie in (1, 2]")


def chemical_potential(phi: ScalarField, kernel: Kernel,
                       potential: DoubleWell) -> ScalarField:
    """mu = a * phi - K * phi + F'(phi), pointwise at cell centers."""
    a = kernel.mass_field.values
    values = a * phi.values - convolve(kernel, phi).values + potential.df(phi.values)
    return ScalarField(phi.grid, values)
