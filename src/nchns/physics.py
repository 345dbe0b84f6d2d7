"""Constitutive laws and executable validators for the model hypotheses.

The regular double-well potential and the bounded smooth viscosity profile
are the two material laws; the validators sample the three growth/coercivity
conditions on the potential against the kernel's mass field and the bounds on
the viscosity, reporting worst-case sample points instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def d3f(self, s):
        return self.scale * 6.0 * s

    def d4f(self, s):
        return self.scale * 6.0 * np.ones_like(np.asarray(s, dtype=float))


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

    def d2nu(self, s):
        t = np.tanh(s)
        return -2.0 * self.modulation * t * (1.0 - t ** 2)


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


@dataclass
class ConditionResult:
    name: str
    passed: bool
    margin: float
    worst_s: float
    detail: str = ""


@dataclass
class HypothesisReport:
    conditions: list = field(default_factory=list)
    s_interval: tuple = (-10.0, 10.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def lines(self):
        out = [f"validated on s in [{self.s_interval[0]:g}, {self.s_interval[1]:g}]"]
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            out.append(f"  [{status}] {c.name}: margin {c.margin:+.4e} "
                       f"(worst at s = {c.worst_s:+.4f}) {c.detail}")
        return out


def validate_potential_conditions(potential: DoubleWell, kernel: Kernel,
                                  constants: HypothesisConstants,
                                  s_range=(-10.0, 10.0),
                                  n_samples: int = 10_000) -> HypothesisReport:
    """Sample the three conditions on F against the kernel's mass field.

    The conditions are stated for all real s; this checks them densely on a
    finite interval (recorded in the report) using min_x a(x), which is the
    worst case in x for all three.
    """
    s = np.linspace(s_range[0], s_range[1], n_samples)
    a_min = float(kernel.mass_field.values.min())
    c = constants
    report = HypothesisReport(s_interval=tuple(s_range))

    m1 = potential.d2f(s) + a_min - c.c1
    i1 = int(np.argmin(m1))
    report.conditions.append(ConditionResult(
        "coercivity F'' + a >= c1", bool(m1[i1] >= 0), float(m1[i1]), float(s[i1]),
        detail=f"min_x a = {a_min:.4f}"))

    m2 = potential.d2f(s) + a_min - (c.c2 * np.abs(s) ** (c.p - 2.0) - c.c3)
    i2 = int(np.argmin(m2))
    report.conditions.append(ConditionResult(
        "growth F'' + a >= c2|s|^(p-2) - c3", bool(m2[i2] >= 0), float(m2[i2]),
        float(s[i2]), detail=f"p = {c.p:g}"))

    m3 = c.c4 * np.abs(potential.f(s)) + c.c5 - np.abs(potential.df(s)) ** c.r
    i3 = int(np.argmin(m3))
    report.conditions.append(ConditionResult(
        "control |F'|^r <= c4|F| + c5", bool(m3[i3] >= 0), float(m3[i3]),
        float(s[i3]), detail=f"r = {c.r:g}"))
    return report


def validate_viscosity_bounds(viscosity: Viscosity, s_range=(-10.0, 10.0),
                              n_samples: int = 10_000) -> HypothesisReport:
    """Analytic range check plus dense sampling of the viscosity profile."""
    report = HypothesisReport(s_interval=tuple(s_range))
    lo = viscosity.mean - abs(viscosity.modulation)
    hi = viscosity.mean + abs(viscosity.modulation)
    report.conditions.append(ConditionResult(
        "analytic bounds nu_min <= nu <= nu_max",
        bool(lo >= viscosity.nu_min and hi <= viscosity.nu_max),
        float(min(lo - viscosity.nu_min, viscosity.nu_max - hi)),
        float("inf"), detail=f"range [{lo:g}, {hi:g}]"))

    s = np.linspace(s_range[0], s_range[1], n_samples)
    nu = viscosity.nu(s)
    m = np.minimum(nu - viscosity.nu_min, viscosity.nu_max - nu)
    i = int(np.argmin(m))
    report.conditions.append(ConditionResult(
        "sampled bounds", bool(m[i] >= 0), float(m[i]), float(s[i])))
    return report
