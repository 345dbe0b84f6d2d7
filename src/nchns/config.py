"""Flat key-value run configuration with dotted section keys.

Files look like::

    # tracking run
    grid.nx = 32
    kernel.family = gaussian
    weights.gamma = 1e-3

Unknown keys are hard errors; every parse returns a fully resolved
configuration (defaults filled in) that can be echoed back out and reparsed
to the identical result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forward import ForwardSolver, InitialData, TimeScheme, zero_control
from .grid import Grid2D
from .kernels import KERNEL_FAMILIES, make_kernel
from .physics import DoubleWell, HypothesisConstants, Viscosity
from .presets import constant_control, scalar_preset, vector_preset
from .problem import ControlBounds, ControlProblem, CostWeights, Targets


class ConfigError(ValueError):
    pass


def _bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (parser, default)
SCHEMA = {
    "grid.nx": (int, 32),
    "grid.ny": (int, 32),
    "grid.lx": (float, 1.0),
    "grid.ly": (float, 1.0),
    "time.dt": (float, 5e-5),
    "time.nt": (int, 100),
    "scheme.tol_p": (float, 1e-10),
    "kernel.family": (str, "gaussian"),
    "kernel.width": (float, 0.15),
    "kernel.amplitude": (float, 1.0),
    "kernel.auto_scale": (_bool, True),
    "potential.scale": (float, 1.0),
    "viscosity.mean": (float, 1.0),
    "viscosity.modulation": (float, 0.5),
    "viscosity.nu_min": (float, 0.4),
    "viscosity.nu_max": (float, 1.6),
    "hypotheses.c1": (float, 0.1),
    "init.phi": (str, "uniform(0)"),
    "init.u": (str, "zero"),
    "targets.kind": (str, "from_control"),
    "targets.control": (str, "taylor-vortex(0.0015)"),
    "weights.beta1": (float, 1.0),
    "weights.beta2": (float, 1.0),
    "weights.beta3": (float, 0.0),
    "weights.beta4": (float, 0.0),
    "weights.gamma": (float, 1e-3),
    "bounds.lower": (float, -1.0),
    "bounds.upper": (float, 1.0),
    "check.eps_sweep": (str, "1e-1,1e-2,1e-3,1e-4"),
    "seed": (int, 0),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    # -- materializers ------------------------------------------------------

    def grid(self) -> Grid2D:
        return Grid2D(self["grid.nx"], self["grid.ny"],
                      self["grid.lx"], self["grid.ly"])

    def constants(self) -> HypothesisConstants:
        return HypothesisConstants(c1=self["hypotheses.c1"])

    def potential(self) -> DoubleWell:
        return DoubleWell(scale=self["potential.scale"])

    def viscosity(self) -> Viscosity:
        return Viscosity(mean=self["viscosity.mean"],
                         modulation=self["viscosity.modulation"],
                         nu_min=self["viscosity.nu_min"],
                         nu_max=self["viscosity.nu_max"])

    def kernel(self, grid: Grid2D):
        family = self["kernel.family"]
        target = None
        if self["kernel.auto_scale"]:
            target = self["potential.scale"] + self["hypotheses.c1"]
        if family not in KERNEL_FAMILIES:
            raise ConfigError(f"kernel.family: unknown family {family!r}")
        params = {"amplitude": self["kernel.amplitude"]}
        if family == "gaussian":
            params["width"] = self["kernel.width"]
        return make_kernel(grid, family, auto_scale_target=target, **params)

    def scheme(self) -> TimeScheme:
        return TimeScheme(dt=self["time.dt"], nt=self["time.nt"],
                          tol_p=self["scheme.tol_p"])

    def solver(self) -> ForwardSolver:
        grid = self.grid()
        return ForwardSolver(grid, self.kernel(grid), self.potential(),
                             self.viscosity(), self.scheme())

    def initial_data(self, grid: Grid2D) -> InitialData:
        return InitialData(vector_preset(grid, self["init.u"]),
                           scalar_preset(grid, self["init.phi"]))

    def weights(self) -> CostWeights:
        return CostWeights(b1=self["weights.beta1"], b2=self["weights.beta2"],
                           b3=self["weights.beta3"], b4=self["weights.beta4"],
                           gamma=self["weights.gamma"])

    def bounds(self, grid: Grid2D, nt: int) -> ControlBounds:
        lo, hi = self["bounds.lower"], self["bounds.upper"]
        if lo > hi:
            raise ConfigError(
                f"bounds.lower = {lo:g} exceeds bounds.upper = {hi:g}")
        return ControlBounds.constant(grid, nt, lo, hi)

    def targets(self, solver: ForwardSolver, init: InitialData) -> Targets:
        kind = self["targets.kind"]
        nt = solver.scheme.nt
        if kind == "resting":
            return Targets.resting(solver.grid, nt)
        if kind == "self":
            traj = solver.run(zero_control(solver.grid, nt), init)
            return Targets.from_trajectory(traj)
        if kind == "from_control":
            v = constant_control(solver.grid, nt,
                                 vector_preset(solver.grid,
                                               self["targets.control"]))
            traj = solver.run(v, init)
            return Targets.from_trajectory(traj)
        raise ConfigError(f"targets.kind: unknown kind {kind!r}")

    def control_problem(self) -> ControlProblem:
        solver = self.solver()
        init = self.initial_data(solver.grid)
        targets = self.targets(solver, init)
        bounds = self.bounds(solver.grid, solver.scheme.nt)
        return ControlProblem(solver, init, targets, self.weights(), bounds)

    def eps_sweep(self):
        toks = [t.strip() for t in self["check.eps_sweep"].split(",") if t.strip()]
        sweep = [float(t) for t in toks]
        if len(sweep) < 2:
            raise ConfigError("check.eps_sweep must list at least two values")
        return sweep


def parse_config_text(text: str) -> RunConfig:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    cfg = RunConfig(values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    """Constraint checks that name the offending key(s); cheap ones only.

    The kernel and the solver objects are built, and check themselves, when
    a materializer such as ``RunConfig.solver`` is called.
    """
    if cfg["grid.nx"] < 4 or cfg["grid.ny"] < 4:
        raise ConfigError("grid.nx/grid.ny must be at least 4")
    if cfg["time.dt"] <= 0 or cfg["time.nt"] < 1:
        raise ConfigError("time.dt must be positive and time.nt >= 1")
    if cfg["bounds.lower"] > cfg["bounds.upper"]:
        raise ConfigError(
            f"bounds.lower = {cfg['bounds.lower']:g} exceeds "
            f"bounds.upper = {cfg['bounds.upper']:g}")
    try:
        cfg.constants()
        cfg.potential()
        cfg.viscosity()
        cfg.weights()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["kernel.family"] not in KERNEL_FAMILIES:
        raise ConfigError(
            f"kernel.family: unknown family {cfg['kernel.family']!r}")


def parse_config(path) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def echo_config(cfg: RunConfig) -> str:
    """Render the fully resolved configuration; reparses to the same values."""
    lines = ["# resolved configuration (all effective values)"]
    for key in SCHEMA:
        lines.append(f"{key} = {_fmt_value(cfg.values[key])}")
    return "\n".join(lines) + "\n"
