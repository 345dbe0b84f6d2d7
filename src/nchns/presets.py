"""Named initial-data, control and direction presets.

Presets are spelled ``name(arg1, arg2, ...)`` in configuration files; the
velocity-like presets are built from node stream functions vanishing on the
boundary, so they are discretely divergence-free and no-slip by construction.
"""

from __future__ import annotations

import re

import numpy as np

from .grid import Grid2D, ScalarField, VectorField, read_only

_PRESET_RE = re.compile(r"^\s*([a-zA-Z_][\w-]*)\s*(?:\(([^)]*)\))?\s*$")


def parse_preset(spec: str):
    """Split ``"bubble(0.3, 0.5, 0.5)"`` into ("bubble", [0.3, 0.5, 0.5])."""
    m = _PRESET_RE.match(spec)
    if not m:
        raise ValueError(f"malformed preset spec {spec!r}")
    name = m.group(1)
    args = []
    if m.group(2):
        for tok in m.group(2).split(","):
            tok = tok.strip()
            if tok:
                args.append(float(tok))
    return name, args


def scalar_preset(grid: Grid2D, spec: str) -> ScalarField:
    """Cell-centered scalar presets: uniform, random, bubble, stripe."""
    name, args = parse_preset(spec)
    if name == "uniform":
        value = args[0] if args else 0.0
        return ScalarField.full(grid, value)
    if name == "random":
        amp = args[0] if args else 0.1
        seed = int(args[1]) if len(args) > 1 else 0
        rng = np.random.default_rng(seed)
        return ScalarField(grid, amp * rng.standard_normal((grid.nx, grid.ny)))
    if name == "bubble":
        radius = args[0] if args else 0.25 * min(grid.lx, grid.ly)
        cx = args[1] if len(args) > 1 else 0.5 * grid.lx
        cy = args[2] if len(args) > 2 else 0.5 * grid.ly
        width = args[3] if len(args) > 3 else 2.0 * min(grid.dx, grid.dy)
        X, Y = grid.cell_centers()
        r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
        return ScalarField(grid, np.tanh((radius - r) / width))
    if name == "stripe":
        width = args[0] if args else 0.1 * grid.lx
        X, _ = grid.cell_centers()
        return ScalarField(grid, np.tanh((X - 0.5 * grid.lx) / width))
    raise ValueError(f"unknown scalar preset {name!r}")


def _stream_nodes(grid: Grid2D, fn) -> np.ndarray:
    X, Y = grid.nodes()
    psi = np.asarray(fn(X, Y), dtype=np.float64)
    # the analytic stream functions vanish on the boundary; clear the
    # sin(pi)-sized round-off so the normal faces come out exactly zero
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    return psi


def vector_preset(grid: Grid2D, spec: str) -> VectorField:
    """Divergence-free velocity presets: zero, taylor-vortex, stream-sine."""
    name, args = parse_preset(spec)
    if name == "zero":
        return VectorField.zeros(grid)
    if name == "taylor-vortex":
        amp = args[0] if args else 1.0
        kx = int(args[1]) if len(args) > 1 else 1
        ky = int(args[2]) if len(args) > 2 else 1
        psi = _stream_nodes(grid, lambda X, Y: amp / np.pi * np.sin(
            np.pi * kx * X / grid.lx) * np.sin(np.pi * ky * Y / grid.ly))
        return VectorField.from_stream_function(grid, psi)
    if name == "stream-sine":
        # superposition of two vortical modes; handy as a generic direction
        amp = args[0] if args else 1.0
        psi = _stream_nodes(grid, lambda X, Y: amp * (
            np.sin(np.pi * X / grid.lx) * np.sin(np.pi * Y / grid.ly)
            + 0.5 * np.sin(2.0 * np.pi * X / grid.lx)
            * np.sin(np.pi * Y / grid.ly)))
        return VectorField.from_stream_function(grid, psi)
    if name == "random-solenoidal":
        amp = args[0] if args else 1.0
        seed = int(args[1]) if len(args) > 1 else 0
        return random_solenoidal(grid, amp, np.random.default_rng(seed))
    raise ValueError(f"unknown vector preset {name!r}")


def random_solenoidal(grid: Grid2D, amplitude: float,
                      rng: np.random.Generator) -> VectorField:
    """Smooth random divergence-free no-slip field from a few stream modes."""
    psi = _stream_nodes(grid, lambda X, Y: sum(
        rng.standard_normal() / (kx ** 2 + ky ** 2)
        * np.sin(np.pi * kx * X / grid.lx) * np.sin(np.pi * ky * Y / grid.ly)
        for kx in range(1, 4) for ky in range(1, 4)))
    scale = np.max(np.abs(psi)) or 1.0
    return VectorField.from_stream_function(grid, amplitude * psi / scale)


def constant_control(grid: Grid2D, nt: int, field: VectorField):
    """Time-constant control: nt references to one read-only copy of ``field``.

    ``field`` itself is copied once and stays writable.  The shared level
    cannot be written; a caller who wants to edit one step builds a list of
    copies, ``[v.copy() for v in constant_control(grid, nt, field)]``.
    """
    return [read_only(field.copy())] * nt
