"""Bounce-back wall boundaries (the paper's channel walls).

Half-way bounce-back reflects, on each fluid-solid link, the post-collision
population back into the fluid with reversed direction; the wall plane sits
half a lattice spacing beyond the last fluid node and the scheme is
second-order accurate for straight walls. A moving-wall momentum term
``2 w_i rho0 (c_i . u_w) / cs2`` supports driven cavities.

Full-way bounce-back instead replaces the collision at *solid* nodes by a
full reflection of all populations, introducing a one-step delay. Both are
provided; the half-way variant is the default used by the channel
workloads.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Domain
from ..lattice import LatticeDescriptor
from .base import Boundary, flat_view

__all__ = ["HalfwayBounceBack", "FullwayBounceBack"]


class HalfwayBounceBack(Boundary):
    """Link-wise half-way bounce-back on all fluid-solid links.

    ``bind`` compiles the links into flat targets ``i N + x``, sources
    ``ibar N + x`` and moving-wall terms: a step is one gather and one
    scatter. ``_targets[i]`` (flat nodes ``x``, or ``None``) feeds the
    sparse backend's folded gather table.

    Parameters
    ----------
    wall_velocity:
        Optional ``(D, *shape)`` array giving the velocity of each solid
        node (only values at solid nodes are read). Used for moving walls,
        e.g. a cavity lid.
    rho0:
        Reference density in the moving-wall momentum correction.
    """

    def __init__(self, wall_velocity: np.ndarray | None = None, rho0: float = 1.0):
        self.wall_velocity = wall_velocity
        self.rho0 = float(rho0)
        self._targets: list[np.ndarray | None] = []
        self._momentum: list[np.ndarray | None] = []

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "HalfwayBounceBack":
        """Compile the fluid-solid links into flat gather/scatter indices."""
        solid = domain.solid_mask
        fluidlike = domain.fluid_mask
        axes = tuple(range(solid.ndim))
        if self.wall_velocity is not None:
            uw = np.asarray(self.wall_velocity, dtype=np.float64)
            if uw.shape != (lat.d, *domain.shape):
                raise ValueError(
                    f"wall_velocity must have shape {(lat.d, *domain.shape)}, got {uw.shape}"
                )
        # Node x receives component i from x - c_i: reflect it when that is solid.
        ts = [np.flatnonzero(np.roll(solid, tuple(c), axes) & fluidlike)
              if c.any() else np.empty(0, dtype=np.intp) for c in lat.c]
        counts = [t.size for t in ts]
        nodes = np.concatenate(ts)
        ts = np.split(nodes, np.cumsum(counts)[:-1])  # views: one copy of the nodes
        self._targets = [t if t.size else None for t in ts]
        self._dst = np.repeat(np.arange(lat.q) * solid.size, counts)
        self._dst += nodes
        self._src = np.repeat(lat.opposite * solid.size, counts)
        self._src += nodes
        self._momentum, self._mom = [None] * lat.q, None
        if self.wall_velocity is None:
            return self
        for i in np.flatnonzero(counts):
            x = np.unravel_index(ts[i], domain.shape)
            xs = tuple((x[a] - lat.c[i, a]) % domain.shape[a] for a in range(lat.d))
            cu = sum(lat.c[i, a] * uw[a][xs] for a in range(lat.d))
            self._momentum[i] = 2.0 * lat.w[i] * self.rho0 * cu / lat.cs2
        self._mom = np.concatenate([m for m in self._momentum if m is not None] or [np.empty(0)])
        return self

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Reflect the populations streamed out of solid nodes."""
        vals = f_source.reshape(-1)[self._src]
        if self._mom is not None:
            vals += self._mom
        flat_view(f_new)[self._dst] = vals


class FullwayBounceBack(Boundary):
    """Full-way bounce-back: solid nodes reflect all populations instead of
    colliding. Solid nodes participate in streaming normally."""

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "FullwayBounceBack":
        """Compile the solid nodes into flat reflection indices."""
        solid = np.flatnonzero(domain.solid_mask)
        self._dst = (np.arange(lat.q)[:, None] * domain.solid_mask.size + solid).reshape(-1)
        self._src = self._dst.reshape(lat.q, -1)[lat.opposite].reshape(-1)
        return self

    def post_collide(self, lat: LatticeDescriptor, f_star: np.ndarray,
                     f_post_stream: np.ndarray) -> None:
        """Replace the collision at solid nodes by a full reflection."""
        flat_view(f_star)[self._dst] = f_post_stream.reshape(-1)[self._src]
