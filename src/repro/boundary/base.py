"""Boundary-condition interface shared by all solvers.

Boundaries hook into two points of the LBM update cycle:

* ``post_stream(lat, f_new, f_source)`` — called right after streaming with
  the freshly streamed field ``f_new`` and the field that was streamed
  (post-collision) ``f_source``. Bounce-back and the inlet/outlet
  reconstructions live here; this is the point where, in the paper's MR
  GPU kernel, the distribution still lives in shared memory.
* ``post_collide(lat, f_star, f_post_stream)`` — called right after
  collision (used by full-way bounce-back, which replaces the collision on
  solid nodes by a reflection).

A boundary must first be bound via :meth:`Boundary.bind`. Geometry is
fixed from then on, so ``bind`` compiles a *plan* — flat indices into the
C-contiguous ``(Q, *grid)`` lattice plus constant coefficient tables — and
a hook runs a few flat gathers, small matmuls and one flat scatter per
step. :meth:`Boundary.overrides` lets the cores skip inherited no-op hooks.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Domain
from ..lattice import LatticeDescriptor

__all__ = ["Boundary", "Plane", "flat_view"]


def flat_view(f: np.ndarray) -> np.ndarray:
    """The 1-D view of a C-contiguous population array (never a copy)."""
    if not f.flags.c_contiguous:
        raise ValueError("boundary hooks write C-contiguous arrays only")
    return f.reshape(-1)


class Plane:
    """An axis-aligned domain face: ``axis`` plus ``side`` (0 or -1).

    ``inward`` is the signed unit direction pointing from the face into the
    domain interior (+1 for the low side, -1 for the high side).
    """

    def __init__(self, axis: int, side: int):
        if side not in (0, -1):
            raise ValueError(f"side must be 0 or -1, got {side}")
        self.axis = int(axis)
        self.side = int(side)

    @property
    def inward(self) -> int:
        """Signed unit direction from the face into the domain interior."""
        return 1 if self.side == 0 else -1

    def face_index(self, shape: tuple[int, ...], offset: int = 0) -> tuple:
        """Indexing tuple selecting the plane ``offset`` nodes inward."""
        idx: list = [slice(None)] * len(shape)
        if self.side == 0:
            idx[self.axis] = offset
        else:
            idx[self.axis] = shape[self.axis] - 1 - offset
        return tuple(idx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Plane(axis={self.axis}, side={self.side})"


class Boundary:
    """Abstract boundary condition. Subclasses compile a plan in
    :meth:`bind` and implement one or both apply hooks."""

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "Boundary":
        """Compile the per-step plan; returns self for chaining."""
        raise NotImplementedError

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Mutate ``f_new`` in place after streaming (default: no-op)."""

    def post_collide(self, lat: LatticeDescriptor, f_star: np.ndarray,
                     f_post_stream: np.ndarray) -> None:
        """Mutate ``f_star`` in place after collision (default: no-op)."""

    @classmethod
    def overrides(cls, hook: str) -> bool:
        """Whether ``hook`` (``"post_stream"``/``"post_collide"``) is not the no-op."""
        return getattr(cls, hook) is not getattr(Boundary, hook)
