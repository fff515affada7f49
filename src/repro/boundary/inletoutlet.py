"""Velocity inlets and pressure outlets on axis-aligned faces.

Two reconstruction methods are provided, selected by ``method``:

* ``"nebb"`` — non-equilibrium bounce-back (Zou & He style): only the
  populations pointing into the domain are replaced, using
  ``f_i = f_eq_i + (f_ibar - f_eq_ibar)``. Purely node-local, which is what
  the virtual-GPU kernels implement in shared memory.
* ``"regularized-fd"`` — the paper's inlet/outlet scheme (Latt et al. 2008,
  "straight velocity boundaries", finite-difference flavour): the *entire*
  population set of the boundary node is rebuilt as
  ``f = f_eq(rho, u) + w/(2 cs4) H2 : Pi_neq`` with
  ``Pi_neq = -2 rho cs2 tau S`` and the strain rate ``S`` evaluated with
  one-sided finite differences in the wall-normal direction (second order)
  and central differences tangentially.

Density at a velocity inlet follows the classical closed relation
``rho = (S_0 + 2 S_-)/(1 - u_n)`` where ``S_0``/``S_-`` sum the tangential
and outgoing populations and ``u_n`` is the inward normal velocity. The
pressure outlet inverts the same relation for ``u_n`` given ``rho``.

``bind`` compiles the face into a plan: flat indices of the face, its
two interior planes and its active nodes, the ``S_0 + 2 S_-`` weights
stacked on the density and momentum rows, the strain map and ``H2``; the
inlet also folds in ``1/(1 - u_n)``, ``f_eq / rho`` and the tangential
strain. Per step a hook gathers the planes, reduces them with one matmul,
rebuilds the face with a few more and scatters the active nodes back.
"""

from __future__ import annotations

import numpy as np

from ..geometry import SOLID, Domain
from ..lattice import LatticeDescriptor
from .base import Boundary, Plane, flat_view

__all__ = ["VelocityInlet", "PressureOutlet"]


class _FaceBoundary(Boundary):
    """Shared face plan of the inlet/outlet boundaries."""

    def __init__(self, plane: Plane, method: str):
        if method not in ("nebb", "regularized-fd"):
            raise ValueError(f"unknown reconstruction method {method!r}")
        self.plane = plane
        self.method = method
        self.tau: float | None = None

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float,
             planes: int = 3):
        """Compile the face and its first ``planes - 1`` interior planes."""
        ax, d = self.plane.axis, lat.d
        if ax >= domain.ndim:
            raise ValueError(f"plane axis {ax} out of range for {domain.ndim}D domain")
        if self.method == "regularized-fd" and domain.shape[ax] < 3:
            # Fewer planes would wrap the one-sided stencil around the axis.
            raise ValueError(f"the regularized-fd reconstruction needs at least 3 planes "
                             f"along axis {ax}, but the domain has only {domain.shape[ax]}; "
                             f"enlarge the domain or use method='nebb'")
        self.tau = float(tau)
        nodes = np.arange(domain.node_type.size).reshape(domain.shape)
        face = [nodes[self.plane.face_index(domain.shape, k)] for k in range(planes)]
        self._plane_shape, self._planes, n = face[0].shape, planes, face[0].size
        self._n = n
        # (Q, planes * n): the face columns first, then each interior plane.
        self._idx = (np.arange(lat.q)[:, None] * nodes.size
                     + np.concatenate([p.reshape(-1) for p in face])[None])
        act = domain.node_type.reshape(-1)[self._idx[0, :n]] != SOLID
        self._act = np.flatnonzero(act)
        cn = lat.c[:, ax] * self.plane.inward
        self._red = np.vstack([(cn == 0) + 2.0 * (cn < 0), lat.moment_matrix[:1 + d]])
        if self.method == "nebb":
            unknown = np.flatnonzero(cn > 0)
            self._dst = self._idx[unknown, :n][:, act]
            self._src = self._idx[lat.opposite[unknown], :n]
            # feq_i - feq_ibar = rho (2 w_i / cs2) c_i . u
            self._k = 2.0 * lat.w[unknown, None] * lat.c[unknown] / lat.cs2
            return self
        self._dst = self._idx[:, :n][:, act]
        # Strain map from g[x, y] = d_x u_y onto -2 cs2 tau S.
        self._pairs, k = np.array(lat.pair_tuples).T, np.arange(lat.n_pairs)
        strain = np.zeros((lat.n_pairs, d, d))
        np.add.at(strain, (k, *self._pairs), 0.5)
        np.add.at(strain, (k, *self._pairs[::-1]), 0.5)
        self._strain = -2.0 * lat.cs2 * self.tau * strain.reshape(lat.n_pairs, -1)
        # np.gradient's stencil along the face: central differences, one-sided
        # at its edges, as neighbour columns and scales per tangential axis.
        coords = np.indices(self._plane_shape).reshape(d - 1, n)
        self._nbr = np.empty((d - 1, 2, n), dtype=np.intp)
        self._scale = np.empty((d - 1, n))
        for p, ext in enumerate(self._plane_shape):
            hi, lo = coords.copy(), coords.copy()
            hi[p], lo[p] = np.minimum(coords[p] + 1, ext - 1), np.maximum(coords[p] - 1, 0)
            self._nbr[p] = [np.ravel_multi_index(tuple(c), self._plane_shape) for c in (hi, lo)]
            self._scale[p] = 1.0 / np.maximum(hi[p] - lo[p], 1)
        self._tang = [a for a in range(d) if a != ax]
        self._rc = np.ascontiguousarray(lat.reconstruction_matrix)
        self._g = np.empty((d, d, n))
        self._meq = np.ones((lat.n_moments, n))
        return self

    def _reduce(self, f: np.ndarray):
        """Flat ``f``, face sums ``S_0 + 2 S_-``, interior-plane velocities."""
        fl = flat_view(f)
        n = self._n
        r = self._red @ fl[self._idx]
        u = r[2:, n:] / r[1, n:]
        return fl, r[0, :n], u.reshape(len(u), self._planes - 1, n)

    def _regularized(self, u: np.ndarray, u12: np.ndarray) -> np.ndarray:
        """``f / rho`` of the regularized-FD reconstruction at the face."""
        d = len(u)
        g, m = self._g, self._meq
        g[self.plane.axis] = (4.0 * u12[:, 0] - u12[:, 1] - 3.0 * u) * (0.5 * self.plane.inward)
        x = u[:, self._nbr]
        g[self._tang] = ((x[:, :, 0] - x[:, :, 1]) * self._scale).transpose(1, 0, 2)
        m[1:1 + d] = u
        np.multiply(u[self._pairs[0]], u[self._pairs[1]], out=m[1 + d:])
        m[1 + d:] += self._strain @ g.reshape(d * d, -1)
        return self._rc @ m


class VelocityInlet(_FaceBoundary):
    """Prescribed-velocity boundary on a domain face (paper's inlet).

    ``velocity`` is either a length-``D`` vector (uniform) or a
    ``(D, *plane_shape)`` profile (e.g. Poiseuille).
    """

    def __init__(self, plane: Plane, velocity, method: str = "regularized-fd"):
        super().__init__(plane, method)
        self._velocity_spec = velocity
        self.u_b: np.ndarray | None = None

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "VelocityInlet":
        """Compile the face plan and fold in the prescribed velocity."""
        super().bind(lat, domain, tau, 3 if self.method == "regularized-fd" else 1)
        ps = (lat.d, *self._plane_shape)
        u = np.asarray(self._velocity_spec, dtype=np.float64)
        if u.shape == (lat.d,):
            u = u.reshape((lat.d,) + (1,) * (lat.d - 1))
        elif u.shape != ps:
            raise ValueError(f"velocity must have shape {(lat.d,)} or {ps}, got {u.shape}")
        self.u_b = np.broadcast_to(u, ps).copy()
        u = self.u_b.reshape(lat.d, -1)
        self._inv = 1.0 / (1.0 - self.plane.inward * u[self.plane.axis])
        if self.method == "nebb":
            self._ku = self._k @ u
            return self
        # f / rho = base + gain @ [u_1; u_2]: only the one-sided normal
        # difference of the interior planes varies from step to step.
        self._base = self._regularized(u, np.zeros((lat.d, 2, self._n)))
        ax, d = self.plane.axis, lat.d
        g = self._rc[:, 1 + d:] @ self._strain[:, ax * d:ax * d + d] * (0.5 * self.plane.inward)
        self._gain = np.stack([4.0 * g, -g], axis=2).reshape(lat.q, -1)
        return self

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Impose the prescribed velocity on the freshly streamed face."""
        fl, s, u12 = self._reduce(f_new)
        rho = s * self._inv
        if self.method == "nebb":
            out = self._ku * rho
            out += fl[self._src]
        else:
            out = self._gain @ u12.reshape(-1, self._n)
            out += self._base
            out *= rho
        fl[self._dst] = out[:, self._act]


class PressureOutlet(_FaceBoundary):
    """Prescribed-density boundary on a domain face (paper's outlet).

    The inward-normal velocity follows from the mass relation
    ``u_n = 1 - (S_0 + 2 S_-)/rho``; tangential components are either
    zero or copied from the first interior plane (``tangential``).
    """

    def __init__(self, plane: Plane, rho_out: float = 1.0,
                 method: str = "regularized-fd", tangential: str = "extrapolate"):
        super().__init__(plane, method)
        if tangential not in ("zero", "extrapolate"):
            raise ValueError(f"tangential must be 'zero' or 'extrapolate', got {tangential!r}")
        self.rho_out = float(rho_out)
        self.tangential = tangential

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "PressureOutlet":
        """Compile the face plan and the outlet velocity buffer."""
        copy = self.tangential == "extrapolate"
        super().bind(lat, domain, tau, 3 if self.method == "regularized-fd" else 1 + copy)
        self._u = np.zeros((lat.d, self._n))
        self._copy = [a for a in range(lat.d) if a != self.plane.axis and copy]
        return self

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Impose the prescribed density on the freshly streamed face."""
        fl, s, u12 = self._reduce(f_new)
        u = self._u
        np.multiply(1.0 - s / self.rho_out, self.plane.inward, out=u[self.plane.axis])
        if self._copy:
            u[self._copy] = u12[self._copy, 0]
        out = self._k @ u if self.method == "nebb" else self._regularized(u, u12)
        out *= self.rho_out
        if self.method == "nebb":
            out += fl[self._src]
        fl[self._dst] = out[:, self._act]
