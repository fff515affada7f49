"""Fused pure-NumPy step kernels for the ST / MR-P / MR-R schemes.

The reference solvers are written line-for-line against the paper's
algorithms: each step materializes the full post-collision distribution,
streams it with ``Q`` per-component ``np.roll`` passes, and projects
moments through ``np.einsum`` contractions that NumPy evaluates as naive
loops. This module provides drop-in *fused* realizations of the same
steps that

* evaluate every linear projection (moments -> f, Eq. 11; f -> moments,
  Eqs. 1-3; the Eq. 14 higher-order extension) as a single BLAS ``dgemm``
  over the flattened ``(components, nodes)`` field — for MR-R the
  reconstruction and the higher-order delta collapse into **one** matmul
  against the precomputed block matrix ``[R | E3 | E4]``;
* keep every intermediate in preallocated scratch buffers, so the hot
  loop performs zero per-step allocations;
* write the collided ST populations straight into the retired lattice
  buffer, eliminating the per-step temporary of the reference solver;
* stream either through ``np.roll`` slicing or through the
  :mod:`~repro.accel.tables` single-gather (selectable; rolls win on
  hosts where sliced copies beat indexed gathers, see
  ``docs/PERFORMANCE.md``);
* fold body forcing (Guo's half-force scheme, distribution space for ST
  and the moment-space projection of :mod:`repro.core.forcing` for MR)
  into the collision stage — a handful of extra FMAs per node against
  preallocated buffers, no additional field passes;
* accept a per-node ``tau_field`` in the MR-P collision (the local
  relaxation of :class:`repro.solver.non_newtonian.PowerLawMRPSolver`),
  so variable-viscosity problems keep the fused round trip.

Every kernel reproduces the corresponding reference solver to machine
precision: the collision arithmetic mirrors the reference expressions
operation-for-operation, and the only deviations are BLAS summation-order
effects at the level of one ulp per step (pinned by the parity suite in
``tests/unit/test_accel_backends.py``).

The classes here are *array-level* cores: they know nothing about
:class:`~repro.solver.base.Solver`. The solver-facing steppers that
:func:`repro.accel.make_stepper` hands out, and the distributed per-rank
steps in :mod:`repro.parallel.decomposition`, both drive these same
cores, so single-domain and slab-decomposed fused runs share one
implementation.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.collision import _split_trace
from ..core.streaming import stream_push
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from .tables import neighbor_table

__all__ = ["FusedSTCore", "FusedMRCore", "STREAM_MODES", "solid_index",
           "hooked"]

#: Streaming strategies understood by the fused cores. ``"auto"`` resolves
#: to ``"roll"``: on every CPU we have measured, NumPy's sliced roll passes
#: outrun the indexed single-gather (the table gather exists for the Numba
#: backend, where it fuses into the JIT loop — see docs/PERFORMANCE.md).
STREAM_MODES = ("auto", "roll", "gather")


def solid_index(solid_mask: np.ndarray) -> np.ndarray | None:
    """Flat solid-node indices (``None`` without solids), computed once
    where the mask is known; the cores pin through them instead of a
    boolean ``[:, mask]`` index that runs ``nonzero`` every step."""
    idx = np.flatnonzero(solid_mask)
    return idx if idx.size else None


def hooked(boundaries, hook: str) -> list:
    """The boundaries that implement ``hook`` (see ``Boundary.overrides``)."""
    return [b for b in boundaries if b.overrides(hook)]


def _resolve_stream(lat: LatticeDescriptor, shape: tuple[int, ...],
                    stream: str):
    """Validate the streaming mode and prebuild the table when needed."""
    if stream not in STREAM_MODES:
        raise ValueError(
            f"unknown streaming mode {stream!r}; expected one of {STREAM_MODES}"
        )
    if stream == "auto":
        stream = "roll"
    table = neighbor_table(lat, shape) if stream == "gather" else None
    return stream, table


class FusedSTCore:
    """Fused stream+collide step for the two-lattice ST scheme (BGK).

    One step performs, over the flattened ``(Q, N)`` field:

    1. pull streaming into the scratch lattice (roll or table gather);
    2. the post-stream boundary hooks (unchanged reference objects);
    3. BGK collision *through moment space*: ``m = P f`` (dgemm), the
       equilibrium as the Eq. 11 reconstruction of
       ``[rho, j, rho u u]`` (dgemm), and the relaxation written in
       place into the retired lattice buffer — no per-step temporary;
    4. solid-node pinning (flat indices, see :func:`solid_index`) and
       the post-collide boundary hooks.

    The two lattice buffers keep fixed roles (``f`` / ``scratch``), so the
    caller's arrays are updated in place and never swapped.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 tau: float, stream: str = "auto"):
        self.lat = lat
        self.shape = tuple(shape)
        self.tau = float(tau)
        self.keep = 1.0 - 1.0 / self.tau
        self.stream_mode, self._table = _resolve_stream(lat, self.shape, stream)
        n = int(np.prod(self.shape))
        m = lat.n_moments
        self._mm = np.ascontiguousarray(lat.moment_matrix)
        self._rc = np.ascontiguousarray(lat.reconstruction_matrix)
        self._m = np.empty((m, n))
        self._meq = np.empty((m, n))
        self._u = np.empty((lat.d, n))
        self._feq = np.empty((lat.q, n))
        self._force_bufs = None

    def _stream(self, f: np.ndarray, out: np.ndarray) -> None:
        if self._table is not None:
            self._table.gather(f, out=out)
        else:
            stream_push(self.lat, f, out=out)

    def _ensure_force_bufs(self) -> tuple:
        """Scratch for the fused Guo source (allocated on first forced step)."""
        if self._force_bufs is None:
            lat = self.lat
            n = self._m.shape[1]
            self._force_bufs = (
                np.ascontiguousarray(lat.c, dtype=np.float64),  # (Q, D)
                np.empty((lat.q, n)),                           # c . F
                np.empty((lat.q, n)),                           # c . u
                np.empty((lat.d, n)),                           # u_a F_a terms
                np.empty(n),                                    # u . F
                (1.0 - 0.5 / self.tau) * lat.w[:, None],        # Guo prefactor
            )
        return self._force_bufs

    def _guo_source(self, ff: np.ndarray) -> np.ndarray:
        """Build the fused Guo source ``S_i`` for the flat force ``ff``.

        Mirrors :func:`repro.core.forcing.guo_source` operation for
        operation (including the division by ``cs2``/``cs4``) so forced
        fused runs track the reference trajectory at the ulp level.
        Returns the core-owned ``(Q, N)`` source buffer.
        """
        lat = self.lat
        cmat, cf, cu, uftmp, uf, wpref = self._ensure_force_bufs()
        np.matmul(cmat, ff, out=cf)
        np.matmul(cmat, self._u, out=cu)
        np.multiply(self._u, ff, out=uftmp)
        np.sum(uftmp, axis=0, out=uf)
        # S = pref w ((c.F - u.F)/cs2 + (c.u)(c.F)/cs4), built in place:
        # cu becomes the cs4 term, cf the cs2 term.
        cu *= cf
        cu /= lat.cs4
        cf -= uf
        cf /= lat.cs2
        cf += cu
        cf *= wpref
        return cf

    def _add_guo_source(self, out: np.ndarray, ff: np.ndarray) -> None:
        """Add the fused Guo source ``S_i`` for the flat force ``ff``."""
        out += self._guo_source(ff)

    def _moments_and_feq(self, fs: np.ndarray, ff: np.ndarray | None) -> None:
        """Fill ``_m``/``_u``/``_meq``/``_feq`` from the flat lattice ``fs``.

        The moment projection, (optionally half-force-shifted) velocity
        and Eq. 11 equilibrium reconstruction shared by the two-lattice
        step and the in-place AA steps of
        :class:`repro.accel.inplace.InplaceSTCore` — one body, so the
        single-lattice path is collide-identical by construction.
        """
        lat = self.lat
        d = lat.d
        np.matmul(self._mm, fs, out=self._m)
        rho = self._m[0]
        meq = self._meq
        meq[0] = rho
        if ff is None:
            np.divide(self._m[1:1 + d], rho, out=self._u)
            meq[1:1 + d] = self._m[1:1 + d]
        else:
            # u = (j + F/2)/rho; the equilibrium momentum is rho u.
            np.multiply(ff, 0.5, out=self._u)
            self._u += self._m[1:1 + d]
            self._u /= rho
            np.multiply(self._u, rho, out=meq[1:1 + d])
        for k, (a, b) in enumerate(lat.pair_tuples):
            np.multiply(self._u[a], self._u[b], out=meq[1 + d + k])
            meq[1 + d + k] *= rho
        np.matmul(self._rc, meq, out=self._feq)

    def step(self, f: np.ndarray, scratch: np.ndarray, boundaries,
             solid: np.ndarray | None, tel=NULL_TELEMETRY,
             force: np.ndarray | None = None) -> None:
        """Advance one step in place (``f`` ends as the new lattice).

        ``solid`` holds the flat solid-node indices of
        :func:`solid_index`. ``force`` is an optional ``(D, *grid)``
        body-force field; the collision then evaluates the equilibrium at
        Guo's half-force velocity and adds the fused source term.
        """
        lat = self.lat
        with tel.phase("stream"):
            self._stream(f, scratch)
        with tel.phase("boundary"):
            for b in hooked(boundaries, "post_stream"):
                b.post_stream(lat, scratch, f)
        with tel.phase("collide"):
            fs = scratch.reshape(lat.q, -1)
            ff = None if force is None else force.reshape(lat.d, -1)
            self._moments_and_feq(fs, ff)
            # f* = feq + (1 - omega)(f - feq), written into the retired
            # lattice buffer.
            out = f.reshape(lat.q, -1)
            np.subtract(fs, self._feq, out=out)
            out *= self.keep
            out += self._feq
            if ff is not None:
                self._add_guo_source(out, ff)
            if solid is not None:
                out[:, solid] = lat.w[:, None]
        post = hooked(boundaries, "post_collide")
        if post:
            with tel.phase("boundary"):
                for b in post:
                    b.post_collide(lat, f, scratch)


class FusedMRCore:
    """Fused moment-representation step (MR-P or MR-R, Algorithm 2).

    One step goes moments -> f* -> streamed f -> moments with a single
    dgemm at each linear boundary of the pipeline:

    * moment-space collision (Eq. 10, mirroring the reference arithmetic
      exactly, including the optional ``tau_bulk`` trace split) into the
      coefficient block ``G``;
    * for MR-R, the collided third/fourth-order Hermite coefficients
      (Eqs. 12-13) are appended to ``G`` so that reconstruction (Eq. 14)
      is the single product ``[R | E3 | E4] @ G``;
    * streaming via roll or table gather into the scratch lattice;
    * boundary hooks, then re-projection ``m = P f`` (dgemm) straight
      back into the caller's moment field.

    The distribution field exists only inside the two scratch lattices
    owned by the core — the caller's persistent state stays the
    ``(M, *grid)`` moment field, exactly as in Algorithm 2.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 tau: float, scheme: str = "MR-P",
                 tau_bulk: float | None = None, stream: str = "auto",
                 f_scratch: np.ndarray | None = None, alloc_f: bool = True):
        if scheme not in ("MR-P", "MR-R"):
            raise ValueError(f"scheme must be MR-P or MR-R, got {scheme!r}")
        self.lat = lat
        self.shape = tuple(shape)
        self.tau = float(tau)
        self.tau_bulk = tau_bulk
        self.keep = 1.0 - 1.0 / self.tau
        self.scheme = scheme
        self.stream_mode, self._table = _resolve_stream(lat, self.shape, stream)
        n = int(np.prod(self.shape))
        d, m = lat.d, lat.n_moments
        self._mm = np.ascontiguousarray(lat.moment_matrix)
        self._u = np.empty((d, n))
        self._pi_eq = np.empty((lat.n_pairs, n))
        self._pi_neq = np.empty((lat.n_pairs, n))
        self._keep_buf = None   # per-node 1 - 1/tau for the tau_field path
        self._pref_buf = None   # per-node 1 - 1/(2 tau) force prefactor
        self._src_buf = None    # scratch for the moment-space force terms
        if alloc_f:
            self._f_star = np.empty((lat.q, *self.shape))
            if f_scratch is None:
                f_scratch = np.empty((lat.q, *self.shape))
            self._f_new = f_scratch
        else:
            # Collision-stage-only use (the Numba backend never
            # materializes the distribution field).
            self._f_star = self._f_new = None

        if scheme == "MR-P":
            self._rcext = np.ascontiguousarray(lat.reconstruction_matrix)
            self._g = np.empty((m, n))
            self._a34_specs = None
        else:
            s3, s4 = lat.h3_supported, lat.h4_supported
            w3 = lat.triple_mult[s3] / (6.0 * lat.cs6)
            w4 = lat.quad_mult[s4] / (24.0 * lat.cs8)
            e3 = lat.w[:, None] * lat.h3_reg_cols[:, s3] * w3[None, :]
            e4 = lat.w[:, None] * lat.h4_reg_cols[:, s4] * w4[None, :]
            self._rcext = np.ascontiguousarray(
                np.hstack([lat.reconstruction_matrix, e3, e4]))
            self._g = np.empty((m + s3.size + s4.size, n))
            # Index recipes for the supported recursion columns:
            # a3_abc = rho u_a u_b u_c + keep (u_a Pi_bc + u_b Pi_ac + u_c Pi_ab)
            # a4_abcd = rho u_a u_b u_c u_d + keep sum_6 u_r u_s Pi_pq
            trip = [(t, [(t[0], lat.pair_index(t[1], t[2])),
                         (t[1], lat.pair_index(t[0], t[2])),
                         (t[2], lat.pair_index(t[0], t[1]))])
                    for t in (lat.triple_tuples[k] for k in s3)]
            quads = []
            for k in s4:
                quad = lat.quad_tuples[k]
                terms = []
                for pos in itertools.combinations(range(4), 2):
                    rest = [quad[i] for i in range(4) if i not in pos]
                    terms.append((rest[0], rest[1],
                                  lat.pair_index(quad[pos[0]], quad[pos[1]])))
                quads.append((quad, terms))
            self._a34_specs = (trip, quads)

    def _stream(self, f: np.ndarray, out: np.ndarray) -> None:
        if self._table is not None:
            self._table.gather(f, out=out)
        else:
            stream_push(self.lat, f, out=out)

    def _collide(self, mf: np.ndarray, force: np.ndarray | None = None,
                 tau_field: np.ndarray | None = None) -> None:
        """Fill the coefficient block ``G`` from the flat moment field.

        ``force`` is an optional flat ``(D, N)`` body-force field: the
        equilibria are evaluated at Guo's half-force velocity and the
        projected source moments (momentum input ``F``, second-moment
        source ``(1 - 1/(2 tau))(u F + F u)``) are added, mirroring
        :func:`repro.core.forcing.apply_moment_space_force`.

        ``tau_field`` is an optional flat ``(N,)`` per-node relaxation
        time (MR-P only); it replaces the scalar ``tau`` in both the
        relaxation factor and the force prefactor, mirroring the
        power-law solver's variable-tau collision.
        """
        lat = self.lat
        d = lat.d
        rho, j, pi = mf[0], mf[1:1 + d], mf[1 + d:]
        u = self._u
        if force is None:
            np.divide(j, rho, out=u)
        else:
            np.multiply(force, 0.5, out=u)
            u += j
            u /= rho
        if tau_field is None:
            keep = self.keep
        else:
            if self._keep_buf is None:
                self._keep_buf = np.empty_like(tau_field)
            keep = self._keep_buf
            np.divide(-1.0, tau_field, out=keep)
            keep += 1.0
        for k, (a, b) in enumerate(lat.pair_tuples):
            np.multiply(u[a], u[b], out=self._pi_eq[k])
            self._pi_eq[k] *= rho
        np.subtract(pi, self._pi_eq, out=self._pi_neq)
        g = self._g
        g[0] = rho
        if force is None:
            g[1:1 + d] = j
        else:
            np.add(j, force, out=g[1:1 + d])
        g_pi = g[1 + d:1 + d + lat.n_pairs]
        if self.tau_bulk is None or tau_field is not None:
            # tau_field implies the plain projective relaxation (the
            # variable-tau reference path has no bulk split either).
            np.multiply(self._pi_neq, keep, out=g_pi)
            g_pi += self._pi_eq
        else:
            dev, trace_cols = _split_trace(lat, self._pi_neq)
            g_pi[:] = (self._pi_eq + self.keep * dev
                       + (1.0 - 1.0 / self.tau_bulk) * trace_cols)
        if force is not None:
            self._add_moment_force(g_pi, u, force, tau_field)
        if self._a34_specs is not None:
            trip, quads = self._a34_specs
            keep = self.keep
            row = 1 + d + lat.n_pairs
            for (a, b, c), terms in trip:
                acc = rho * u[a] * u[b] * u[c]
                for v, p in terms:
                    acc += keep * (u[v] * self._pi_neq[p])
                g[row] = acc
                row += 1
            for (a, b, c, e), terms in quads:
                acc = rho * u[a] * u[b] * u[c] * u[e]
                for r0, r1, p in terms:
                    acc += keep * (u[r0] * u[r1] * self._pi_neq[p])
                g[row] = acc
                row += 1

    def _add_moment_force(self, g_pi: np.ndarray, u: np.ndarray,
                          force: np.ndarray,
                          tau_field: np.ndarray | None) -> None:
        """Add the projected Guo second-moment source to ``g_pi`` in place."""
        lat = self.lat
        if tau_field is None:
            pref = 1.0 - 0.5 / self.tau
        else:
            if self._pref_buf is None:
                self._pref_buf = np.empty_like(tau_field)
            pref = self._pref_buf
            np.divide(-0.5, tau_field, out=pref)
            pref += 1.0
        if self._src_buf is None:
            self._src_buf = (np.empty(g_pi.shape[1]), np.empty(g_pi.shape[1]))
        src, tmp = self._src_buf
        for k, (a, b) in enumerate(lat.pair_tuples):
            np.multiply(u[a], force[b], out=src)
            np.multiply(u[b], force[a], out=tmp)
            src += tmp
            src *= pref
            g_pi[k] += src

    def step(self, m: np.ndarray, boundaries,
             solid: np.ndarray | None, tel=NULL_TELEMETRY,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None) -> None:
        """Advance the ``(M, *grid)`` moment field one step in place.

        ``solid`` holds the flat solid-node indices (:func:`solid_index`);
        ``force`` is an optional ``(D, *grid)`` body-force field (the
        projected Guo coupling); ``tau_field`` an optional ``(*grid,)``
        per-node relaxation time (MR-P only, see :meth:`_collide`).
        """
        lat = self.lat
        if tau_field is not None and self.scheme != "MR-P":
            raise ValueError(
                "per-node tau_field collision is implemented for the MR-P "
                "scheme only"
            )
        mf = m.reshape(lat.n_moments, -1)
        with tel.phase("collide"):
            self._collide(
                mf,
                force=None if force is None else force.reshape(lat.d, -1),
                tau_field=None if tau_field is None
                else tau_field.reshape(-1))
            np.matmul(self._rcext, self._g,
                      out=self._f_star.reshape(lat.q, -1))
        with tel.phase("stream"):
            self._stream(self._f_star, self._f_new)
        with tel.phase("boundary"):
            for b in hooked(boundaries, "post_stream"):
                b.post_stream(lat, self._f_new, self._f_star)
        with tel.phase("macroscopic"):
            np.matmul(self._mm, self._f_new.reshape(lat.q, -1), out=mf)
            if solid is not None:
                mf[:, solid] = 0.0
                mf[0, solid] = 1.0
