"""Batched fused step kernels: one kernel invocation, N simulations.

On small and medium domains the per-step cost of the fused fast path is
dominated by fixed Python dispatch — a couple dozen NumPy calls whose
per-call overhead dwarfs the arithmetic once the grid fits in cache.
That is exactly the regime of parameter sweeps and ensembles
(EXPERIMENTS-style Re/τ/resolution scans), where the workload is *many
independent small simulations*, not one big one.

The cores here add a leading **batch axis** to the fused kernels of
:mod:`repro.accel.fused`: the distribution state becomes ``f[B, Q, *grid]``
(moments ``m[B, M, *grid]``) and every stage of the step runs once for
the whole ensemble:

* the moment projections ``m = P f`` and reconstructions (Eq. 11 /
  Eq. 14) are **stacked-column dgemms** — ``np.matmul`` broadcasts the
  ``(M, Q) @ (Q, N)`` product over the batch axis, so BLAS sees ``B``
  back-to-back well-shaped gemms from one call instead of ``B``
  Python-dispatched ones;
* streaming is a **single gather**: the flat
  :class:`~repro.accel.tables.NeighborTable` indices are applied to the
  ``(B, Q·N)`` view in one ``np.take``, one pass for the whole ensemble;
* collision, forcing and solid pinning broadcast over the batch with
  per-member parameters — each member keeps its own relaxation time
  ``τ_k`` (``keep``/Guo prefactors are ``(B, 1, 1)`` columns) and its
  own body-force field.

Per-member arithmetic is operation-for-operation the arithmetic of the
single-simulation fused cores on the member's contiguous ``(Q, N)``
block, so every member of a batched run reproduces its independent
fused run to machine precision (pinned by
``tests/unit/test_accel_batched.py``). Boundary condition objects are
per-member state (they may be bound to member-specific τ/profiles), so
the hooks run member by member on array views — an ``O(surface)`` loop
riding on ``O(volume)`` batched stages.

What is deliberately shared across a batch: the lattice, the grid shape
and the solid geometry (the ensemble packer only groups simulations of
matching ``(kind, scheme, lattice, shape)``). Per-node ``tau_field``
collision and the ``tau_bulk`` trace split stay single-simulation
features for now.

The solver-facing driver for these cores is
:class:`repro.ensemble.EnsembleRunner`; solvers opt in through the
``batched: True`` flag of their ``accel_caps`` declaration (see
:mod:`repro.accel`).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.streaming import stream_push
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from .fused import STREAM_MODES, hooked
from .tables import neighbor_table

__all__ = ["BatchedFusedSTCore", "BatchedFusedMRCore"]


def _as_taus(taus, batch: int | None = None) -> np.ndarray:
    """Validate and normalize the per-member relaxation times ``(B,)``."""
    arr = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"taus must be a non-empty 1-D sequence, got "
                         f"shape {arr.shape}")
    if batch is not None and arr.size != batch:
        raise ValueError(f"expected {batch} relaxation times, got {arr.size}")
    if (arr <= 0.5).any():
        raise ValueError(f"every tau must exceed 1/2, got {arr}")
    return arr


class _BatchedStream:
    """Shared batched streaming: one flat gather over the ``(B, Q·N)`` view.

    ``"auto"`` resolves to ``"gather"`` here (unlike the single-simulation
    cores, where rolls win): the table gather amortizes its index pass
    over all ``B`` members in one ``np.take``, while rolls would pay
    ``B x Q x D`` Python-dispatched slice copies — the exact overhead the
    batch axis exists to remove. ``"roll"`` remains selectable for
    debugging (it is bit-identical: streaming is a pure permutation).
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 stream: str):
        if stream not in STREAM_MODES:
            raise ValueError(f"unknown streaming mode {stream!r}; expected "
                             f"one of {STREAM_MODES}")
        self.lat = lat
        self.stream_mode = "gather" if stream == "auto" else stream
        self._table = (neighbor_table(lat, tuple(shape))
                       if self.stream_mode == "gather" else None)

    def __call__(self, f: np.ndarray, out: np.ndarray) -> None:
        """Stream the batched field ``f[B, Q, *grid]`` into ``out``."""
        if self._table is not None:
            # mode="clip" is semantically a no-op (the table indices are
            # in-range by construction) but skips NumPy's bounce-buffer
            # path for out= takes — measurably faster on large batches.
            b = f.shape[0]
            np.take(f.reshape(b, -1), self._table.flat, axis=1,
                    out=out.reshape(b, -1), mode="clip")
        else:
            for k in range(f.shape[0]):
                stream_push(self.lat, f[k], out=out[k])


def _member_boundaries(boundaries, batch: int):
    """Normalize the per-member boundary lists (``None`` -> no boundaries)."""
    if boundaries is None:
        return [()] * batch
    blists = list(boundaries)
    if len(blists) != batch:
        raise ValueError(f"expected {batch} per-member boundary lists, "
                         f"got {len(blists)}")
    return [tuple(bl) if bl else () for bl in blists]


def _member_hooks(blists, hook: str):
    """``(member, boundary)`` pairs whose boundary implements ``hook``."""
    return [(k, b) for k, bl in enumerate(blists) for b in hooked(bl, hook)]


class BatchedFusedSTCore:
    """Batched fused stream+collide for the two-lattice ST scheme (BGK).

    One :meth:`step` advances ``B`` independent simulations held in
    ``f[B, Q, *grid]``: a single gather streams the whole ensemble, the
    per-member boundary hooks run on views, and one broadcast-matmul
    collision relaxes every member with its own ``τ_k``. The arithmetic
    on each member's block mirrors :class:`repro.accel.fused.FusedSTCore`
    operation for operation, so members track their independent fused
    runs to machine precision.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 taus, stream: str = "auto"):
        self.lat = lat
        self.shape = tuple(shape)
        self.taus = _as_taus(taus)
        self.batch = int(self.taus.size)
        #: per-member ``1 - 1/tau`` as a ``(B, 1, 1)`` broadcast column.
        self._keep = (1.0 - 1.0 / self.taus)[:, None, None]
        self._stream = _BatchedStream(lat, self.shape, stream)
        self.stream_mode = self._stream.stream_mode
        b, n, m = self.batch, int(np.prod(self.shape)), lat.n_moments
        self._mm = np.ascontiguousarray(lat.moment_matrix)
        self._rc = np.ascontiguousarray(lat.reconstruction_matrix)
        self._m = np.empty((b, m, n))
        self._meq = np.empty((b, m, n))
        self._u = np.empty((b, lat.d, n))
        self._feq = np.empty((b, lat.q, n))
        self._force_bufs = None

    def _ensure_force_bufs(self) -> tuple:
        """Scratch for the fused Guo source (allocated on first forced step)."""
        if self._force_bufs is None:
            lat = self.lat
            b, n = self.batch, self._m.shape[2]
            self._force_bufs = (
                np.ascontiguousarray(lat.c, dtype=np.float64),  # (Q, D)
                np.empty((b, lat.q, n)),                        # c . F
                np.empty((b, lat.q, n)),                        # c . u
                np.empty((b, lat.d, n)),                        # u_a F_a terms
                np.empty((b, 1, n)),                            # u . F
                # per-member Guo prefactor (1 - 1/(2 tau_k)) w_i, (B, Q, 1)
                ((1.0 - 0.5 / self.taus)[:, None, None]
                 * lat.w[None, :, None]),
            )
        return self._force_bufs

    def _guo_source(self, ff: np.ndarray) -> np.ndarray:
        """Batched fused Guo source for the flat forces ``ff[B, D, N]``.

        Same in-place build as the single-simulation core (division by
        ``cs2``/``cs4`` included), broadcast over the batch axis with the
        per-member prefactor column. Returns the core-owned ``(B, Q, N)``
        source buffer.
        """
        lat = self.lat
        cmat, cf, cu, uftmp, uf, wpref = self._ensure_force_bufs()
        np.matmul(cmat, ff, out=cf)
        np.matmul(cmat, self._u, out=cu)
        np.multiply(self._u, ff, out=uftmp)
        np.sum(uftmp, axis=1, keepdims=True, out=uf)
        cu *= cf
        cu /= lat.cs4
        cf -= uf
        cf /= lat.cs2
        cf += cu
        cf *= wpref
        return cf

    def _moments_and_feq(self, fs: np.ndarray,
                         ff: np.ndarray | None) -> None:
        """Fill ``_m``/``_u``/``_meq``/``_feq`` from ``fs[B, Q, N]``."""
        lat = self.lat
        d = lat.d
        np.matmul(self._mm, fs, out=self._m)
        rho = self._m[:, 0]
        meq = self._meq
        meq[:, 0] = rho
        if ff is None:
            np.divide(self._m[:, 1:1 + d], rho[:, None], out=self._u)
            meq[:, 1:1 + d] = self._m[:, 1:1 + d]
        else:
            # u = (j + F/2)/rho; the equilibrium momentum is rho u.
            np.multiply(ff, 0.5, out=self._u)
            self._u += self._m[:, 1:1 + d]
            self._u /= rho[:, None]
            np.multiply(self._u, rho[:, None], out=meq[:, 1:1 + d])
        for k, (a, b) in enumerate(lat.pair_tuples):
            np.multiply(self._u[:, a], self._u[:, b], out=meq[:, 1 + d + k])
            meq[:, 1 + d + k] *= rho
        np.matmul(self._rc, meq, out=self._feq)

    def step(self, f: np.ndarray, scratch: np.ndarray, boundaries=None,
             solid: np.ndarray | None = None, tel=NULL_TELEMETRY,
             force: np.ndarray | None = None) -> None:
        """Advance the whole ensemble one step in place.

        ``f``/``scratch`` are ``(B, Q, *grid)``; ``boundaries`` is an
        optional sequence of ``B`` per-member boundary lists (bound
        objects, applied on member views); ``solid`` the shared flat
        solid-node indices (``repro.accel.fused.solid_index``); ``force``
        an optional ``(B, D, *grid)`` per-member body-force field (all
        members forced, or none).
        """
        lat = self.lat
        blists = _member_boundaries(boundaries, self.batch)
        with tel.phase("stream"):
            self._stream(f, scratch)
        with tel.phase("boundary"):
            for k, b in _member_hooks(blists, "post_stream"):
                b.post_stream(lat, scratch[k], f[k])
        with tel.phase("collide"):
            fs = scratch.reshape(self.batch, lat.q, -1)
            ff = (None if force is None
                  else force.reshape(self.batch, lat.d, -1))
            self._moments_and_feq(fs, ff)
            out = f.reshape(self.batch, lat.q, -1)
            np.subtract(fs, self._feq, out=out)
            out *= self._keep
            out += self._feq
            if ff is not None:
                out += self._guo_source(ff)
            if solid is not None:
                out[:, :, solid] = lat.w[None, :, None]
        post = _member_hooks(blists, "post_collide")
        if post:
            with tel.phase("boundary"):
                for k, b in post:
                    b.post_collide(lat, f[k], scratch[k])


class BatchedFusedMRCore:
    """Batched fused moment-representation step (MR-P or MR-R).

    The persistent ensemble state is the ``(B, M, *grid)`` moment field;
    each step runs moments -> f* -> streamed f -> moments with one
    broadcast dgemm per linear stage and one flat gather for streaming,
    per-member ``τ_k`` throughout. The distribution field only exists in
    the two core-owned batched scratch lattices, exactly as in the
    single-simulation :class:`repro.accel.fused.FusedMRCore` (whose
    collision arithmetic each member's block mirrors exactly).

    Per-node ``tau_field`` collision and the ``tau_bulk`` trace split
    are not batched (see the module docstring).
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 taus, scheme: str = "MR-P", stream: str = "auto"):
        if scheme not in ("MR-P", "MR-R"):
            raise ValueError(f"scheme must be MR-P or MR-R, got {scheme!r}")
        self.lat = lat
        self.shape = tuple(shape)
        self.taus = _as_taus(taus)
        self.batch = int(self.taus.size)
        self.scheme = scheme
        self._keep = (1.0 - 1.0 / self.taus)[:, None, None]
        self._pref = (1.0 - 0.5 / self.taus)[:, None]
        self._stream = _BatchedStream(lat, self.shape, stream)
        self.stream_mode = self._stream.stream_mode
        b, n = self.batch, int(np.prod(self.shape))
        d, m = lat.d, lat.n_moments
        self._mm = np.ascontiguousarray(lat.moment_matrix)
        self._u = np.empty((b, d, n))
        self._pi_eq = np.empty((b, lat.n_pairs, n))
        self._pi_neq = np.empty((b, lat.n_pairs, n))
        self._src_buf = None
        self._f_star = np.empty((b, lat.q, *self.shape))
        self._f_new = np.empty((b, lat.q, *self.shape))
        if scheme == "MR-P":
            self._rcext = np.ascontiguousarray(lat.reconstruction_matrix)
            self._g = np.empty((b, m, n))
            self._a34_specs = None
        else:
            # Same precomputed [R | E3 | E4] block and recursion recipes
            # as the single-simulation core (see FusedMRCore.__init__).
            s3, s4 = lat.h3_supported, lat.h4_supported
            w3 = lat.triple_mult[s3] / (6.0 * lat.cs6)
            w4 = lat.quad_mult[s4] / (24.0 * lat.cs8)
            e3 = lat.w[:, None] * lat.h3_reg_cols[:, s3] * w3[None, :]
            e4 = lat.w[:, None] * lat.h4_reg_cols[:, s4] * w4[None, :]
            self._rcext = np.ascontiguousarray(
                np.hstack([lat.reconstruction_matrix, e3, e4]))
            self._g = np.empty((b, m + s3.size + s4.size, n))
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

    def _collide(self, mf: np.ndarray, force: np.ndarray | None) -> None:
        """Fill the coefficient block ``G`` from ``mf[B, M, N]``.

        Mirrors :meth:`repro.accel.fused.FusedMRCore._collide` with the
        scalar relaxation factors promoted to per-member broadcast
        columns; forced batches add the projected Guo source moments
        with the per-member ``1 - 1/(2 tau_k)`` prefactor.
        """
        lat = self.lat
        d = lat.d
        rho, j, pi = mf[:, 0], mf[:, 1:1 + d], mf[:, 1 + d:]
        u = self._u
        if force is None:
            np.divide(j, rho[:, None], out=u)
        else:
            np.multiply(force, 0.5, out=u)
            u += j
            u /= rho[:, None]
        for k, (a, b) in enumerate(lat.pair_tuples):
            np.multiply(u[:, a], u[:, b], out=self._pi_eq[:, k])
            self._pi_eq[:, k] *= rho
        np.subtract(pi, self._pi_eq, out=self._pi_neq)
        g = self._g
        g[:, 0] = rho
        if force is None:
            g[:, 1:1 + d] = j
        else:
            np.add(j, force, out=g[:, 1:1 + d])
        g_pi = g[:, 1 + d:1 + d + lat.n_pairs]
        np.multiply(self._pi_neq, self._keep, out=g_pi)
        g_pi += self._pi_eq
        if force is not None:
            self._add_moment_force(g_pi, u, force)
        if self._a34_specs is not None:
            trip, quads = self._a34_specs
            keep = self._keep[:, :, 0]      # (B, 1) against (B, N) rows
            row = 1 + d + lat.n_pairs
            for (a, b, c), terms in trip:
                acc = rho * u[:, a] * u[:, b] * u[:, c]
                for v, p in terms:
                    acc += keep * (u[:, v] * self._pi_neq[:, p])
                g[:, row] = acc
                row += 1
            for (a, b, c, e), terms in quads:
                acc = rho * u[:, a] * u[:, b] * u[:, c] * u[:, e]
                for r0, r1, p in terms:
                    acc += keep * (u[:, r0] * u[:, r1] * self._pi_neq[:, p])
                g[:, row] = acc
                row += 1

    def _add_moment_force(self, g_pi: np.ndarray, u: np.ndarray,
                          force: np.ndarray) -> None:
        """Add the projected Guo second-moment source to ``g_pi`` in place."""
        lat = self.lat
        if self._src_buf is None:
            b, n = g_pi.shape[0], g_pi.shape[2]
            self._src_buf = (np.empty((b, n)), np.empty((b, n)))
        src, tmp = self._src_buf
        for k, (a, b) in enumerate(lat.pair_tuples):
            np.multiply(u[:, a], force[:, b], out=src)
            np.multiply(u[:, b], force[:, a], out=tmp)
            src += tmp
            src *= self._pref
            g_pi[:, k] += src

    def step(self, m: np.ndarray, boundaries=None,
             solid: np.ndarray | None = None, tel=NULL_TELEMETRY,
             force: np.ndarray | None = None) -> None:
        """Advance the ``(B, M, *grid)`` ensemble moment field one step.

        ``boundaries`` is an optional sequence of ``B`` per-member
        boundary lists; ``force`` an optional ``(B, D, *grid)``
        per-member body-force field.
        """
        lat = self.lat
        blists = _member_boundaries(boundaries, self.batch)
        mf = m.reshape(self.batch, lat.n_moments, -1)
        with tel.phase("collide"):
            self._collide(mf, force=None if force is None
                          else force.reshape(self.batch, lat.d, -1))
            np.matmul(self._rcext, self._g,
                      out=self._f_star.reshape(self.batch, lat.q, -1))
        with tel.phase("stream"):
            self._stream(self._f_star, self._f_new)
        with tel.phase("boundary"):
            for k, b in _member_hooks(blists, "post_stream"):
                b.post_stream(lat, self._f_new[k], self._f_star[k])
        with tel.phase("macroscopic"):
            np.matmul(self._mm, self._f_new.reshape(self.batch, lat.q, -1),
                      out=mf)
            if solid is not None:
                mf[:, :, solid] = 0.0
                mf[:, 0, solid] = 1.0
