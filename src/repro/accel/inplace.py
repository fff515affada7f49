"""Single-lattice in-place streaming cores (the ``"aa"`` backend).

The fused kernels in :mod:`repro.accel.fused` are two-lattice: every
step reads the full ``(Q, N)`` field and writes a second one, moving
``2 Q x 8`` bytes of lattice state per node per step — exactly the
propagation-traffic ceiling the source paper attacks, and twice the
persistent footprint the state actually needs. This module brings the
single-lattice idea of the reference :class:`repro.solver.aa.AASolver`
(Bailey's AA pattern; see the memory-traffic model in
``docs/ALGORITHMS.md``) into the backend seam, as an array-level
realization that stays *collide-identical* to the fused cores:

:class:`InplaceSTCore`
    One persistent lattice, two alternating step flavours. The
    even-parity step streams into core-owned scratch, runs exactly the
    fused BGK(+Guo) collision, and writes the relaxed populations back
    *pre-streamed* — each component shifted by its own velocity, so the
    array ends holding ``S(f_{t+1})`` (the state the next stream pass
    would have produced). The odd-parity step therefore needs **no
    streaming pass at all**: it collides fully in place and leaves the
    natural ``f_{t+2}``. Over a step pair this removes one of the two
    per-pair streaming traversals (the measured MLUPS gain on
    memory-bound cells) while every even-time state matches the fused
    two-lattice trajectory bit for bit. With boundary objects present
    the core falls back to the conservative per-step path (identical to
    :class:`~repro.accel.fused.FusedSTCore`, scratch owned by the core),
    so the full feature matrix — boundaries, solids, Guo forcing — stays
    supported with trivial parity.

:class:`InplaceMRCore`
    The moment-representation analogue: the persistent state is the
    moment field, and the distribution exists in **one** core-owned
    lattice instead of the fused core's two. Reconstruction writes into
    that single buffer, and the streaming + re-projection collapse into
    a slab-wise gather-project: the pull-stream of each leading-axis
    chunk lands in an L2-sized scratch block via wrap-block slice
    copies and is immediately projected back to moments (one small
    dgemm per slab), eliminating the second lattice's store+load
    entirely. Supports
    MR-P/MR-R, solids, moment-space Guo forcing and the per-node
    ``tau_field`` collision; with boundary objects present the stepper
    in :mod:`repro.accel` falls back to the two-buffer fused core.

Layout helpers
--------------
At odd times the lean ST state is stored component-shifted ("AA
layout"). :func:`natural_to_aa` / :func:`aa_to_natural` convert between
that layout and the natural one with exact per-component rolls (pure
permutations, so round trips are bit-exact). They back the
checkpoint-layout canonicalization in :mod:`repro.io.checkpoint` —
checkpoints are always written in natural layout, so they stay
compatible across backends and across odd/even resume points — and the
odd-parity macroscopic evaluation of
:meth:`repro.solver.standard.STSolver.macroscopic`.
"""

from __future__ import annotations

import numpy as np

from ..core.streaming import stream_push
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from .fused import FusedMRCore, FusedSTCore, solid_index

__all__ = [
    "InplaceSTCore",
    "InplaceMRCore",
    "natural_to_aa",
    "aa_to_natural",
]


def natural_to_aa(lat: LatticeDescriptor, f: np.ndarray) -> np.ndarray:
    """Natural post-collision state -> component-shifted AA layout.

    ``out[i] = roll(f[i], +c_i)`` — the pull-stream displacement applied
    eagerly, i.e. exactly the array the lean even-parity step of
    :class:`InplaceSTCore` leaves behind. Pure permutation per
    component, hence bit-exact and inverted by :func:`aa_to_natural`.
    """
    out = np.empty_like(f)
    stream_push(lat, f, out=out)
    return out


def aa_to_natural(lat: LatticeDescriptor, f: np.ndarray) -> np.ndarray:
    """Component-shifted AA layout -> natural state (inverse roll).

    ``out[i] = roll(f[i], -c_i)``, undoing :func:`natural_to_aa`
    exactly. Used to canonicalize odd-time checkpoints and to evaluate
    macroscopic fields at odd parity without mutating the solver state.
    """
    axes = tuple(range(f.ndim - 1))
    out = np.empty_like(f)
    for i in range(lat.q):
        out[i] = np.roll(f[i], shift=tuple(-lat.c[i]), axis=axes)
    return out


def _shift_blocks(shape: tuple[int, ...], c) -> list[tuple[tuple, tuple]]:
    """Slice-pair decomposition of ``dst = roll(src, +c)`` over ``shape``.

    Returns ``(dst, src)`` tuples of per-axis slices such that assigning
    ``dst[...] = src[...]`` block by block reproduces ``np.roll`` with
    shift ``c`` exactly — at most ``2**d`` contiguous wrap blocks, each a
    plain view, so the scatter-relax loop of :class:`InplaceSTCore` can
    fuse the roll into the collision write with zero temporaries.
    """
    per_axis: list[list[tuple[slice, slice]]] = []
    for size, comp in zip(shape, c):
        s = int(comp) % size
        if s == 0:
            per_axis.append([(slice(None), slice(None))])
        else:
            per_axis.append([
                (slice(s, None), slice(0, size - s)),
                (slice(0, s), slice(size - s, None)),
            ])
    blocks: list[tuple[tuple, tuple]] = [((), ())]
    for segments in per_axis:
        blocks = [(dst + (d,), src + (s,))
                  for dst, src in blocks for d, s in segments]
    return blocks


class InplaceSTCore(FusedSTCore):
    """Single-lattice AA-pattern ST step (BGK, optional Guo forcing).

    Subclasses :class:`~repro.accel.fused.FusedSTCore` so the collision
    arithmetic is *shared code*, not a copy: both paths build moments,
    velocity, equilibrium and the Guo source through the same
    ``_moments_and_feq`` / ``_guo_source`` bodies, and the lean steps
    only change where the relaxed populations land. State convention
    (time ``t`` = steps completed):

    * even ``t``: ``f`` holds the natural post-collision lattice —
      bit-identical to the fused two-lattice state;
    * odd ``t`` (lean mode only): ``f`` holds the *pre-streamed* next
      input, ``f[i] = roll(f_nat[i], +c_i)`` (AA layout).

    :meth:`step_scatter` advances even -> odd, :meth:`step_local`
    odd -> even; the caller (see ``repro.accel`` steppers) derives the
    parity from the solver clock, so checkpoint/resume at any parity is
    just a matter of restoring the clock. :meth:`step_bounded` is the
    conservative every-step-natural fallback used whenever boundary
    objects are present (their hooks see full natural arrays, exactly as
    in the fused core).
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 tau: float, stream: str = "auto",
                 solid_mask: np.ndarray | None = None,
                 scatter: str = "auto"):
        super().__init__(lat, shape, tau, stream=stream)
        self._scratch = np.empty((lat.q, *self.shape))
        self._blocks = [_shift_blocks(self.shape, lat.c[i])
                        for i in range(lat.q)]
        self.solid = None if solid_mask is None else solid_index(solid_mask)
        if scatter == "auto":
            # "copy" measures faster on both 2-D and 3-D grids on the
            # hosts benchmarked so far: its extra contiguous pass is
            # cheaper than pushing 3-4 elementwise ops through strided
            # wrap-block views (see docs/ALGORITHMS.md).
            scatter = "copy"
        if scatter not in ("fused", "copy"):
            raise ValueError(f"unknown scatter strategy {scatter!r}")
        self.scatter = scatter

    def step_scatter(self, f: np.ndarray, tel=NULL_TELEMETRY,
                     force: np.ndarray | None = None) -> None:
        """Even-parity lean step: natural ``f_t`` -> AA-layout ``f_{t+1}``.

        Streams into core scratch, collides exactly as the fused core,
        and lands the relaxed populations back shifted by ``+c_i``,
        pre-streaming the next step. Two scatter strategies (see
        :attr:`scatter` and the traffic notes in ``docs/ALGORITHMS.md``):
        ``"fused"`` writes the relaxation directly through the wrap-block
        destination views (fewest array passes; best when the innermost
        axis is long relative to the per-view inner-loop overhead, i.e.
        2-D grids), while ``"copy"`` relaxes in place on the contiguous
        scratch and then block-copies it shifted (one extra pass, but
        every elementwise op runs at contiguous speed — the right trade
        on 3-D grids, where wrap slivers degenerate to one-element inner
        loops). Solid nodes are pinned at rest equilibrium at their
        shifted slots; both strategies are bit-identical.
        """
        lat = self.lat
        with tel.phase("stream:gather"):
            self._stream(f, self._scratch)
        if self.scatter == "copy":
            with tel.phase("collide"):
                fs = self._scratch.reshape(lat.q, -1)
                ff = None if force is None else force.reshape(lat.d, -1)
                self._moments_and_feq(fs, ff)
                np.subtract(fs, self._feq, out=fs)
                fs *= self.keep
                fs += self._feq
                if ff is not None:
                    self._add_guo_source(fs, ff)
                if self.solid is not None:
                    fs[:, self.solid] = lat.w[:, None]
            with tel.phase("stream:scatter"):
                for i in range(lat.q):
                    fi, si = f[i], self._scratch[i]
                    for dst, src in self._blocks[i]:
                        fi[dst] = si[src]
            return
        with tel.phase("collide"):
            fs = self._scratch.reshape(lat.q, -1)
            ff = None if force is None else force.reshape(lat.d, -1)
            self._moments_and_feq(fs, ff)
            cf = None if ff is None else self._guo_source(ff)
            if self.solid is not None:
                # Pin pre-scatter: the relax below reads scratch and feq
                # block-wise, so force the relaxed value (feq would be
                # overwritten) by making both operands the rest weight.
                fs[:, self.solid] = lat.w[:, None]
                self._feq[:, self.solid] = lat.w[:, None]
                if cf is not None:
                    cf[:, self.solid] = 0.0
        with tel.phase("stream:scatter"):
            grid = (lat.q, *self.shape)
            feq_g = self._feq.reshape(grid)
            cf_g = None if cf is None else cf.reshape(grid)
            keep = self.keep
            for i in range(lat.q):
                fi, si, ei = f[i], self._scratch[i], feq_g[i]
                ci = None if cf_g is None else cf_g[i]
                for dst, src in self._blocks[i]:
                    # f*(x)[i] -> f[i] at x + c_i: the fused relax
                    # (and Guo source add), written through the
                    # roll-shifted destination view.
                    dview = fi[dst]
                    np.subtract(si[src], ei[src], out=dview)
                    dview *= keep
                    dview += ei[src]
                    if ci is not None:
                        dview += ci[src]

    def step_local(self, f: np.ndarray, tel=NULL_TELEMETRY,
                   force: np.ndarray | None = None) -> None:
        """Odd-parity lean step: AA-layout ``f_{t+1}`` -> natural ``f_{t+2}``.

        The array already holds the streamed input, so the whole step is
        one in-place collision — no streaming traversal. This is the
        saved memory pass of the AA pattern.
        """
        lat = self.lat
        with tel.phase("collide"):
            fs = f.reshape(lat.q, -1)
            ff = None if force is None else force.reshape(lat.d, -1)
            self._moments_and_feq(fs, ff)
            np.subtract(fs, self._feq, out=fs)
            fs *= self.keep
            fs += self._feq
            if ff is not None:
                self._add_guo_source(fs, ff)
            if self.solid is not None:
                fs[:, self.solid] = lat.w[:, None]

    def step_bounded(self, f: np.ndarray, boundaries,
                     solid: np.ndarray | None, tel=NULL_TELEMETRY,
                     force: np.ndarray | None = None) -> None:
        """Conservative step for bounded problems (state natural every step).

        Delegates to the two-lattice fused step against the core-owned
        scratch, so boundary hooks observe exactly the arrays they were
        written against; the solver's persistent state is still the
        single lattice.
        """
        super().step(f, self._scratch, boundaries, solid, tel, force=force)


class InplaceMRCore(FusedMRCore):
    """Single-buffer moment-representation step (MR-P / MR-R).

    Identical collision + reconstruction to
    :class:`~repro.accel.fused.FusedMRCore` (shared ``_collide``), but
    the reconstructed distribution lands in **one** core-owned lattice
    and the streamed re-projection is evaluated slab by slab: the
    pull-stream of a leading-axis chunk is gathered into an L2-sized
    buffer with roll-equivalent wrap-block slice copies (no index
    table — a ``(Q, N)`` int64 table would itself cost a lattice worth
    of memory), then projected with one small dgemm while still
    cache-hot. The second distribution buffer — and its full
    store+load traversal — disappears. Boundary objects are not
    supported here (their hooks need the full streamed array); the
    ``"aa"`` stepper falls back to the fused core for bounded problems.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 tau: float, scheme: str = "MR-P",
                 tau_bulk: float | None = None, tile: int = 65536):
        super().__init__(lat, shape, tau, scheme=scheme, tau_bulk=tau_bulk,
                         stream="auto", alloc_f=False)
        self._f = np.empty((lat.q, *self.shape))
        # Slab decomposition of the pull-stream: ``tile`` is the target
        # node count per chunk, rounded to whole leading-axis slabs so
        # every gather is a wrap-block *slice copy* (roll-equivalent; no
        # index table, which would itself cost a lattice worth of int64).
        n0 = self.shape[0]
        tail = int(np.prod(self.shape[1:], dtype=np.int64)) or 1
        self._slab = max(1, min(n0, max(int(tile), 1) // tail or 1))
        self._tail_blocks = [_shift_blocks(self.shape[1:], lat.c[i][1:])
                             for i in range(lat.q)]
        self._row_shift = [int(lat.c[i][0]) % n0 for i in range(lat.q)]
        self._gbuf = np.empty((lat.q, self._slab, *self.shape[1:]))

    def step(self, m: np.ndarray, boundaries,
             solid: np.ndarray | None, tel=NULL_TELEMETRY,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None) -> None:
        """Advance the ``(M, *grid)`` moment field one step in place
        (``solid``: flat solid-node indices, see ``solid_index``)."""
        lat = self.lat
        if boundaries:
            raise ValueError(
                "InplaceMRCore supports boundary-free problems only; the "
                "'aa' stepper uses the two-buffer fused core when boundary "
                "objects are present"
            )
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
            np.matmul(self._rcext, self._g, out=self._f.reshape(lat.q, -1))
        with tel.phase("stream:project"):
            n0 = self.shape[0]
            tail = int(np.prod(self.shape[1:], dtype=np.int64)) or 1
            for a0 in range(0, n0, self._slab):
                a1 = min(a0 + self._slab, n0)
                rows = a1 - a0
                gb = self._gbuf[:, :rows]
                for qi in range(lat.q):
                    # streamed[qi] rows [a0:a1) = roll(f[qi], +c) there:
                    # leading-axis source rows start at (a0 - c0) mod n0
                    # (at most one wrap), trailing axes via wrap blocks.
                    src0 = (a0 - self._row_shift[qi]) % n0
                    first = min(rows, n0 - src0)
                    pieces = [(slice(0, first), slice(src0, src0 + first))]
                    if first < rows:
                        pieces.append((slice(first, rows),
                                       slice(0, rows - first)))
                    for gdst, fsrc in pieces:
                        for dst_t, src_t in self._tail_blocks[qi]:
                            gb[qi][(gdst, *dst_t)] = \
                                self._f[qi][(fsrc, *src_t)]
                np.matmul(self._mm, gb.reshape(lat.q, -1),
                          out=mf[:, a0 * tail:a1 * tail])
            if solid is not None:
                mf[:, solid] = 0.0
                mf[0, solid] = 1.0
