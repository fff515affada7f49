"""Selectable fast-path execution backends for the host solvers.

This package is the architecture seam for host-side acceleration: the
reference solvers in :mod:`repro.solver` stay the line-for-line
transcription of the paper's algorithms, while the cores here provide
faster realizations of the *same* steps, selected per solver via
``Solver(..., backend=...)`` or ``mrlbm run/profile --accel``:

``"reference"``
    The solvers' own step methods — the validated baseline.
``"fused"``
    Pure-NumPy fused kernels (:mod:`repro.accel.fused`): BLAS-backed
    moment projections, preallocated buffers, no post-collision
    temporary. Always available.
``"aa"``
    Single-lattice in-place streaming (:mod:`repro.accel.inplace`):
    the AA pattern of the reference ``solver/aa.py`` fused with the
    same collision arithmetic as ``"fused"``. One persistent lattice
    (half the ST state footprint), and on boundary-free problems one
    streaming traversal per step *pair* instead of one per step — the
    memory-traffic model is derived in ``docs/ALGORITHMS.md``. Always
    available; falls back to conservative fused-identical steps when
    boundary objects are present (reported as the stepper's
    ``"bounded-fallback"`` path).
``"sparse"``
    Compact-state kernels (:mod:`repro.accel.sparse`) for sparse
    geometries: the working state shrinks to the fluid-node index list
    of a :class:`~repro.accel.tables.MaskedNeighborTable`, streaming is
    one bounce-back-folded gather, and the fused collision dgemms run
    over ``n_fluid`` columns instead of the dense grid. Always
    available; the win scales with the solid fraction (see
    ``docs/ALGORITHMS.md``). Boundaries with custom post-collide hooks
    (full-way bounce-back) are rejected; inlets and outlets take the
    reported ``"dense-fallback"`` path.
``"numba"``
    JIT kernels (:mod:`repro.accel.numba_backend`) that fuse the
    table-driven streaming gather into the adjacent compute stage.
    Requires the optional ``numba`` extra (``pip install .[accel]``).

Every backend reproduces the reference trajectory to machine precision
(pinned by ``tests/unit/test_accel_backends.py``). Each stepper names
the path it takes in ``path`` — ``"lean"``, ``"bounded-fallback"`` or
``"dense-fallback"`` — which ``Solver.accel_path`` exposes and
``mrlbm run``/``profile`` print and record. Use
:func:`available_backends` for runtime discovery,
:func:`validate_backend` to check a solver/backend combination at
construction time, and :func:`make_stepper` to bind a backend to a
constructed solver.

Capability handshake
--------------------
Fast paths are not inferred from the class hierarchy: a solver class
opts in by declaring an ``accel_caps`` dict **in its own class body**
(inherited declarations do not count, so a subclass that overrides
physics is rejected until it certifies its own compatibility)::

    accel_caps = {"family": "st"}                       # STSolver
    accel_caps = {"family": "mr", "scheme": "MR-P"}     # MRPSolver
    accel_caps = {"family": "mr", "scheme": "MR-P",
                  "variable_tau": True}                 # PowerLawMRPSolver

``family`` selects the kernel family (``"st"`` two-lattice BGK,
``"mr"`` moment representation with ``scheme`` ``"MR-P"``/``"MR-R"``).
``variable_tau: True`` means the solver exposes a grid-shaped
``tau_field`` and an ``_update_relaxation()`` hook, and the MR stepper
runs the per-node relaxation path each step. ``batched: True``
certifies the solver for lockstep ensemble execution through the
batched cores of :mod:`repro.accel.batched` — its state arrays may be
rebound to batch-array views and stepped by
:class:`repro.ensemble.EnsembleRunner` instead of its own step method.
"""

from __future__ import annotations

from .batched import BatchedFusedMRCore, BatchedFusedSTCore
from .fused import STREAM_MODES, FusedMRCore, FusedSTCore, solid_index
from .inplace import InplaceMRCore, InplaceSTCore, aa_to_natural, natural_to_aa
from .numba_backend import HAS_NUMBA, NumbaMRCore, NumbaSTCore
from .sparse import SparseMRCore, SparseSTCore
from .tables import (MaskedNeighborTable, NeighborTable, clear_cache,
                     neighbor_table, stream_gather)

__all__ = [
    "BACKENDS",
    "available_backends",
    "make_stepper",
    "validate_backend",
    "solver_caps",
    "solid_index",
    "FusedSTCore",
    "FusedMRCore",
    "BatchedFusedSTCore",
    "BatchedFusedMRCore",
    "InplaceSTCore",
    "InplaceMRCore",
    "natural_to_aa",
    "aa_to_natural",
    "NumbaSTCore",
    "NumbaMRCore",
    "SparseSTCore",
    "SparseMRCore",
    "NeighborTable",
    "MaskedNeighborTable",
    "neighbor_table",
    "stream_gather",
    "clear_cache",
    "HAS_NUMBA",
    "STREAM_MODES",
]

#: Recognized backend names, in preference order (numba last so that
#: :func:`available_backends` can drop it when the extra is missing).
BACKENDS = ("reference", "fused", "aa", "sparse", "numba")


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment (numba only if importable)."""
    return BACKENDS if HAS_NUMBA else BACKENDS[:-1]


class _FusedSTStepper:
    """Binds a :class:`FusedSTCore` to an :class:`~repro.solver.standard.STSolver`."""

    backend = "fused"
    path = "lean"

    def __init__(self, solver, stream: str = "auto"):
        self.core = FusedSTCore(solver.lat, solver.domain.shape, solver.tau,
                                stream=stream)
        self._solid = solid_index(solver.domain.solid_mask)

    def step(self, solver) -> None:
        """One fused ST step updating ``solver.f`` in place."""
        self.core.step(solver.f, solver._f_streamed, solver.boundaries,
                       self._solid, solver.telemetry, force=solver.force)


class _FusedMRStepper:
    """Binds a :class:`FusedMRCore` to an MR-P or MR-R family solver."""

    backend = "fused"
    path = "lean"

    def __init__(self, solver, scheme: str, variable_tau: bool = False,
                 stream: str = "auto"):
        self.core = FusedMRCore(
            solver.lat, solver.domain.shape, solver.tau, scheme=scheme,
            tau_bulk=None if variable_tau
            else getattr(solver, "tau_bulk", None),
            stream=stream, f_scratch=solver._f_scratch)
        self.variable_tau = variable_tau
        self._solid = solid_index(solver.domain.solid_mask)

    def step(self, solver) -> None:
        """One fused MR step updating ``solver.m`` in place."""
        tau_field = None
        if self.variable_tau:
            with solver.telemetry.phase("collide"):
                solver._update_relaxation()
            tau_field = solver.tau_field
        self.core.step(solver.m, solver.boundaries, self._solid,
                       solver.telemetry, force=solver.force,
                       tau_field=tau_field)


class _InplaceSTStepper:
    """Binds an :class:`InplaceSTCore` to an ST solver (the ``"aa"`` backend).

    On boundary-free problems the two lean step flavours alternate on
    the solver clock's parity (even time = natural layout, odd time =
    AA layout — see :mod:`repro.accel.inplace`); with boundary objects
    the conservative fused-identical step runs every time, keeping the
    state natural so the hooks and checkpoints see what they expect.
    """

    backend = "aa"

    def __init__(self, solver, stream: str = "auto"):
        solid = solver.domain.solid_mask
        self._solid = solid if solid.any() else None
        self.lean = not solver.boundaries
        self.path = "lean" if self.lean else "bounded-fallback"
        self.core = InplaceSTCore(
            solver.lat, solver.domain.shape, solver.tau, stream=stream,
            solid_mask=self._solid)

    def step(self, solver) -> None:
        """One single-lattice ST step updating ``solver.f`` in place."""
        if not self.lean:
            self.core.step_bounded(solver.f, solver.boundaries,
                                   self.core.solid, solver.telemetry,
                                   force=solver.force)
        elif solver.time % 2 == 0:
            self.core.step_scatter(solver.f, solver.telemetry,
                                   force=solver.force)
        else:
            self.core.step_local(solver.f, solver.telemetry,
                                 force=solver.force)


class _InplaceMRStepper:
    """Binds the single-buffer MR core to an MR solver (``"aa"`` backend).

    Boundary-free problems run :class:`InplaceMRCore` (one distribution
    buffer, tiled gather-project); bounded problems fall back to the
    two-buffer :class:`FusedMRCore` — same trajectory, no footprint win
    yet (see docs/ALGORITHMS.md).
    """

    backend = "aa"

    def __init__(self, solver, scheme: str, variable_tau: bool = False):
        self._solid = solid_index(solver.domain.solid_mask)
        self.variable_tau = variable_tau
        self.path = "bounded-fallback" if solver.boundaries else "lean"
        tau_bulk = (None if variable_tau
                    else getattr(solver, "tau_bulk", None))
        if solver.boundaries:
            self.core = FusedMRCore(solver.lat, solver.domain.shape,
                                    solver.tau, scheme=scheme,
                                    tau_bulk=tau_bulk)
        else:
            self.core = InplaceMRCore(solver.lat, solver.domain.shape,
                                      solver.tau, scheme=scheme,
                                      tau_bulk=tau_bulk)

    def step(self, solver) -> None:
        """One single-buffer MR step updating ``solver.m`` in place."""
        tau_field = None
        if self.variable_tau:
            with solver.telemetry.phase("collide"):
                solver._update_relaxation()
            tau_field = solver.tau_field
        self.core.step(solver.m, solver.boundaries, self._solid,
                       solver.telemetry, force=solver.force,
                       tau_field=tau_field)


class _SparseSTStepper:
    """Binds a :class:`SparseSTCore` to an ST solver (compact fluid state)."""

    backend = "sparse"

    def __init__(self, solver):
        self.core = SparseSTCore(solver.lat, solver.domain.solid_mask,
                                 solver.tau, boundaries=solver.boundaries)
        self.path = self.core.path

    def step(self, solver) -> None:
        """One compact-state ST step updating ``solver.f`` in place."""
        self.core.step(solver.f, solver.boundaries, solver.telemetry,
                       force=solver.force)


class _SparseMRStepper:
    """Binds a :class:`SparseMRCore` to an MR solver (compact fluid state)."""

    backend = "sparse"

    def __init__(self, solver, scheme: str, variable_tau: bool = False):
        self.core = SparseMRCore(
            solver.lat, solver.domain.solid_mask, solver.tau, scheme=scheme,
            tau_bulk=None if variable_tau
            else getattr(solver, "tau_bulk", None),
            boundaries=solver.boundaries)
        self.variable_tau = variable_tau
        self.path = self.core.path

    def step(self, solver) -> None:
        """One compact-state MR step updating ``solver.m`` in place."""
        tau_field = None
        if self.variable_tau:
            with solver.telemetry.phase("collide"):
                solver._update_relaxation()
            tau_field = solver.tau_field
        self.core.step(solver.m, solver.boundaries, solver.telemetry,
                       force=solver.force, tau_field=tau_field)


class _NumbaSTStepper:
    """Binds a :class:`NumbaSTCore` to an ST solver (periodic BGK only)."""

    backend = "numba"
    path = "lean"

    def __init__(self, solver):
        self.core = NumbaSTCore(solver.lat, solver.domain.shape, solver.tau)

    def step(self, solver) -> None:
        """One JIT-fused ST step; rebinds the solver's lattice pair."""
        solver.f, solver._f_streamed = self.core.step(
            solver.f, solver._f_streamed, solver.telemetry)


class _NumbaMRStepper:
    """Binds a :class:`NumbaMRCore` to an MR solver (periodic only)."""

    backend = "numba"
    path = "lean"

    def __init__(self, solver, scheme: str, variable_tau: bool = False):
        self.core = NumbaMRCore(solver.lat, solver.domain.shape, solver.tau,
                                scheme=scheme,
                                tau_bulk=None if variable_tau
                                else getattr(solver, "tau_bulk", None))
        self.variable_tau = variable_tau

    def step(self, solver) -> None:
        """One JIT-fused MR step updating ``solver.m`` in place."""
        tau_field = None
        if self.variable_tau:
            with solver.telemetry.phase("collide"):
                solver._update_relaxation()
            tau_field = solver.tau_field
        self.core.step(solver.m, solver.telemetry, force=solver.force,
                       tau_field=tau_field)


def _reject(solver, backend: str, why: str):
    return ValueError(
        f"backend {backend!r} does not support this configuration of "
        f"{type(solver).__name__}: {why}; use backend='reference'"
    )


def solver_caps(solver) -> dict | None:
    """The solver's own ``accel_caps`` declaration, or ``None``.

    Only a declaration in the exact class body counts: subclasses do not
    inherit their parent's certification, so a subclass that overrides
    physics stays on the reference path until it opts in explicitly (see
    the module docstring).
    """
    return type(solver).__dict__.get("accel_caps")


def validate_backend(solver, backend: str | None = None) -> dict | None:
    """Check the solver/backend matrix; raise *before* any kernel runs.

    Called from :class:`~repro.solver.base.Solver` at construction time
    (and again by :func:`make_stepper`), so unsupported combinations
    fail fast — never mid-run after setup work has already happened.
    Returns the solver's capability declaration (``None`` for
    ``"reference"``). Raises :class:`ValueError` for unsupported
    combinations and :class:`RuntimeError` when numba is requested but
    not installed.
    """
    from ..core.collision import BGKCollision

    backend = solver.backend if backend is None else backend
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "reference":
        return None

    caps = solver_caps(solver)
    if caps is None:
        raise _reject(
            solver, backend,
            "the class declares no accel_caps — fast paths are an explicit "
            "opt-in, and subclasses that override physics must certify "
            "their own compatibility (see repro.accel)")
    family = caps.get("family")
    if family not in ("st", "mr"):
        raise _reject(solver, backend,
                      f"unknown accel_caps family {family!r}")

    if family == "st":
        # The collision attribute appears after the base constructor;
        # STSolver re-validates once it is set (still construction time).
        collision = getattr(solver, "collision", None)
        if collision is not None and type(collision) is not BGKCollision:
            raise _reject(solver, backend,
                          "only the plain BGK collision is fused for ST")

    if backend in ("fused", "aa"):
        # The single-lattice backend shares the fused support matrix:
        # bounded configurations run its conservative fused-identical
        # fallback, so no extra restrictions apply.
        return caps

    if backend == "sparse":
        # The compact-state step has no post-collide stage on the dense
        # field, so boundaries that hook it (full-way bounce-back) have
        # nowhere to run; everything else folds or falls back densely.
        for b in solver.boundaries:
            if b.overrides("post_collide"):
                raise _reject(
                    solver, backend,
                    f"{type(b).__name__} customizes the post-collide hook, "
                    "which the compact-state sparse step does not run")
        return caps

    # backend == "numba"
    if not HAS_NUMBA:
        raise RuntimeError(
            "backend='numba' requested but numba is not installed; "
            "install the optional extra (pip install .[accel]) or use "
            "backend='fused'"
        )
    if solver.boundaries or solver.domain.solid_mask.any():
        raise _reject(solver, backend,
                      "the numba kernels support fully periodic, "
                      "solid-free problems only")
    if family == "st" and solver.force is not None:
        raise _reject(solver, backend,
                      "the numba ST kernel does not fuse body forcing; "
                      "use backend='fused'")
    return caps


def make_stepper(solver, backend: str | None = None):
    """Build the fast-path stepper bound to ``solver``.

    Dispatch follows the capability handshake (see the module
    docstring): the solver's own ``accel_caps`` declaration selects the
    kernel family, and :func:`validate_backend` re-checks the supported
    matrix. Returns ``None`` for ``backend="reference"``.
    """
    backend = solver.backend if backend is None else backend
    caps = validate_backend(solver, backend)
    if caps is None:
        return None

    family = caps["family"]
    variable_tau = bool(caps.get("variable_tau"))
    if backend == "fused":
        if family == "st":
            return _FusedSTStepper(solver)
        return _FusedMRStepper(solver, caps["scheme"],
                               variable_tau=variable_tau)
    if backend == "aa":
        if family == "st":
            return _InplaceSTStepper(solver)
        return _InplaceMRStepper(solver, caps["scheme"],
                                 variable_tau=variable_tau)
    if backend == "sparse":
        if family == "st":
            return _SparseSTStepper(solver)
        return _SparseMRStepper(solver, caps["scheme"],
                                variable_tau=variable_tau)
    if family == "st":
        return _NumbaSTStepper(solver)
    return _NumbaMRStepper(solver, caps["scheme"],
                           variable_tau=variable_tau)
