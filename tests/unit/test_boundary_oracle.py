"""Per-node oracle for the compiled boundary plans.

Every inlet, outlet and half-way bounce-back hook runs a plan that
``bind()`` compiles once. The reference and fast solvers share those
objects, so the backend parity suites cannot see a wrong plan. This
module checks each plan against a node-by-node transcription of the
boundary formulas on random populations:

* the Zou–He density relation ``rho = (S_0 + 2 S_-)/(1 - u_n)`` at an
  inlet, and ``u_n = 1 - (S_0 + 2 S_-)/rho`` at an outlet;
* non-equilibrium bounce-back ``f_i = f_eq_i + f_ibar - f_eq_ibar``;
* Latt's regularized-FD rebuild ``f = f_eq + w/(2 cs4) H2 : Pi_neq``,
  ``Pi_neq = -2 rho cs2 tau S``, with a one-sided second-order normal
  and a central (one-sided at the face edges) tangential strain;
* half-way bounce-back with the moving-wall term
  ``2 w_i rho0 (c_i . u_w) / cs2``.
"""

import itertools

import numpy as np
import pytest

from repro.boundary import (Boundary, FullwayBounceBack, HalfwayBounceBack,
                            Plane, PressureOutlet, VelocityInlet)
from repro.geometry import SOLID, Domain
from repro.lattice import get_lattice

MACHINE_EPS = 1e-13
TAU = 0.73


def duct(shape, axis):
    """A solid rim at the low end of every axis but ``axis``: both
    ``axis`` faces hold solid nodes, interior nodes and active edge nodes
    (where the tangential difference is one-sided)."""
    nt = np.zeros(shape, dtype=np.int8)
    for a in range(len(shape)):
        if a != axis:
            nt[(slice(None),) * a + (0,)] = SOLID
    return Domain(nt)


def random_populations(lat, shape, rng):
    w = lat.w.reshape((-1,) + (1,) * len(shape))
    return w * (1.0 + 0.1 * rng.standard_normal((lat.q, *shape)))


def feq(lat, rho, u):
    cu = lat.c @ u
    return lat.w * rho * (1 + cu / lat.cs2 + cu * cu / (2 * lat.cs4)
                          - u @ u / (2 * lat.cs2))


def oracle_face(lat, domain, f, plane, method, *, velocity=None,
                rho_out=None, tangential="zero"):
    """Node-by-node inlet (``velocity``) or outlet (``rho_out``) rebuild."""
    ax, inward = plane.axis, plane.inward
    cn = lat.c[:, ax] * inward
    tang = [a for a in range(lat.d) if a != ax]
    plane_shape = tuple(s for a, s in enumerate(domain.shape) if a != ax)

    def at(offset, pos):
        k = offset if plane.side == 0 else domain.shape[ax] - 1 - offset
        return (slice(None),) + pos[:ax] + (k,) + pos[ax:]

    def velocity_at(offset, pos):
        fi = f[at(offset, pos)]
        return lat.c.T @ fi / fi.sum()

    def state(pos):
        fi = f[at(0, pos)]
        s = fi[cn == 0].sum() + 2 * fi[cn < 0].sum()
        if velocity is not None:
            u = velocity[(slice(None),) + pos]
            return s / (1 - inward * u[ax]), u
        u = np.zeros(lat.d)
        u[ax] = inward * (1 - s / rho_out)
        if tangential == "extrapolate":
            u[tang] = velocity_at(1, pos)[tang]
        return rho_out, u

    out = f.copy()
    for pos in itertools.product(*(range(n) for n in plane_shape)):
        if domain.node_type[at(0, pos)[1:]] == SOLID:
            continue
        rho, u = state(pos)
        fe = feq(lat, rho, u)
        if method == "nebb":
            fi = f[at(0, pos)]
            for i in np.flatnonzero(cn > 0):
                j = lat.opposite[i]
                out[at(0, pos)][i] = fe[i] + fi[j] - fe[j]
            continue
        grad = np.zeros((lat.d, lat.d))          # grad[a, b] = d_a u_b
        u1, u2 = velocity_at(1, pos), velocity_at(2, pos)
        grad[ax] = inward * (-3 * u + 4 * u1 - u2) / 2
        for p, a in enumerate(tang):
            if plane_shape[p] < 2:
                continue
            hi = list(pos)
            lo = list(pos)
            hi[p] = min(pos[p] + 1, plane_shape[p] - 1)
            lo[p] = max(pos[p] - 1, 0)
            grad[a] = (state(tuple(hi))[1] - state(tuple(lo))[1]) / (hi[p] - lo[p])
        pi_neq = -2 * rho * lat.cs2 * TAU * 0.5 * (grad + grad.T)
        for i in range(lat.q):
            h2 = np.outer(lat.c[i], lat.c[i]) - lat.cs2 * np.eye(lat.d)
            out[at(0, pos)][i] = fe[i] + lat.w[i] / (2 * lat.cs4) * (h2 * pi_neq).sum()
    return out


FACES = [(lname, shape, axis, side)
         for lname, shape in (("D2Q9", (7, 6)), ("D3Q19", (5, 6, 4)))
         for axis in (0, 1) for side in (0, -1)]


def face_id(case):
    lname, _, axis, side = case
    return f"{lname}-axis{axis}-side{side}"


@pytest.mark.parametrize("method", ["nebb", "regularized-fd"])
@pytest.mark.parametrize("case", FACES, ids=face_id)
class TestFaceOracle:
    def _check(self, case, method, make, **oracle):
        lname, shape, axis, side = case
        lat = get_lattice(lname)
        domain = duct(shape, axis)
        plane = Plane(axis, side)
        bc = make(plane).bind(lat, domain, TAU)
        rng = np.random.default_rng([axis, -side, lat.q])
        f = random_populations(lat, shape, rng)
        expected = oracle_face(lat, domain, f, plane, method, **oracle)
        bc.post_stream(lat, f, f.copy())
        assert np.abs(f - expected).max() < MACHINE_EPS

    def test_uniform_inlet(self, case, method):
        lat = get_lattice(case[0])
        u = np.array([0.03, -0.01, 0.02][:lat.d])
        plane_shape = tuple(s for a, s in enumerate(case[1]) if a != case[2])
        profile = np.broadcast_to(u.reshape((-1,) + (1,) * (lat.d - 1)),
                                  (lat.d, *plane_shape))
        self._check(case, method,
                    lambda pl: VelocityInlet(pl, u, method=method),
                    velocity=profile)

    def test_profile_inlet(self, case, method):
        lat = get_lattice(case[0])
        plane_shape = tuple(s for a, s in enumerate(case[1]) if a != case[2])
        profile = 0.02 * np.random.default_rng(9).standard_normal(
            (lat.d, *plane_shape))
        self._check(case, method,
                    lambda pl: VelocityInlet(pl, profile, method=method),
                    velocity=profile)

    @pytest.mark.parametrize("tangential", ["zero", "extrapolate"])
    def test_outlet(self, case, method, tangential):
        self._check(case, method,
                    lambda pl: PressureOutlet(pl, 1.01, method=method,
                                              tangential=tangential),
                    rho_out=1.01, tangential=tangential)


def oracle_bounce_back(lat, domain, f_new, f_source, uw=None, rho0=1.0):
    """Link-by-link half-way bounce-back, moving walls included."""
    out = f_new.copy()
    shape = domain.shape
    for x in itertools.product(*(range(n) for n in shape)):
        if domain.node_type[x] == SOLID:
            continue
        for i in range(lat.q):
            src = tuple((x[a] - lat.c[i, a]) % shape[a] for a in range(lat.d))
            if not lat.c[i].any() or domain.node_type[src] != SOLID:
                continue
            val = f_source[(lat.opposite[i],) + x]
            if uw is not None:
                cu = sum(lat.c[i, a] * uw[(a,) + src] for a in range(lat.d))
                val = val + 2 * lat.w[i] * rho0 * cu / lat.cs2
            out[(i,) + x] = val
    return out


class TestBounceBackOracle:
    @pytest.mark.parametrize("lname,shape", [("D2Q9", (9, 7)),
                                             ("D3Q19", (5, 6, 4))])
    @pytest.mark.parametrize("moving", [False, True])
    def test_random_geometry(self, lname, shape, moving):
        lat = get_lattice(lname)
        rng = np.random.default_rng(len(shape) + moving)
        nt = np.where(rng.random(shape) < 0.3, SOLID, 0).astype(np.int8)
        domain = Domain(nt)
        uw = 0.05 * rng.standard_normal((lat.d, *shape)) if moving else None
        bb = HalfwayBounceBack(wall_velocity=uw, rho0=1.02).bind(
            lat, domain, TAU)
        f_new = random_populations(lat, shape, rng)
        f_source = random_populations(lat, shape, rng)
        expected = oracle_bounce_back(lat, domain, f_new, f_source, uw, 1.02)
        bb.post_stream(lat, f_new, f_source)
        assert np.abs(f_new - expected).max() < MACHINE_EPS

    def test_targets_are_flat_fluid_nodes(self):
        """``_targets`` holds flat node indices (the sparse fold reads them)."""
        lat = get_lattice("D2Q9")
        nt = np.zeros((6, 5), dtype=np.int8)
        nt[:, 0] = SOLID
        domain = Domain(nt)
        bb = HalfwayBounceBack().bind(lat, domain, TAU)
        up = next(i for i in range(lat.q) if tuple(lat.c[i]) == (0, 1))
        assert np.array_equal(bb._targets[up],
                              np.ravel_multi_index((np.arange(6), np.ones(6, int)),
                                                   (6, 5)))

    def test_rejects_non_contiguous_target(self):
        lat = get_lattice("D2Q9")
        domain = duct((6, 5), 0)
        bb = HalfwayBounceBack().bind(lat, domain, TAU)
        f = np.ones((lat.q, 5, 6)).transpose(0, 2, 1)
        with pytest.raises(ValueError, match="contiguous"):
            bb.post_stream(lat, f, f.copy())


def test_hook_predicate():
    """Cores skip the hooks a boundary inherits as no-ops."""
    assert HalfwayBounceBack.overrides("post_stream")
    assert not HalfwayBounceBack.overrides("post_collide")
    assert FullwayBounceBack().overrides("post_collide")
    assert not FullwayBounceBack().overrides("post_stream")
    assert not Boundary.overrides("post_stream")
    assert VelocityInlet(Plane(0, 0), (0.01, 0.0)).overrides("post_stream")
