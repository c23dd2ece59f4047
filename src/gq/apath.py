"""Numeric integration of matrix Lie-algebra and linear action-algebroid paths.

Paths are time-sampled and linearly interpolated; holonomy solves the
left-invariant ODE g' = g a(t) with the classical fourth-order one-step
method, evaluated as an ordered product of batched step matrices.
Concatenation rescales time, so holonomies compose as
g_p g_q (first factor first); see docs/CONVENTIONS.md for the action case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompositionError, InconsistentPathError

__all__ = [
    "APath", "GroupoidElement", "integrate", "concatenate",
    "reparametrize", "reparametrize_check", "action_integrate",
    "save_apath", "load_apath", "constant_path",
]

# largest base gap that `concatenate` joins, and largest
# `APath.anchor_residual` that `action_integrate` accepts
_JOIN_TOL = 1e-9
_COMPAT_TOL = 0.05


class APath:
    """Samples (t_j, a_j) with t in [0,1] increasing, a_j square matrices.

    Repeated time stamps mark jump discontinuities in a (concatenation
    points); the base curve, when present, must be continuous there.
    a(t) is linearly interpolated inside each smooth block.
    """

    def __init__(self, times, mats, base=None):
        times = np.asarray(times, dtype=float)
        mats = np.asarray(mats, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two samples")
        if mats.ndim != 3 or mats.shape[0] != len(times) or mats.shape[1] != mats.shape[2]:
            raise ValueError("samples must be square matrices, one per time")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(mats))):
            raise ValueError("samples must be finite")
        if abs(times[0]) > 1e-15 or abs(times[-1] - 1.0) > 1e-12:
            raise ValueError("paths are parametrized over [0, 1]")
        if np.any(times[1:] < times[:-1]):   # np.diff could overflow
            raise ValueError("times must be non-decreasing")
        self.times = times
        self.mats = mats
        self.dim = mats.shape[1]
        if base is not None:
            base = np.asarray(base, dtype=float)
            if base.ndim != 2 or base.shape[0] != len(times):
                raise ValueError("base samples must align with times")
            if not np.all(np.isfinite(base)):
                raise ValueError("base samples must be finite")
            for j in np.nonzero(np.diff(times) == 0)[0]:
                if not np.allclose(base[j], base[j + 1], atol=1e-9):
                    raise InconsistentPathError("base curve jumps at a concatenation point")
        self.base = base

    def blocks(self):
        """Index ranges [lo, hi] of maximal smooth (strictly increasing) pieces."""
        jumps = np.nonzero(np.diff(self.times) == 0)[0]
        los = np.concatenate([[0], jumps + 1])
        his = np.concatenate([jumps, [len(self.times) - 1]])
        return [(int(lo), int(hi)) for lo, hi in zip(los, his) if hi > lo]

    def anchor_residual(self) -> float:
        """Max deviation of the base slope from the anchor direction a @ x:
        the discrete form of the compatibility gamma' = rho(a) gamma."""
        if self.base is None:
            raise ValueError("path has no base samples")
        worst = 0.0
        for j in range(len(self.times) - 1):
            dt = self.times[j + 1] - self.times[j]
            if dt == 0:
                continue
            slope = (self.base[j + 1] - self.base[j]) / dt
            mid_a = 0.5 * (self.mats[j] + self.mats[j + 1])
            mid_x = 0.5 * (self.base[j] + self.base[j + 1])
            worst = max(worst, float(np.max(np.abs(slope - mid_a @ mid_x))))
        return worst


@dataclass
class GroupoidElement:
    """Holonomy matrix plus source/target base points (None for algebra paths)."""

    holonomy: np.ndarray
    source: np.ndarray | None = None
    target: np.ndarray | None = None


def _lerp(times, vals, t, lo, hi):
    """Linear interpolation of vals at the array t within the smooth block
    [lo, hi]; lo and hi may be arrays aligned with t."""
    j = np.clip(np.searchsorted(times, t, side="right") - 1, lo, hi - 1)
    lam = (t - times[j]) / (times[j + 1] - times[j])
    lam = lam.reshape(lam.shape + (1,) * (vals.ndim - 1))
    return (1 - lam) * vals[j] + lam * vals[j + 1]


def _compose(a, b, left):
    """Offset of (I + a)(I + b) (left) or (I + b)(I + a) (right) from I."""
    return a + b + (a @ b if left else b @ a)


# RK4 steps whose increments are built and reduced at once: the batch's
# temporaries stay a few hundred kB instead of growing with steps.
_CHUNK = 512


def _rk4_increments(a0, am, a1, h, left):
    """D with one RK4 step g <- g (I + D) (left) or G <- (I + D) G (right).

    a0, am, a1 are stacks of a(t), a(t + h/2), a(t + h), one per step.
    """
    def mul(m, a):
        return m @ a if left else a @ m

    m2 = am + 0.5 * h * mul(a0, am)
    m3 = am + 0.5 * h * mul(m2, am)
    m4 = a1 + h * mul(m3, a1)
    return (h / 6.0) * (a0 + 2 * m2 + 2 * m3 + m4)


def _integrate_blocks(p: APath, steps: int, left=True):
    """RK4 over every smooth block, splitting steps proportionally.

    The step increments of a chunk are multiplied pairwise in step order,
    kept as offsets from I: (I + A)(I + B) = I + (A + B + AB).
    """
    total = np.zeros((p.dim, p.dim))
    for lo, hi in p.blocks():
        t0, t1 = p.times[lo], p.times[hi]
        nsteps = max(1, int(round(steps * (t1 - t0))))
        h = (t1 - t0) / nsteps
        for k0 in range(0, nsteps, _CHUNK):
            t = t0 + np.arange(k0, min(k0 + _CHUNK, nsteps)) * h
            a = _lerp(p.times, p.mats, np.stack([t, t + 0.5 * h, t + h]), lo, hi)
            d = _rk4_increments(*a, h, left)
            while len(d) > 1:
                even = len(d) - len(d) % 2
                d = np.concatenate([_compose(d[0:even:2], d[1:even:2], left), d[even:]])
            total = _compose(total, d[0], left)
    return np.eye(p.dim) + total


def integrate(p: APath, steps: int = 10_000) -> GroupoidElement:
    """Holonomy of the path: solve g' = g a(t), g(0) = I; error O(steps^-4)."""
    g = _integrate_blocks(p, steps, left=True)
    src = tgt = None
    if p.base is not None:
        src, tgt = p.base[0].copy(), p.base[-1].copy()
    return GroupoidElement(g, src, tgt)


def concatenate(p: APath, q: APath) -> APath:
    """Time-rescaled concatenation: p on [0, 1/2], q on [1/2, 1].

    Sample values double (the ODE is reparametrization-covariant), so
    integrate(concatenate(p, q)).holonomy == integrate(p) @ integrate(q)
    up to the integration error.
    """
    if p.dim != q.dim:
        raise ValueError("paths have different matrix dimensions")
    if (p.base is None) != (q.base is None):
        raise CompositionError("cannot concatenate a based path with an unbased one")
    if p.base is not None and np.max(np.abs(p.base[-1] - q.base[0])) > _JOIN_TOL:
        raise CompositionError("target of the first path differs from source of the second")
    times = np.concatenate([p.times * 0.5, 0.5 + q.times * 0.5])
    mats = np.concatenate([p.mats * 2.0, q.mats * 2.0])
    base = None
    if p.base is not None:
        base = np.concatenate([p.base, q.base])
    return APath(times, mats, base)


def reparametrize(p: APath, phi_samples) -> APath:
    """The path p o phi with a rescaled by phi', sampled at phi's grid.

    phi_samples: array of (s, phi(s)) rows with phi(0) = 0, phi(1) = 1,
    strictly monotone. phi' comes from second-order finite differences.
    An exact-identity phi returns the original samples unchanged.
    """
    phi_samples = np.asarray(phi_samples, dtype=float)
    s = phi_samples[:, 0]
    phi = phi_samples[:, 1]
    if abs(phi[0]) > 1e-15 or abs(phi[-1] - 1.0) > 1e-12:
        raise ValueError("phi must fix the endpoints 0 and 1")
    if np.any(np.diff(phi) <= 0) or np.any(np.diff(s) <= 0):
        raise ValueError("phi must be strictly monotone")
    if np.array_equal(s, phi) and len(s) == len(p.times) and np.array_equal(s, p.times):
        return p
    dphi = np.gradient(phi, s, edge_order=2)
    blocks = np.array(p.blocks())
    # the first block whose time range reaches phi
    lo, hi = blocks[np.minimum(np.searchsorted(p.times[blocks[:, 1]], phi), len(blocks) - 1)].T
    mats = _lerp(p.times, p.mats, phi, lo, hi) * dphi[:, None, None]
    base = None
    if p.base is not None:
        base = _lerp(p.times, p.base, phi, lo, hi)
    return APath(s, mats, base)


def reparametrize_check(p: APath, phi_samples, steps: int = 10_000) -> float:
    """Norm of holonomy(p) - holonomy(p o phi): the reparametrization residual."""
    g1 = integrate(p, steps).holonomy
    g2 = integrate(reparametrize(p, phi_samples), steps).holonomy
    return float(np.max(np.abs(g1 - g2)))


def action_integrate(p: APath, steps: int = 10_000,
                     transport_tol: float = 1e-6) -> GroupoidElement:
    """Integrate a linear action-algebroid path: group transport of the base.

    The base curve must follow the anchor within `_COMPAT_TOL`. The group
    element solves the time-ordered ODE G' = a(t) G, so that
    target = G(1) gamma(0); it must reach the recorded endpoint gamma(1)
    of the base curve within transport_tol.
    """
    if p.base is None:
        raise ValueError("action_integrate needs base samples")
    res = p.anchor_residual()
    if res > _COMPAT_TOL:
        raise InconsistentPathError(
            f"anchor compatibility residual {res:.3e} exceeds {_COMPAT_TOL:.3e}")
    g = _integrate_blocks(p, steps, left=False)
    target = g @ p.base[0]
    drift = float(np.max(np.abs(target - p.base[-1])))
    if drift > transport_tol:
        raise InconsistentPathError(
            f"group transport misses the recorded endpoint by {drift:.3e}")
    return GroupoidElement(g, p.base[0].copy(), target)


def constant_path(X, nsamples: int = 2, base_point=None) -> APath:
    """The constant path a(t) = X, optionally with the transported base curve."""
    X = np.asarray(X, dtype=float)
    times = np.linspace(0.0, 1.0, nsamples)
    mats = np.repeat(X[None, :, :], nsamples, axis=0)
    base = None
    if base_point is not None:
        from scipy.linalg import expm

        base = np.stack([expm(t * X) @ np.asarray(base_point, dtype=float) for t in times])
    return APath(times, mats, base)


# -- text format --------------------------------------------------------------


def save_apath(p: APath, path):
    """Header 'dim m'; rows 't a_11 ... a_mm [base coords]'."""
    with open(path, "w") as fh:
        fh.write(f"dim {p.dim}\n")
        for j, t in enumerate(p.times):
            row = [repr(float(t))] + [repr(float(x)) for x in p.mats[j].ravel()]
            if p.base is not None:
                row += [repr(float(x)) for x in p.base[j]]
            fh.write(" ".join(row) + "\n")


def load_apath(path) -> APath:
    dim = None
    times, mats, base = [], [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "dim":
                if len(parts) != 2 or int(parts[1]) < 1:
                    raise ValueError(f"'dim' header needs one positive integer: {line.strip()!r}")
                dim = int(parts[1])
                continue
            if dim is None:
                raise ValueError("missing 'dim m' header")
            vals = [float(x) for x in parts]
            times.append(vals[0])
            mats.append(np.array(vals[1:1 + dim * dim]).reshape(dim, dim))
            rest = vals[1 + dim * dim:]
            if rest:
                base.append(np.array(rest))
    if dim is None:
        raise ValueError("missing 'dim m' header")
    if base and len(base) != len(times):
        raise ValueError("base coordinates must appear on every row or none")
    return APath(np.array(times), np.array(mats), np.array(base) if base else None)
