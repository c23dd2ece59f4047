"""Unit quaternions and maps into SU(2) sampled on a grid over [0,1]^2.

A `GridMap` carries unit-quaternion node values and a per-cell 2-form;
`wzw_product` multiplies two of them with the product 2-form correction
<f1*theta_l wedge f2*theta_r>. With `apath` this is the floating-point half
of gq; the exact core never imports either.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError


def quat_mul(a, b):
    """Hamilton product, broadcasting over leading axes."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_conj(a):
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def quat_log(a):
    """Principal logarithm of a unit quaternion, as a vector in R^3 = su(2)."""
    a = np.asarray(a, dtype=float)
    w = np.clip(a[..., 0], -1.0, 1.0)
    vec = a[..., 1:]
    vnorm = np.linalg.norm(vec, axis=-1)
    angle = np.arctan2(vnorm, w)
    scale = np.where(vnorm > 1e-300, angle / np.where(vnorm > 1e-300, vnorm, 1.0), 0.0)
    return vec * scale[..., None]


def quat_exp(x):
    """Exponential of a pure-imaginary quaternion given as a vector in R^3."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x, axis=-1)
    w = np.cos(norm)
    scale = np.where(norm > 1e-300, np.sin(norm) / np.where(norm > 1e-300, norm, 1.0), 1.0)
    return np.concatenate([w[..., None], x * scale[..., None]], axis=-1)


def su2_inner(x, y):
    """Inner product on su(2) = R^3 used throughout the grid checks."""
    return np.sum(x * y, axis=-1)


# largest deviation of a grid node's quaternion norm from 1
_UNIT_TOL = 1e-12


class GridMap:
    """A map sampled on a rectangular grid over [0,1]^2 plus a per-cell 2-form.

    values: unit quaternions, shape (N1+1, N2+1, 4). omega: per-cell
    samples, shape (N1, N2).
    """

    def __init__(self, values, omega=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[-1] != 4:
            raise ValueError("values must be quaternions of shape (N1+1, N2+1, 4)")
        if values.shape[0] < 2 or values.shape[1] < 2:
            raise ValueError("grid must be at least 2x2 nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        with np.errstate(over="ignore"):   # a finite entry past 1e154 has an inf norm
            err = np.max(np.abs(np.linalg.norm(values, axis=-1) - 1.0))
        if err > _UNIT_TOL:
            raise StructureError(f"quaternion norms off unit by {err:.3e}")
        self.values = values
        n1, n2 = values.shape[0] - 1, values.shape[1] - 1
        if omega is None:
            omega = np.zeros((n1, n2))
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (n1, n2):
            raise ValueError(f"omega must have shape {(n1, n2)}")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega must be finite")
        self.omega = omega

    @property
    def nodes_shape(self):
        return self.values.shape[:2]

    def inverse(self) -> "GridMap":
        return GridMap(quat_conj(self.values), -self.omega)

    @classmethod
    def identity(cls, n1: int, n2: int) -> "GridMap":
        vals = np.zeros((n1 + 1, n2 + 1, 4))
        vals[..., 0] = 1.0
        return cls(vals)

    @classmethod
    def from_function(cls, f, n1: int, n2: int, omega_fn=None) -> "GridMap":
        """Sample a callable f(s, t) -> unit quaternion on an (n1 x n2)-cell grid."""
        vals = np.zeros((n1 + 1, n2 + 1, 4))
        for i in range(n1 + 1):
            for j in range(n2 + 1):
                vals[i, j] = f(i / n1, j / n2)
        vals = quat_normalize(vals)
        omega = None
        if omega_fn is not None:
            omega = np.zeros((n1, n2))
            for i in range(n1):
                for j in range(n2):
                    omega[i, j] = omega_fn((i + 0.5) / n1, (j + 0.5) / n2) / (n1 * n2)
        return cls(vals, omega)


def _edge_logs_left(f: GridMap):
    """Left Maurer-Cartan edge samples: log(f(node)^-1 f(neighbor))."""
    v = f.values
    ex = quat_log(quat_mul(quat_conj(v[:-1, :]), v[1:, :]))
    ey = quat_log(quat_mul(quat_conj(v[:, :-1]), v[:, 1:]))
    return ex, ey


def _edge_logs_right(f: GridMap):
    """Right Maurer-Cartan edge samples: log(f(neighbor) f(node)^-1)."""
    v = f.values
    ex = quat_log(quat_mul(v[1:, :], quat_conj(v[:-1, :])))
    ey = quat_log(quat_mul(v[:, 1:], quat_conj(v[:, :-1])))
    return ex, ey


def wzw_cross_term(a: GridMap, b: GridMap):
    """Per-cell samples of <a*theta_left wedge b*theta_right>.

    Edge one-forms are discretized as principal logarithms; the wedge on a
    cell uses the average of its two opposite edges in each direction.
    """
    if a.nodes_shape != b.nodes_shape:
        raise ValueError("grids do not match")
    lax, lay = _edge_logs_left(a)
    rbx, rby = _edge_logs_right(b)
    lax_c = 0.5 * (lax[:, :-1] + lax[:, 1:])
    lay_c = 0.5 * (lay[:-1, :] + lay[1:, :])
    rbx_c = 0.5 * (rbx[:, :-1] + rbx[:, 1:])
    rby_c = 0.5 * (rby[:-1, :] + rby[1:, :])
    return su2_inner(lax_c, rby_c) - su2_inner(lay_c, rbx_c)


def wzw_product(a: GridMap, b: GridMap) -> GridMap:
    """Pointwise product with the corrected 2-form:
    f = f1 f2, omega = omega1 + omega2 + <f1*theta_l wedge f2*theta_r>."""
    if a.nodes_shape != b.nodes_shape:
        raise ValueError("grids do not match")
    values = quat_mul(a.values, b.values)
    omega = a.omega + b.omega + wzw_cross_term(a, b)
    return GridMap(values, omega)


# -- GridMap text format ------------------------------------------------------


def save_gridmap(g: GridMap, path):
    """Plain-text format: 'node i j q0 q1 q2 q3' and 'cell i j omega' lines."""
    n1, n2 = g.nodes_shape
    with open(path, "w") as fh:
        fh.write(f"grid {n1 - 1} {n2 - 1}\n")
        for i in range(n1):
            for j in range(n2):
                q = [repr(float(x)) for x in g.values[i, j]]
                fh.write(f"node {i} {j} {q[0]} {q[1]} {q[2]} {q[3]}\n")
        for i in range(n1 - 1):
            for j in range(n2 - 1):
                fh.write(f"cell {i} {j} {float(g.omega[i, j])!r}\n")


def _grid_index(parts, width, samples):
    """The (i, j) of a node or cell line of `width` fields; it must index `samples`."""
    if samples is None:
        raise ValueError(f"{parts[0]!r} line before the grid header")
    if len(parts) != width:
        raise ValueError(f"{parts[0]!r} line needs {width - 1} fields, got {len(parts) - 1}")
    i, j = int(parts[1]), int(parts[2])
    if not (0 <= i < samples.shape[0] and 0 <= j < samples.shape[1]):
        raise ValueError(f"{parts[0]} index ({i}, {j}) outside the "
                         f"{samples.shape[0]}x{samples.shape[1]} {parts[0]}s of the grid")
    return i, j


def load_gridmap(path) -> GridMap:
    with open(path) as fh:
        lines = [line.split() for line in fh]
    # every node must be given, so a header that outruns the node lines is
    # rejected before its arrays are allocated
    node_lines = sum(parts[:1] == ["node"] for parts in lines)
    values = None
    omega = None
    for parts in lines:
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "grid":
            if len(parts) != 3:
                raise ValueError(f"'grid' header needs 2 fields, got {len(parts) - 1}")
            n1, n2 = int(parts[1]), int(parts[2])
            if n1 < 1 or n2 < 1:
                raise ValueError(f"grid needs at least 1x1 cells, got {n1}x{n2}")
            if (n1 + 1) * (n2 + 1) > node_lines:
                raise ValueError(f"a {n1}x{n2} grid has {(n1 + 1) * (n2 + 1)} nodes, "
                                 f"the file has {node_lines} node lines")
            values = np.zeros((n1 + 1, n2 + 1, 4))
            omega = np.zeros((n1, n2))
        elif parts[0] == "node":
            i, j = _grid_index(parts, 7, values)
            values[i, j] = [float(x) for x in parts[3:]]
        elif parts[0] == "cell":
            i, j = _grid_index(parts, 4, omega)
            omega[i, j] = float(parts[3])
        else:
            raise ValueError(f"unrecognized grid line: {' '.join(parts)!r}")
    if values is None:
        raise ValueError("missing grid header")
    return GridMap(values, omega)
