"""Regenerate the sample paths and grids shipped with the verification suite.

Run from this directory: python generate.py
"""

import numpy as np

from gq.apath import APath, save_apath
from gq.grids import GridMap, quat_exp, save_gridmap


def so3_elem(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def smooth_path(rng, K=16, scale=0.8):
    ts = np.linspace(0.0, 1.0, K + 1)
    c = rng.normal(size=(3, 3)) * scale
    mats = np.stack([so3_elem(c[0] * np.sin(2 * t) + c[1] * t + c[2] * np.cos(t))
                     for t in ts])
    return APath(ts, mats)


def main():
    rng = np.random.default_rng(2024)

    X = so3_elem([0.8, -1.1, 0.5])
    save_apath(APath([0.0, 1.0], [X, X]), "const_so3.apath")

    save_apath(smooth_path(rng), "path_a.apath")
    save_apath(smooth_path(rng), "path_b.apath")

    # action path: transported base under the constant rotation
    from scipy.linalg import expm

    ts = np.linspace(0.0, 1.0, 101)
    mats = np.repeat(X[None], len(ts), axis=0)
    base = np.stack([expm(t * X) @ np.array([1.0, 0.0, 0.0]) for t in ts])
    save_apath(APath(ts, mats, base), "action_so3.apath")

    def f1(s, t):
        return quat_exp(0.4 * np.array([np.sin(2 * s + t), np.cos(s - 2 * t), s * t + 0.3]))

    def f2(s, t):
        return quat_exp(0.3 * np.array([s, t, np.sin(s * t)]))

    save_gridmap(GridMap.from_function(f1, 8, 8, omega_fn=lambda s, t: np.sin(s + t)), "grid_a.grid")
    save_gridmap(GridMap.from_function(f2, 8, 8, omega_fn=lambda s, t: s * t), "grid_b.grid")


if __name__ == "__main__":
    main()
