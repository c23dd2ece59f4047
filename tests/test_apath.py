"""Path holonomy: oracle comparisons, groupoid laws, convergence."""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from gq import (
    APath, CompositionError, InconsistentPathError, action_integrate, apath,
    concatenate, constant_path, dsl, integrate, load_apath,
    reparametrize, reparametrize_check, save_apath,
)
from gq.cli import main as cli_main
from gq.session import Options, _expm, execute
from conftest import smooth_so3_path, so3_matrix

SUITE_DATA = Path(__file__).resolve().parent.parent / "suite" / "data"


# -- oracles for `integrate` ---------------------------------------------------


def group_residual(g: np.ndarray) -> float:
    """Distance from the structure group: orthogonality defect and det - 1."""
    return max(abs(float(np.linalg.det(g)) - 1.0),
               float(np.max(np.abs(g.T @ g - np.eye(g.shape[0])))))


def reverse(p: APath) -> APath:
    """Time reversal; integrates to the inverse holonomy."""
    times = 1.0 - p.times[::-1]
    mats = -p.mats[::-1]
    base = None if p.base is None else p.base[::-1].copy()
    return APath(times, mats, base)


def based_constant_path(X, nsamples, x0) -> APath:
    """`constant_path(X, nsamples)` with the base curve exp(tX) x0 that its
    group transport follows."""
    p = constant_path(X, nsamples)
    x0 = np.asarray(x0, dtype=float)
    return APath(p.times, p.mats, np.stack([expm(t * p.mats[0]) @ x0 for t in p.times]))


# -- per-step reference integrator -----------------------------------------------
# Scalar loops, one RK4 step and one interpolation at a time: the oracle the
# batched integrator and the vectorised resampling are compared against.


def _oracle_blocks(times):
    out, lo = [], 0
    for j in range(len(times) - 1):
        if times[j + 1] == times[j]:
            out.append((lo, j))
            lo = j + 1
    out.append((lo, len(times) - 1))
    return [(lo, hi) for lo, hi in out if hi > lo]


def _oracle_value(times, vals, t, lo, hi):
    ts = times[lo:hi + 1]
    j = int(np.searchsorted(ts, t, side="right")) - 1
    j = min(max(j, 0), len(ts) - 2)
    lam = (t - ts[j]) / (ts[j + 1] - ts[j])
    return (1 - lam) * vals[lo + j] + lam * vals[lo + j + 1]


def _rk4_step(a_of_t, g, t, h, left=True):
    def f(gv, tv):
        a = a_of_t(tv)
        return gv @ a if left else a @ gv

    k1 = f(g, t)
    k2 = f(g + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(g + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(g + h * k3, t + h)
    return g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _oracle_integrate(p, steps, left):
    g = np.eye(p.dim)
    for lo, hi in _oracle_blocks(p.times):
        t0, t1 = p.times[lo], p.times[hi]
        nsteps = max(1, int(round(steps * (t1 - t0))))
        h = (t1 - t0) / nsteps
        for k in range(nsteps):
            g = _rk4_step(lambda t: _oracle_value(p.times, p.mats, t, lo, hi),
                          g, t0 + k * h, h, left)
    return g


def _oracle_reparametrize(p, phi_samples):
    s, phi = phi_samples[:, 0], phi_samples[:, 1]
    dphi = np.gradient(phi, s, edge_order=2)
    blocks = _oracle_blocks(p.times)
    mats = np.empty((len(s), p.dim, p.dim))
    base = None if p.base is None else np.empty((len(s), p.base.shape[1]))
    for j, pj in enumerate(phi):
        lo, hi = next(b for b in blocks if p.times[b[0]] <= pj <= p.times[b[1]])
        mats[j] = _oracle_value(p.times, p.mats, pj, lo, hi) * dphi[j]
        if base is not None:
            base[j] = _oracle_value(p.times, p.base, pj, lo, hi)
    return mats, base


def _gl3_path(nprng, times):
    """Non-commuting, non-skew samples, so a factor-order slip shows."""
    c = nprng.normal(size=(3, 3, 3)) * 0.6
    mats = np.stack([c[0] + c[1] * np.sin(3 * t) + c[2] * t * t for t in times])
    # the zero section is a base curve of every linear action path
    return APath(times, mats, np.zeros((len(times), 3)))


def _oracle_paths(nprng):
    two_blocks = concatenate(_gl3_path(nprng, np.linspace(0, 1, 9)),
                             _gl3_path(nprng, np.linspace(0, 1, 6)))
    uneven = np.concatenate([[0.0], np.sort(nprng.uniform(0, 1, size=11)), [1.0]])
    return {"two_blocks": two_blocks, "uneven": _gl3_path(nprng, uneven)}


@pytest.mark.parametrize("steps", [1, 511, 512, 513, 10_000])
@pytest.mark.parametrize("name", ["two_blocks", "uneven"])
def test_batched_rk4_matches_per_step_oracle(nprng, name, steps):
    p = _oracle_paths(nprng)[name]
    assert len(p.blocks()) == (2 if name == "two_blocks" else 1)
    g_left = integrate(p, steps).holonomy
    assert np.max(np.abs(g_left - _oracle_integrate(p, steps, left=True))) <= 1e-12
    g_right = action_integrate(p, steps).holonomy
    assert np.max(np.abs(g_right - _oracle_integrate(p, steps, left=False))) <= 1e-12


def test_exp_of_shipped_constant_path():
    p = load_apath(SUITE_DATA / "const_so3.apath")
    g = integrate(p, 10_000).holonomy
    assert np.max(np.abs(g - expm(p.mats[0]))) <= 1e-14


# -- the reference exponential of `check exp` -------------------------------------


def test_expm_matches_scipy(nprng):
    worst = 0.0
    for n in range(1, 7):
        for norm in np.geomspace(1e-3, 50.0, 12):
            X = nprng.normal(size=(n, n))
            X *= norm / np.max(np.sum(np.abs(X), axis=0))
            ref = expm(X)
            err = np.max(np.abs(_expm(X) - ref)) / max(1.0, np.max(np.abs(ref)))
            worst = max(worst, float(err))
    assert worst <= 1e-10


def test_expm_matches_rodrigues(nprng):
    for length in np.linspace(0.0, 100.0, 41):
        v = nprng.normal(size=3)
        v *= length / np.linalg.norm(v)
        K = so3_matrix(v)
        if length == 0:
            ref = np.eye(3)
        else:
            ref = (np.eye(3) + np.sin(length) / length * K
                   + (1 - np.cos(length)) / length ** 2 * (K @ K))
        assert np.max(np.abs(_expm(K) - ref)) <= 1e-12


def test_expm_is_exact_on_nilpotent_and_zero():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(_expm(N), np.eye(2) + N)
    assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("X", [
    np.array([[0.0, 2.5], [0.0, 0.0]]),
    so3_matrix(60.0 * np.array([0.6, -0.48, 0.64])),
], ids=["sl2_nilpotent", "so3_norm_60"])
def test_check_exp_passes(tmp_path, X):
    save_apath(constant_path(X), tmp_path / "c.apath")
    rep = execute(dsl.parse('load path C "c.apath"; check exp C;'), Options(base_dir=tmp_path))
    (rec,) = rep.records
    assert rec.verdict == "pass", rec.witness


def test_blocks_match_scalar_loop():
    times = [0.0, 0.2, 0.2, 0.2, 0.5, 0.5, 0.7, 1.0]
    p = APath(times, np.zeros((len(times), 2, 2)))
    assert p.blocks() == _oracle_blocks(p.times) == [(0, 1), (3, 4), (5, 7)]
    assert all(type(i) is int for b in p.blocks() for i in b)


def test_constant_path_matches_exponential(nprng):
    for _ in range(5):
        v = nprng.normal(size=3)
        v = v / np.linalg.norm(v) * nprng.uniform(0.3, 2.0)
        X = so3_matrix(v)
        g = integrate(constant_path(X), 10_000).holonomy
        assert np.max(np.abs(g - expm(X))) < 1e-8


def test_zero_path_is_identity():
    g = integrate(constant_path(np.zeros((3, 3))), 100).holonomy
    assert np.array_equal(g, np.eye(3))


def test_group_membership_residual(nprng):
    p = smooth_so3_path(nprng)
    g = integrate(p, 5000).holonomy
    assert group_residual(g) < 1e-9


def test_commuting_concatenation_closed_form():
    X = so3_matrix([0.8, -1.1, 0.5])
    Y = 0.37 * X
    p = concatenate(constant_path(0.5 * X), constant_path(0.5 * Y))
    g = integrate(p, 10_000).holonomy
    assert np.max(np.abs(g - expm(0.5 * (X + Y)))) < 1e-8


def test_concatenation_homomorphism(nprng):
    for _ in range(3):
        p, q = smooth_so3_path(nprng), smooth_so3_path(nprng)
        g = integrate(concatenate(p, q), 10_000).holonomy
        sep = integrate(p, 10_000).holonomy @ integrate(q, 10_000).holonomy
        assert np.max(np.abs(g - sep)) < 1e-6


def test_reverse_is_inverse(nprng):
    p = smooth_so3_path(nprng)
    g = integrate(concatenate(p, reverse(p)), 10_000).holonomy
    assert np.max(np.abs(g - np.eye(3))) < 1e-6


def test_identity_reparametrization_is_bitwise():
    p = smooth_so3_path(np.random.default_rng(3), segments=10)
    phi = np.stack([p.times, p.times], axis=1)
    assert reparametrize(p, phi) is p
    assert reparametrize_check(p, phi, 200) == 0.0


def test_quadratic_reparametrization_constant_path():
    X = so3_matrix([0.8, -1.1, 0.5])
    p = constant_path(X, nsamples=2001)
    s = np.linspace(0, 1, 2001)
    phi = np.stack([s, s ** 2], axis=1)
    assert reparametrize_check(p, phi, 10_000) < 1e-6


def test_sine_reparametrization_random_path(nprng):
    p = smooth_so3_path(nprng, segments=2000)
    s = np.linspace(0, 1, 2001)
    phi = np.stack([s, np.sin(np.pi * s / 2)], axis=1)
    assert reparametrize_check(p, phi, 10_000) < 1e-5


def test_non_monotone_phi_rejected():
    p = constant_path(np.zeros((2, 2)))
    s = np.linspace(0, 1, 11)
    phi_vals = s.copy()
    phi_vals[5] = phi_vals[3]  # plateau/backtrack
    with pytest.raises(ValueError):
        reparametrize(p, np.stack([s, phi_vals], axis=1))


def test_convergence_order_four(nprng):
    ts = np.linspace(0, 1, 11)
    c = nprng.normal(size=(3, 3)) * 2.0
    mats = np.stack([so3_matrix(c[0] * np.sin(2 * t) + c[1] * t + c[2] * np.cos(3 * t))
                     for t in ts])
    p = APath(ts, mats)
    g1 = integrate(p, 1280).holonomy
    g2 = integrate(p, 2560).holonomy
    ref = g2 + (g2 - g1) / 15.0   # Richardson extrapolation
    errs = [float(np.max(np.abs(integrate(p, N).holonomy - ref)))
            for N in (20, 40, 80)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert abs(o - 4.0) <= 0.3


def test_endpoint_mismatch_rejected():
    X = so3_matrix([1.0, 0, 0])
    p = based_constant_path(X, 21, np.array([1.0, 0, 0]))
    q = based_constant_path(X, 21, np.array([0.0, 1.0, 0]))
    with pytest.raises(CompositionError):
        concatenate(p, q)


def test_action_integrate_constant():
    X = so3_matrix([0.8, -1.1, 0.5])
    p = based_constant_path(X, 101, np.array([1.0, 0, 0]))
    el = action_integrate(p, 10_000)
    assert np.max(np.abs(el.target - expm(X) @ np.array([1.0, 0, 0]))) < 1e-8
    assert np.max(np.abs(el.holonomy @ el.source - el.target)) < 1e-8


def test_action_zero_path():
    p = based_constant_path(np.zeros((3, 3)), 11, np.array([0.0, 1.0, 0]))
    el = action_integrate(p, 100)
    assert np.array_equal(el.source, el.target)
    assert np.max(np.abs(el.holonomy - np.eye(3))) < 1e-12


def test_action_closed_base_curve_nontrivial_holonomy():
    # rotation about z by 2 pi: the base point returns, the holonomy is exp(X)
    X = so3_matrix([0, 0, 2 * np.pi])
    p = based_constant_path(X, 201, np.array([0.0, 0, 1.0]))
    el = action_integrate(p, 10_000)
    assert np.max(np.abs(el.target - el.source)) < 1e-8
    # g(1) = exp(X) = identity here, so use a half turn for a nontrivial one
    Y = so3_matrix([0, 0, np.pi])
    q = based_constant_path(Y, 201, np.array([0.0, 0, 1.0]))
    el2 = action_integrate(q, 10_000)
    assert np.max(np.abs(el2.target - el2.source)) < 1e-8  # axis point is fixed
    assert np.max(np.abs(el2.holonomy - np.eye(3))) > 1.0  # but g(1) != I


def test_anchor_incompatibility_rejected():
    X = so3_matrix([1.0, 0, 0])
    ts = np.linspace(0, 1, 11)
    mats = np.repeat(X[None], 11, axis=0)
    base = np.stack([np.array([1.0, 1.0, 0]) * (1 + t) for t in ts])  # wrong slope
    p = APath(ts, mats, base)
    with pytest.raises(InconsistentPathError):
        action_integrate(p, 100)


def test_apath_file_roundtrip(tmp_path, nprng):
    p = smooth_so3_path(nprng)
    f = tmp_path / "p.apath"
    save_apath(p, f)
    q = load_apath(f)
    assert np.array_equal(p.times, q.times)
    assert np.array_equal(p.mats, q.mats)
    assert q.base is None
    X = so3_matrix([0.3, 0.1, -0.2])
    pb = based_constant_path(X, 7, np.array([1.0, 2.0, 3.0]))
    save_apath(pb, f)
    qb = load_apath(f)
    assert np.array_equal(pb.base, qb.base)


def test_invalid_paths_rejected():
    with pytest.raises(ValueError):
        APath([0.0], np.zeros((1, 2, 2)))           # one sample
    with pytest.raises(ValueError):
        APath([0.0, 0.5], np.zeros((2, 2, 2)))      # does not end at 1
    with pytest.raises(ValueError):
        APath([0.0, 1.0], np.zeros((2, 2, 3)))      # non-square


def _smoothstep_phi(n):
    s = np.linspace(0.0, 1.0, n)
    return np.stack([s, s * s * (3 - 2 * s)], axis=1)


def test_reparametrize_matches_scalar_loop_unbased(nprng):
    p = concatenate(smooth_so3_path(nprng), smooth_so3_path(nprng, segments=7))
    phi = _smoothstep_phi(4001)
    mats, base = _oracle_reparametrize(p, phi)
    q = reparametrize(p, phi)
    assert q.base is None and base is None
    assert np.max(np.abs(q.mats - mats)) <= 1e-14


def test_reparametrize_matches_scalar_loop_based():
    X, Y = so3_matrix([0.8, -1.1, 0.5]), so3_matrix([-0.3, 0.4, 0.9])
    p = based_constant_path(X, 21, np.array([1.0, 0.0, 0.0]))
    q = based_constant_path(Y, 13, p.base[-1])
    pq = concatenate(p, q)
    phi = _smoothstep_phi(1001)
    mats, base = _oracle_reparametrize(pq, phi)
    r = reparametrize(pq, phi)
    assert np.max(np.abs(r.mats - mats)) <= 1e-14
    assert np.max(np.abs(r.base - base)) <= 1e-14


def test_action_checks_the_recorded_endpoint():
    # the base drifts off the transported curve by t * delta: its slope stays
    # within the anchor tolerance, but its endpoint misses G(1) gamma(0)
    X = so3_matrix([0.8, -1.1, 0.5])
    ts = np.linspace(0.0, 1.0, 101)
    x0, delta = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.01])
    base = np.stack([expm(t * X) @ x0 + t * delta for t in ts])
    p = APath(ts, np.repeat(X[None], len(ts), axis=0), base)
    assert p.anchor_residual() < 0.05
    with pytest.raises(InconsistentPathError, match="recorded endpoint"):
        action_integrate(p, 1000)
    good = APath(ts, p.mats, base - ts[:, None] * delta)
    el = action_integrate(good, 1000)
    assert np.max(np.abs(el.target - good.base[-1])) < 1e-9


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_apath_rejects_non_finite(tmp_path, bad):
    f = tmp_path / "p.apath"
    f.write_text(f"dim 1\n0.0 0.5\n0.5 {bad}\n1.0 0.5\n")
    with pytest.raises(ValueError, match="finite"):
        load_apath(f)
    f.write_text(f"dim 1\n0.0 0.5 1.0\n1.0 0.5 {bad}\n")   # in the base column
    with pytest.raises(ValueError, match="finite"):
        load_apath(f)


# -- one holonomy per (steps, side) ------------------------------------------------


@pytest.fixture
def rk4_calls(monkeypatch):
    """The (steps, left) of every uncached RK4 product, in call order."""
    calls = []
    product = apath._integrate_blocks

    def spy(p, steps, left=True):
        calls.append((steps, left))
        return product(p, steps, left)

    monkeypatch.setattr(apath, "_integrate_blocks", spy)
    return calls


def test_paths_suite_integrates_each_path_once(rk4_calls, capsys):
    assert cli_main(["run", str(SUITE_DATA.parent / "06_paths.gq")]) == 0
    # exp and reparam share CONST's holonomy, reparam PA and PB reuse the
    # holonomies that `holonomy PA PB` computed: 11 products before the memo
    assert len(rk4_calls) == 8


def test_memo_hit_is_a_fresh_copy_of_the_product(rk4_calls, nprng):
    p = smooth_so3_path(nprng)
    g1 = integrate(p, 700).holonomy
    g2 = integrate(p, 700).holonomy
    assert rk4_calls == [(700, True)]
    assert np.array_equal(g2, apath._integrate_blocks(p, 700, True))
    assert not np.shares_memory(g1, g2)
    g1[:] = 0.0
    assert np.array_equal(integrate(p, 700).holonomy, g2)
    integrate(p, 701)
    assert rk4_calls[-1] == (701, True)


def test_left_and_right_holonomies_are_kept_apart(rk4_calls, nprng):
    p = _oracle_paths(nprng)["uneven"]
    g_right = action_integrate(p, 300).holonomy
    g_left = integrate(p, 300).holonomy
    assert np.max(np.abs(g_left - g_right)) > 1e-3      # gl(3) samples do not commute
    assert np.array_equal(integrate(p, 300).holonomy, g_left)
    assert np.array_equal(action_integrate(p, 300).holonomy, g_right)
    assert rk4_calls == [(300, False), (300, True)]
    assert np.array_equal(g_left, apath._integrate_blocks(p, 300, True))
    assert np.array_equal(g_right, apath._integrate_blocks(p, 300, False))


def test_path_samples_are_read_only_views():
    X = so3_matrix([0.3, 0.1, -0.2])
    ts = np.linspace(0.0, 1.0, 5)
    mats = np.repeat(X[None], 5, axis=0)
    p = based_constant_path(X, 5, np.array([1.0, 2.0, 3.0]))
    q = APath(ts, mats, p.base)
    assert np.shares_memory(q.mats, mats)                # a view, not a copy
    for a in (p.times, p.mats, p.base, q.times, q.mats):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


# -- oracle for `APath.anchor_residual` ------------------------------------------


def _oracle_anchor_residual(p):
    worst = 0.0
    for j in range(len(p.times) - 1):
        dt = p.times[j + 1] - p.times[j]
        if dt == 0:
            continue
        slope = (p.base[j + 1] - p.base[j]) / dt
        mid_a = 0.5 * (p.mats[j] + p.mats[j + 1])
        mid_x = 0.5 * (p.base[j] + p.base[j + 1])
        worst = max(worst, float(np.max(np.abs(slope - mid_a @ mid_x))))
    return worst


def test_anchor_residual_matches_scalar_loop():
    p = load_apath(SUITE_DATA / "action_so3.apath")
    q = based_constant_path(so3_matrix([-0.3, 0.4, 0.9]), 13, p.base[-1])
    pq = concatenate(p, q)
    assert len(pq.blocks()) == 2                         # one repeated time stamp
    for path in (p, pq):
        # the matrix-vector sums may run in another order; the terms are O(1)
        assert abs(path.anchor_residual() - _oracle_anchor_residual(path)) <= 1e-14
        assert path.anchor_residual() > 1e-6
