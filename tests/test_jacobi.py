"""The two-sided Jacobi kernel against the one it replaced and eigvalsh.

``ref_jacobi_hermitian`` keeps the earlier kernel as a test oracle: it
skipped every pivot below off / (4n), a threshold that falls only
linearly with the off-diagonal mass ``off``, and applied each round in
one update.  The current kernel must agree with it and with numpy's
``eigvalsh`` on the eigenvalues, give orthonormal vectors, and raise the
same NoConvergence messages.
"""

import numpy as np
import pytest

from spectral_forge import linalg
from spectral_forge.errors import NoConvergence
from spectral_forge.gallery import OperatorSpec, generate
from spectral_forge.linalg import (
    OperatorMatrix,
    _EPS,
    _TINY_PIVOT,
    _jacobi_hermitian,
    _rotate_rows,
    _rotation,
    _round_robin_rounds,
    _sweep_head,
    hermitian_eig,
    normal_eig,
)
from spectral_forge.measures import pvm_from_normal


def ref_jacobi_hermitian(matrix):
    m = np.asarray(matrix, dtype=np.complex128)
    w = (m + m.conj().T) / 2.0
    off_target = linalg.ATOL * (1.0 + np.linalg.norm(w))
    n = w.shape[0]
    vt = np.eye(n, dtype=np.complex128)
    budget = linalg.JACOBI_BUDGET_FACTOR * n * n
    rotations = 0
    prev_off = np.inf
    while True:
        head = _sweep_head(w, _EPS, prev_off, rotations, budget, off_target)
        if head is None:
            break
        off = prev_off = head[0]
        skip_threshold = off / (4.0 * n)
        for p_all, q_all in _round_robin_rounds(n):
            beta = w[p_all, q_all]
            active = np.abs(beta) > max(skip_threshold, _TINY_PIVOT)
            if not active.any():
                continue
            p = p_all[active]
            q = q_all[active]
            beta = beta[active]
            alpha = w[p, p].real
            gamma = w[q, q].real
            shift, c, s, u = _rotation(alpha, gamma, beta)
            su = s * u
            cu = c * u
            wp = w[:, p]
            wq = w[:, q]
            w[:, p] = wp * c - wq * su
            w[:, q] = wp * s + wq * cu
            _rotate_rows(w, p, q, c, s, s * u.conj(), c * u.conj())
            w[p, q] = 0.0
            w[q, p] = 0.0
            w[p, p] = alpha - shift
            w[q, q] = gamma + shift
            _rotate_rows(vt, p, q, c, s, su, cu)
            rotations += int(p.size)
    return w.diagonal().real.copy(), vt.T


def _random_hermitian(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2


def _graded(seed, n, decades):
    # D H D with H positive definite and well conditioned, D spread over
    # ``decades``: eigenvalues that Jacobi resolves to eps relative to
    # themselves, far below eps ||W|| (Demmel & Veselic 1992)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g @ g.conj().T) / n + np.eye(n)
    d = 10.0 ** rng.uniform(-decades, 0.0, n)
    return d[:, None] * h * d[None, :]


def _degenerate(seed, n):
    # a few values each repeated, in a random unitary frame
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    vals = np.resize([-2.0, 0.5, 0.5 + 1e-13, 3.0], n)
    return (q * vals) @ q.conj().T


CASES = {
    "n1": lambda: np.array([[2.5]], dtype=complex),
    "n2": lambda: _random_hermitian(2, 2),
    "n3": lambda: _random_hermitian(3, 3),
    "diagonal": lambda: np.diag([3.0, -1.0, 0.0, 2.0]).astype(complex),
    "zero": lambda: np.zeros((5, 5), dtype=complex),
    "graded_8": lambda: _graded(8, 8, 12),
    "graded_24": lambda: _graded(24, 24, 8),
    "momentum_1d": lambda: generate(
        OperatorSpec("momentum_1d", dim=16, scale=16.0)).array,
    "momentum_1d_odd": lambda: generate(
        OperatorSpec("momentum_1d", dim=15, scale=3.0)).array,
    "degenerate_12": lambda: _degenerate(12, 12),
    "degenerate_40": lambda: _degenerate(40, 40),
    "one_block_64": lambda: _random_hermitian(64, 64),
    # 128 KB holds 51 pairs of 160 rows: a full block and a part
    "blocks_80_pairs": lambda: _random_hermitian(160, 160, scale=10.0),
}


def _check_system(w, vals, vecs):
    n = w.shape[0]
    w = (w + w.conj().T) / 2
    scale = max(np.linalg.norm(w), _TINY_PIVOT)
    oracle = np.linalg.eigvalsh(w)
    assert np.max(np.abs(np.sort(vals) - oracle)) <= 4 * n * _EPS * scale
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) <= 2 * n * _EPS
    resid = np.linalg.norm(w @ vecs - vecs * vals)
    assert resid <= 4 * n * _EPS * scale


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_the_linear_threshold_kernel(case):
    w = CASES[case]()
    vals, vecs = _jacobi_hermitian(w)
    ref_vals, _ = ref_jacobi_hermitian(w)
    _check_system(w, vals, vecs)
    # both kernels stop at the relative floor: on a graded matrix they
    # agree to eps relative to each eigenvalue, far below eps ||W||
    got, want = np.sort(vals), np.sort(ref_vals)
    n = w.shape[0]
    scale = np.abs(want) if case.startswith("graded") else np.linalg.norm(w)
    assert np.all(np.abs(got - want) <= 8 * n * _EPS * scale)


@pytest.mark.parametrize("seed", range(6))
def test_graded_eigenvalues_keep_relative_accuracy(seed):
    # a symmetric permutation moves no eigenvalue, so two orderings of
    # the same graded matrix must agree to eps relative to each value
    n = 6 + 3 * seed
    w = _graded(100 + seed, n, 14)
    perm = np.random.default_rng(seed).permutation(n)
    a = np.sort(_jacobi_hermitian(w)[0])
    b = np.sort(_jacobi_hermitian(w[np.ix_(perm, perm)])[0])
    assert a.min() < 1e-20 * a.max()
    assert np.all(np.abs(a - b) <= 8 * n * _EPS * a)


def test_refused_pivot_under_accepted_mass_still_turns():
    # the 1e-17 coupling of the large block is below its floor eps and
    # holds all the off-diagonal mass; the small block's coupling 1e-36
    # is far above its floor 2e-46 but below a threshold taken from the
    # whole mass, (1e-17)^2 / 1.4 / 16 ~ 1e-35.  Turning it moves the
    # small eigenvalues by 1e-6 relative to themselves.
    w = np.diag([1.0, 1.0, 1e-30, 1e-30]).astype(complex)
    w[0, 1] = w[1, 0] = 1e-17
    w[2, 3] = w[3, 2] = 1e-36
    vals = np.sort(_jacobi_hermitian(w)[0])
    want = np.array([1e-30 - 1e-36, 1e-30 + 1e-36])
    assert np.all(np.abs(vals[:2] - want) <= 4 * _EPS * want)


@pytest.mark.parametrize("scale", [1e-162, 1e-170, 1e-300])
def test_tiny_inputs_keep_relative_accuracy(scale):
    # below about 1e-154 the squares in the norms underflow; unscaled,
    # the off-diagonal mass read 0 and the sweeps stopped as stalled
    # after one (eigenvalues 15 % off at 1e-170), and the threshold's
    # r / ||W||_F divided by zero
    n = 12
    h = generate(OperatorSpec("random_hermitian", dim=n, seed=3)).array
    vals = hermitian_eig(OperatorMatrix(scale * h)).eigenvalues.real
    err = np.max(np.abs(vals / scale - np.linalg.eigvalsh(h)))
    assert err <= 4 * n * _EPS * np.linalg.norm(h)
    t = generate(OperatorSpec("random_normal", dim=n, seed=3)).array
    vals = np.sort_complex(normal_eig(OperatorMatrix(scale * t)).eigenvalues)
    err = np.max(np.abs(vals / scale - np.sort_complex(np.linalg.eigvals(t))))
    assert err <= 8 * n * _EPS * np.linalg.norm(t)
    # clusters join relative to the points' own size, so the measure is
    # the unscaled input's n atoms, scaled
    e = pvm_from_normal(OperatorMatrix(scale * t))
    unscaled = pvm_from_normal(OperatorMatrix(t))
    assert e.ranks == unscaled.ranks == (1,) * n
    np.testing.assert_allclose(e.points / scale, unscaled.points, rtol=0,
                               atol=8 * n * _EPS * np.linalg.norm(t))


def test_tiny_off_diagonal_under_a_normal_peak_still_turns():
    # the peak entry 1 is in range, so no power-of-two scale engages, and
    # the couplings' squares underflow: taken plainly, the off-diagonal
    # mass read 0 and the sweeps stopped as stalled after one, leaving
    # the small eigenvalues 5.7e-3, 4.1e-3 and 7.7e-5 off
    w = np.diag([1.0, 1e-170, 1e-170, 2e-170]).astype(complex)
    for (p, q), v in {(1, 2): 3e-171, (1, 3): 4e-171, (2, 3): 5e-171}.items():
        w[p, q] = w[q, p] = v
    vals = hermitian_eig(OperatorMatrix(w)).eigenvalues.real
    want = np.ldexp(np.linalg.eigvalsh(np.ldexp(w[1:, 1:].real, 565)), -565)
    assert vals[3] == 1.0
    assert np.all(np.abs(vals[:3] - want) <= 4 * _EPS * want)


def test_blocks_of_any_width_give_the_same_system(monkeypatch):
    # blocks of 3 pairs, the last one short, against one block per round
    w = _random_hermitian(21, 21)
    one = _jacobi_hermitian(w)
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 3 * 16 * 21)
    vals, vecs = _jacobi_hermitian(w)
    _check_system(w, vals, vecs)
    np.testing.assert_allclose(np.sort(vals), np.sort(one[0]),
                               rtol=0, atol=32 * 21 * _EPS)


@pytest.mark.parametrize("case", ["n1", "n2", "n3", "diagonal", "zero",
                                  "graded_8", "momentum_1d",
                                  "degenerate_12"])
def test_budget_zero_gives_the_same_outcome(case, monkeypatch):
    # the budget test runs at the first sweep head, before any rotation,
    # so both kernels raise the same message or both return at once
    monkeypatch.setattr(linalg, "JACOBI_BUDGET_FACTOR", 0)
    w = CASES[case]()
    outcomes = []
    for kernel in (_jacobi_hermitian, ref_jacobi_hermitian):
        try:
            vals, _ = kernel(w)
            outcomes.append(("returned", np.sort(vals).tolist()))
        except NoConvergence as exc:
            outcomes.append(("raised", str(exc)))
    assert outcomes[0] == outcomes[1]
    if np.count_nonzero(w - np.diag(w.diagonal())):
        assert outcomes[0][0] == "raised"
        assert "sweep budget of 0 rotations exhausted" in outcomes[0][1]


def test_unitary_hermitian_part_converges_quadratically(monkeypatch):
    # the H of a random unitary: the linear threshold off / (4n) took 17
    # sweep heads here, the quadratic one takes 10
    heads = []
    measure = linalg._off_diagonal_norm

    def counted(x):
        heads.append(1)
        return measure(x)

    monkeypatch.setattr(linalg, "_off_diagonal_norm", counted)
    t = generate(OperatorSpec("random_unitary", dim=32, seed=5))
    _jacobi_hermitian(t.array)
    assert len(heads) <= 11


def test_kernel_peak_memory_at_n_256():
    # W, the rows of V*, the sweep head's |W| and floor matrices, and
    # the blocks of one update: about 4 n x n complex arrays (5.7 for the
    # kernel that gathered whole rounds of columns)
    import tracemalloc
    n = 256
    t = generate(OperatorSpec("random_normal", dim=n, scale=10.0, seed=3))
    h = (t.array + t.array.conj().T) / 2
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        vals, vecs = _jacobi_hermitian(h)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert vecs.shape == (n, n)
    assert peak <= 5.13 * 16 * n * n


def ref_round_robin_rounds(n):
    # the circle method as a loop: seat 0 stays, the others turn one
    # seat per round, and pairs with the bye seat n (odd n) are dropped
    if n < 2:
        return ()
    m = n if n % 2 == 0 else n + 1
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = seats[i], seats[m - 1 - i]
            if a >= n or b >= n:
                continue
            ps.append(min(a, b))
            qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=np.intp),
                       np.array(qs, dtype=np.intp)))
        seats = [seats[0]] + [seats[-1]] + seats[1:-1]
    return tuple(rounds)


@pytest.mark.parametrize("n", range(0, 41))
def test_round_robin_rounds_match_the_circle_loop(n):
    got = _round_robin_rounds(n)
    want = ref_round_robin_rounds(n)
    assert len(got) == len(want)
    for (p, q), (rp, rq) in zip(got, want):
        assert p.dtype == rp.dtype == q.dtype == rq.dtype
        np.testing.assert_array_equal(p, rp)
        np.testing.assert_array_equal(q, rq)
    pairs = set()
    for p, q in got:
        assert np.all(p < q)
        # disjoint within a round
        assert np.unique(np.concatenate([p, q])).size == 2 * p.size
        pairs.update(zip(p.tolist(), q.tolist()))
    # one sweep visits every pair once
    assert sum(p.size for p, _ in got) == len(pairs) == n * (n - 1) // 2
