"""Acceptance gate: one test per contract item, one PASS/FAIL line each.

Every residual here is evaluated through numpy's factorizations, a
route independent of the package's own eigensolvers, so a shared bug
cannot vouch for itself.  The corpus is 200 seeded normal matrices
with eigenvalue magnitudes in [0.1 scale, scale] (every fourth one
Hermitian with signed magnitudes), dimensions cycling 2..64 and scales
sweeping 1e-2..1e2.  Expensive artifacts (decompositions, pipeline
runs) are computed once and shared across criteria through
session-scoped caches.
"""

import time

import numpy as np
import pytest

from spectral_forge import (
    NotNormal,
    OperatorMatrix,
    OperatorSpec,
    SpectralMeasure,
    Tolerances,
    decompose,
    fubini_check,
    generate,
    marginal_residuals,
    pvm_from_normal,
    pvm_validate,
    read_matrix,
    spectral_theorem,
    write_matrix,
)
from spectral_forge.cli import main

CORPUS_SIZE = 200
DIMS = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
SCALINGS = (1.0, 1e2, 1e4, 1e6)


def _corpus_entry(i):
    n = DIMS[i % len(DIMS)]
    # gcd(7, 200) = 1, so the exponent grid hits all 200 points of
    # [-2, 2] while neighbouring indices get well-separated scales.
    scale = 10.0 ** (-2.0 + 4.0 * ((i * 7) % CORPUS_SIZE) / (CORPUS_SIZE - 1.0))
    hermitian = i % 4 == 3
    rng = np.random.default_rng(7000 + i)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    mags = scale * np.sqrt(0.01 + 0.99 * rng.random(n))
    if hermitian:
        lam = np.where(rng.random(n) < 0.5, -mags, mags).astype(np.complex128)
    else:
        lam = mags * np.exp(2j * np.pi * rng.random(n))
    arr = (q * lam) @ q.conj().T
    if hermitian:
        arr = 0.5 * (arr + arr.conj().T)
    return n, scale, hermitian, OperatorMatrix(arr)


@pytest.fixture(scope="session")
def corpus():
    return [_corpus_entry(i) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def decomps(corpus):
    cache = {}

    def get(i):
        if i not in cache:
            cache[i] = decompose(corpus[i][3])
        return cache[i]

    return get


@pytest.fixture(scope="session")
def pipelines(corpus):
    cache = {}

    def get(i):
        if i not in cache:
            cache[i] = spectral_theorem(corpus[i][3])
        return cache[i]

    return get


def _reconstruction(e, target):
    acc = np.zeros(target.shape, dtype=np.complex128)
    for k in range(e.num_atoms):
        acc += complex(e.points[k]) * e.projection(k).array
    return float(np.linalg.norm(acc - target))


def _oracle_atoms(arr, radius):
    """numpy eigendecomposition clustered into (point, basis) atoms."""
    lam, vec = np.linalg.eig(arr)
    m = lam.size
    parent = np.arange(m)

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return int(k)

    close = np.abs(lam[:, None] - lam[None, :]) <= radius
    for a, b in np.argwhere(np.triu(close, 1)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for k in range(m):
        groups.setdefault(find(k), []).append(k)
    atoms = []
    for idx in groups.values():
        q, _ = np.linalg.qr(vec[:, idx])
        atoms.append((complex(lam[idx].mean()), q))
    return atoms


def _match_against_oracle(e, atoms, radius):
    """Greedy point matching; (unmatched count, point gap, projection gap)."""
    oracle_pts = np.array([z for z, _ in atoms])
    dist = np.abs(e.points[:, None] - oracle_pts[None, :])
    free = set(range(len(atoms)))
    rows = sorted(range(e.num_atoms), key=lambda k: float(dist[k].min()))
    unmatched = 0
    point_gap = 0.0
    proj_gap = 0.0
    for k in rows:
        pick = next((int(j) for j in np.argsort(dist[k]) if int(j) in free),
                    None)
        if pick is None or dist[k, pick] > radius:
            unmatched += 1
            continue
        free.discard(pick)
        point_gap = max(point_gap, float(dist[k, pick]))
        q = atoms[pick][1]
        diff = e.projection(k).array - q @ q.conj().T
        proj_gap = max(proj_gap, float(np.linalg.norm(diff)))
    return unmatched + len(free), point_gap, proj_gap


def _verdict(num, label, bad):
    flag = "PASS" if not bad else "FAIL"
    print(f"[{num}] {label}: {flag}")
    assert not bad, "\n".join(bad)


def test_criterion_1_decomposition_suite(corpus, decomps):
    start = time.perf_counter()
    bad = []
    for i, (n, scale, hermitian, t) in enumerate(corpus):
        d = decomps(i)
        a, b, arr = d.a.array, d.b.array, t.array
        norm2 = float(np.linalg.norm(arr, 2))
        fro = float(np.linalg.norm(arr))
        floor = 1.0 / (1.0 + norm2 ** 2) - 1e-10 * n
        min_eig = float(np.linalg.eigvalsh(a).min())
        if min_eig < floor:
            bad.append(f"[{i}] min eigenvalue of A {min_eig:.6e} below {floor:.6e}")
        recon = float(np.linalg.norm(np.linalg.solve(a, b) - arr))
        if recon > 1e-8 * n * (1.0 + fro):
            bad.append(f"[{i}] inverse recovery residual {recon:.3e}")
        comm = float(np.linalg.norm(a @ b - b @ a))
        comm_bound = 1e-10 * n * float(np.linalg.norm(a, 2)) * float(np.linalg.norm(b, 2))
        if comm > comm_bound:
            bad.append(f"[{i}] commutator {comm:.3e} beyond {comm_bound:.3e}")
        herm_a = float(np.linalg.norm(a - a.conj().T))
        normal_b = float(np.linalg.norm(b.conj().T @ b - b @ b.conj().T))
        defect_bound = 1e-9 * n * scale
        if herm_a > defect_bound:
            bad.append(f"[{i}] Hermitian defect of A {herm_a:.3e}")
        if normal_b > defect_bound:
            bad.append(f"[{i}] normality defect of B {normal_b:.3e}")
        if hermitian:
            herm_b = float(np.linalg.norm(b - b.conj().T))
            if herm_b > defect_bound:
                bad.append(f"[{i}] Hermitian defect of B {herm_b:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        bad.append(f"suite took {elapsed:.1f}s, budget is 30s")
    _verdict(1, f"decomposition suite, {CORPUS_SIZE} operators in {elapsed:.1f}s", bad)


def test_criterion_2_auxiliary_identities(corpus, decomps):
    bad = []
    for i, (n, scale, hermitian, t) in enumerate(corpus):
        d = decomps(i)
        a, b, arr = d.a.array, d.b.array, t.array
        bound = 1e-9 * n * scale
        left = float(np.linalg.norm(a @ arr - b))
        right = float(np.linalg.norm(b.conj().T - arr.conj().T @ a))
        if left > bound:
            bad.append(f"[{i}] AT - B residual {left:.3e} beyond {bound:.3e}")
        if right > bound:
            bad.append(f"[{i}] B* - T*A residual {right:.3e} beyond {bound:.3e}")
    _verdict(2, "auxiliary identities on the corpus", bad)


def test_criterion_3_uniform_norm_bounds(corpus, decomps):
    bad = []
    for i, (n, scale, hermitian, t) in enumerate(corpus):
        base = decomps(i)
        for s in SCALINGS:
            if s == 1.0:
                d = base
            else:
                d = decompose(OperatorMatrix(s * t.array))
            na = float(np.linalg.norm(d.a.array, 2))
            nb = float(np.linalg.norm(d.b.array, 2))
            if na > 1.0 + 1e-9:
                bad.append(f"[{i}] s={s:g}: ||A|| = {na:.12f} above 1")
            if nb > 0.5 + 1e-9:
                bad.append(f"[{i}] s={s:g}: ||B|| = {nb:.12f} above 1/2")
    _verdict(3, "norm bounds stay uniform through scaling 1e6", bad)


def test_criterion_4_pvm_suite(corpus, decomps, pipelines):
    bad = []
    for i, (n, scale, hermitian, t) in enumerate(corpus):
        res = pipelines(i)
        d = res.decomposition
        triples = (("E1", res.e1, d.a.array),
                   ("E2", res.e2, d.b.array),
                   ("direct", pvm_from_normal(t), t.array))
        for label, e, source in triples:
            rep = pvm_validate(e)
            for key in ("idempotency", "hermitian_defect", "orthogonality",
                        "completeness"):
                if rep.residuals[key] > 1e-9 * n:
                    bad.append(f"[{i}] {label} {key} = {rep.residuals[key]:.3e}")
            if not rep.all_passed:
                fails = [k for k, ok in rep.passed.items() if not ok]
                bad.append(f"[{i}] {label} validate fails {fails}")
            if sum(e.ranks) != n:
                bad.append(f"[{i}] {label} total rank {sum(e.ranks)} != {n}")
            rec = _reconstruction(e, source)
            rec_bound = 1e-8 * n * (1.0 + float(np.linalg.norm(source)))
            if rec > rec_bound:
                bad.append(f"[{i}] {label} reconstruction {rec:.3e}")
    _verdict(4, "projection measure invariants on every output", bad)


def test_criterion_5_product_fubini(corpus, pipelines):
    f1s = (lambda x: 1.0, lambda x: x, lambda x: 1.0 / x)
    f2s = (lambda w: 1.0, lambda w: w, lambda w: complex(w).conjugate())
    bad = []
    for i, (n, scale, hermitian, t) in enumerate(corpus):
        res = pipelines(i)
        e1, e2, prod = res.e1, res.e2, res.product
        bound = 1e-9 * n
        p_at = {complex(e1.points[k]): e1.projection(k).array
                for k in range(e1.num_atoms)}
        q_at = {complex(e2.points[k]): e2.projection(k).array
                for k in range(e2.num_atoms)}
        rect = 0.0
        for k in range(prod.num_atoms):
            p = p_at[complex(prod.t_points[k])]
            q = q_at[complex(prod.w_points[k])]
            gap = float(np.linalg.norm(prod.projection(k).array - p @ q))
            rect = max(rect, gap)
        if rect > bound:
            bad.append(f"[{i}] rectangle identity residual {rect:.3e}")
        m1, m2 = marginal_residuals(prod, e1, e2)
        if max(m1, m2) > bound:
            bad.append(f"[{i}] marginal residuals {m1:.3e}, {m2:.3e}")
        total = np.zeros((n, n), dtype=np.complex128)
        for k in range(prod.num_atoms):
            total += prod.projection(k).array
        comp = float(np.linalg.norm(total - np.eye(n)))
        if comp > bound:
            bad.append(f"[{i}] completeness residual {comp:.3e}")
        fub_bound = 1e-8 * n * scale
        for fi, f1 in enumerate(f1s):
            for fj, f2 in enumerate(f2s):
                r = fubini_check(f1, f2, e1, e2, prod)
                if r > fub_bound:
                    bad.append(f"[{i}] fubini ({fi},{fj}) residual {r:.3e}")
    _verdict(5, "product measure and iterated integrals", bad)


def test_criterion_6_pipeline_equivalence(corpus, pipelines):
    bad = []
    for i, (n, scale, hermitian, t) in enumerate(corpus):
        res = pipelines(i)
        e = res.spectral_measure
        arr = t.array
        norm2 = float(np.linalg.norm(arr, 2))
        atoms = _oracle_atoms(arr, Tolerances().cluster_radius(norm2))
        unmatched, point_gap, proj_gap = _match_against_oracle(
            e, atoms, 1e-7 * (1.0 + norm2))
        if unmatched:
            bad.append(f"[{i}] {unmatched} unmatched atoms")
        if proj_gap > 1e-6 * n:
            bad.append(f"[{i}] projection gap {proj_gap:.3e}")
        rec = _reconstruction(e, arr)
        rec_bound = 1e-7 * n * (1.0 + float(np.linalg.norm(arr)))
        if rec > rec_bound:
            bad.append(f"[{i}] reconstruction {rec:.3e} beyond {rec_bound:.3e}")
        if not res.report.all_passed:
            fails = [k for k, ok in res.report.passed.items() if not ok]
            bad.append(f"[{i}] pipeline report fails {fails}")
    _verdict(6, "pushforward route matches direct diagonalization", bad)


def test_criterion_7_discretized_models():
    start = time.perf_counter()
    runs = []
    for kind, dim, scale in (("multiplication", 512, 100.0),
                             ("laplacian_1d", 256, 1.0)):
        t = generate(OperatorSpec(kind=kind, dim=dim, scale=scale))
        runs.append((kind, dim, t, spectral_theorem(t)))
    elapsed = time.perf_counter() - start
    bad = []
    for kind, dim, t, res in runs:
        arr = t.array
        norm2 = float(np.linalg.norm(arr, 2))
        atoms = _oracle_atoms(arr, Tolerances().cluster_radius(norm2))
        unmatched, point_gap, proj_gap = _match_against_oracle(
            res.spectral_measure, atoms, 1e-7 * (1.0 + norm2))
        if unmatched:
            bad.append(f"{kind}: {unmatched} unmatched atoms")
        if proj_gap > 1e-6 * dim:
            bad.append(f"{kind}: projection gap {proj_gap:.3e}")
        rec = _reconstruction(res.spectral_measure, arr)
        if rec > 1e-7 * dim * (1.0 + float(np.linalg.norm(arr))):
            bad.append(f"{kind}: reconstruction {rec:.3e}")
        if not res.report.all_passed:
            fails = [k for k, ok in res.report.passed.items() if not ok]
            bad.append(f"{kind}: report fails {fails}")
    if elapsed > 60.0:
        bad.append(f"models took {elapsed:.1f}s, budget is 60s")
    _verdict(7, f"n=512 and n=256 models run the pipeline in {elapsed:.1f}s", bad)


def test_criterion_8_negative_controls():
    bad = []
    for n in range(2, 9):
        jordan = generate(OperatorSpec(kind="jordan_block", dim=n, scale=1.0))
        for route in (decompose, spectral_theorem):
            try:
                route(jordan)
            except NotNormal:
                pass
            else:
                bad.append(f"{route.__name__} accepted a jordan block, n={n}")
    clean = pvm_from_normal(OperatorMatrix(np.diag([1.0, 2.0, 3.0 + 1j])))
    n = clean.dim
    pts = clean.points
    bases = [clean.basis(k) for k in range(clean.num_atoms)]
    tampered = (
        # one basis duplicated: breaks orthogonality and completeness
        SpectralMeasure(n, pts, bases=(bases[0], bases[0], bases[2])),
        # scaled basis: projection no longer idempotent
        SpectralMeasure(n, pts, bases=(0.9 * bases[0], bases[1], bases[2])),
        # dropped atom: rank deficit and completeness gap
        SpectralMeasure(n, pts[:2], bases=(bases[0], bases[1])),
        # colliding points: atoms closer than the clustering radius
        SpectralMeasure(n, np.array([1.0, 1.0 + 1e-12, 3.0 + 1j]),
                        bases=tuple(bases)),
    )
    for k, e in enumerate(tampered):
        if pvm_validate(e).all_passed:
            bad.append(f"tampered measure {k} passed validation")
    _verdict(8, "non-normal inputs refused, tampered measures flagged", bad)


def test_criterion_9_determinism_and_io(tmp_path, capsys):
    bad = []
    gen_args = ["gen", "--kind", "random_normal", "--dim", "6",
                "--scale", "3.0", "--seed", "42"]
    blobs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        assert main(gen_args + ["--output", str(path)]) == 0
        blobs.append(path.read_bytes())
    if blobs[0] != blobs[1]:
        bad.append("gen outputs differ between identical runs")

    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert main(["pipeline", "--input", str(tmp_path / "first.json"),
                     "--cross-check"]) == 0
        outs.append(capsys.readouterr().out)
    if outs[0] != outs[1]:
        bad.append("pipeline outputs differ between identical runs")

    rng = np.random.default_rng(99)
    for k in range(100):
        n = int(rng.integers(1, 9))
        arr = (rng.standard_normal((n, n))
               + 1j * rng.standard_normal((n, n))) * 10.0 ** rng.integers(-9, 10)
        path = tmp_path / "m.json"
        write_matrix(OperatorMatrix(arr), str(path))
        again = read_matrix(str(path))
        if not np.array_equal(again.array, arr):
            bad.append(f"matrix {k} changed under write/read")
    _verdict(9, "seeded outputs byte-identical, write/read exact", bad)


def _closed_form_atoms(kind, n):
    """``(scale, points, ranks)`` of a ladder operator, from its formula."""
    if kind == "laplacian_1d":
        scale = float((n + 1) ** 2)
        z = scale * (2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    else:
        scale = float(n)
        z = -scale * np.sin(2.0 * np.pi * np.arange(n) / n)
    # sin(2 pi k / n) = sin(2 pi (n/2 - k) / n) holds to rounding only
    points, ranks = np.unique(np.round(z / scale, 12), return_counts=True)
    return scale, scale * points, ranks


LADDER = [(kind, n) for n in (32, 64, 128, 256)
          for kind in ("laplacian_1d", "momentum_1d")]


def test_criterion_10_closed_form_ladder():
    # laplacian_1d at scale (n+1)^2 (||T|| up to 2.6e5) and momentum_1d at
    # scale n (mostly rank-2 atoms), each atom held to the closed form:
    # its rank, its point, and ||T U - z U||_F for its basis U
    start = time.perf_counter()
    bad = []
    for kind, n in LADDER:
        scale, points, ranks = _closed_form_atoms(kind, n)
        t = generate(OperatorSpec(kind=kind, dim=n, scale=scale))
        res = spectral_theorem(t)
        e = res.spectral_measure
        norm = float(np.max(np.abs(points)))
        if not res.report.all_passed:
            bad.append(f"{kind} n={n}: report fails {res.report.failed}")
        if e.num_atoms != points.size:
            bad.append(f"{kind} n={n}: {e.num_atoms} atoms, "
                       f"closed form has {points.size}")
            continue
        order = np.argsort(e.points.real, kind="stable")
        gap = float(np.max(np.abs(e.points[order] - points)))
        if gap > 1e-12 * norm:
            bad.append(f"{kind} n={n}: point gap {gap:.3e}")
        if tuple(e.ranks[k] for k in order) != tuple(ranks.tolist()):
            bad.append(f"{kind} n={n}: ranks differ from the closed form")
        residual = max(float(np.linalg.norm(t.array @ e.basis(k) - z * e.basis(k)))
                       for k, z in zip(order, points))
        if residual > 1e4 * n * np.finfo(float).eps * norm:
            bad.append(f"{kind} n={n}: eigen residual {residual:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        bad.append(f"ladder took {elapsed:.1f}s, budget is 60s")
    _verdict(10, f"closed-form ladder, n up to 256, in {elapsed:.1f}s", bad)
