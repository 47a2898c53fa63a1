"""The benchmark's four workloads: their inputs and one operation each.

Inputs come only from the workload seed.  CLI workloads run
``python -m spectral_forge.cli`` as a child process, JSON in and JSON
out, one child at a time; ``mixed_small`` calls ``spectral_theorem`` in
this process.  Run as a script, this file performs one workload's set-up
in a fresh interpreter, which is what ``setup_s`` times:

    python bench/workloads.py WORKLOAD SEED DIR
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def child_env() -> dict[str, str]:
    """This process's environment (BLAS threads included), with src on
    the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    wall_s: float
    returncode: int
    rss_mb: float
    stderr: str


def run_child(argv: list[str], stdout_path: str) -> Child:
    """Run ``python argv`` to completion; stdout goes to ``stdout_path``."""
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        lines = handle.read().strip().splitlines()
    return Child(wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6,
                 lines[-1] if lines else "")


@dataclass
class Op:
    """One operation: what it cost and whether it failed."""

    k: int                     # op id: the round it ran in
    index: int                 # which input it ran on
    traced: bool
    latency_s: float = 0.0     # the main command or call
    verify_s: list = field(default_factory=list)
    rss_mb: float = 0.0
    artifact_bytes: int | None = None
    error: str | None = None   # why the op failed; None when it passed
    output: object = None      # what the oracle inspects afterwards
    startup_s: float = 0.0     # traced CLI ops: wall time outside cli.main
    scale: float = 1.0         # raw time to time at the reference speed


def _sf():
    """The package, imported only once run.py has found its sources."""
    import spectral_forge
    return spectral_forge


class CliWorkload:
    """``pipeline`` on seeded input files, in child processes.

    ``kind``, ``dim`` and ``scale`` pick the gallery family; ``count``
    distinct inputs are cycled; ``shuffle`` puts a diagonal input's
    entries in a seeded order; ``emit`` is the pipeline's ``--emit``.
    With ``emit="all"`` the op writes a bundle and then runs ``verify``
    on it against the input, so the op is a write and read round trip.
    ``op_s`` is the nominal wall time of one op, which sizes a run.
    """

    library = False

    def __init__(self, name, kind, dim, scale, op_s, count=1, emit="report",
                 shuffle=False):
        self.name, self.kind, self.dim, self.scale = name, kind, dim, scale
        self.op_s, self.count, self.emit = op_s, count, emit
        self.shuffle = shuffle

    def inputs(self, seed: int) -> list:
        sf = _sf()
        out = []
        for k in range(self.count):
            gseed = seed * 100_000 + k
            t = sf.generate(sf.OperatorSpec(kind=self.kind, dim=self.dim,
                                            scale=self.scale, seed=gseed))
            if self.shuffle:
                d = np.diag(t.array)
                order = np.random.default_rng(gseed).permutation(self.dim)
                t = sf.OperatorMatrix(np.diag(d[order]))
            out.append(t)
        return out

    def input_path(self, workdir: str, k: int) -> str:
        return os.path.join(workdir, f"t{k}.json")

    def prepare(self, seed: int, workdir: str) -> list:
        """Write the inputs into ``workdir``; return them."""
        sf = _sf()
        inputs = self.inputs(seed)
        for k, t in enumerate(inputs):
            sf.write_matrix(t, self.input_path(workdir, k))
        return inputs

    @staticmethod
    def _command(op, args, out, tracer, spans_out):
        """Run one CLI command for ``op``, traced when ``tracer`` is set."""
        if tracer is None:
            child = run_child(["-m", "spectral_forge.cli", *args], out)
        else:
            child = run_child(
                [os.path.join(BENCH, "spans.py"), spans_out, *args], out)
            with open(spans_out, encoding="utf-8") as handle:
                spans = json.load(handle)
            first = len(tracer.spans)
            tracer.absorb(spans["spans"], op.k, spans["absent"])
            main_s = sum(s[2] - s[1] for s in tracer.spans[first:]
                         if s[0] == "cli.main")
            op.startup_s += child.wall_s - main_s
        op.rss_mb = max(op.rss_mb, child.rss_mb)
        return child

    def run_op(self, state, k: int, workdir: str, tracer=None) -> Op:
        index = k % self.count
        tag = "t" if tracer is not None else "u"
        opdir = os.path.join(workdir, f"op{k}{tag}")
        os.makedirs(opdir)
        source = self.input_path(workdir, index)
        args = ["pipeline", "--input", source, "--emit", self.emit]
        if self.emit == "report":
            artifact = os.path.join(opdir, "report.json")
            stdout = artifact
        else:
            artifact = os.path.join(opdir, "bundle.json")
            stdout = os.path.join(opdir, "pipeline.out")
            args += ["--output", artifact]
        op = Op(k=k, index=index, traced=tracer is not None,
                output=artifact)
        # Spans go beside the op directory, which verify reads whole.
        spans_out = opdir + "-{}.spans"
        child = self._command(op, args, stdout, tracer,
                              spans_out.format("pipeline"))
        op.latency_s = child.wall_s
        if child.returncode == 1:
            op.error = "report failed"
        elif child.returncode != 0:
            op.error = f"pipeline exit {child.returncode}: {child.stderr}"
            return op
        op.artifact_bytes = os.path.getsize(artifact)
        if self.emit == "report":
            return op
        vout = os.path.join(opdir, "verify.out")
        child = self._command(
            op, ["verify", "--dir", opdir, "--input", source], vout, tracer,
            spans_out.format("verify"))
        op.verify_s.append(child.wall_s)
        with open(vout, encoding="utf-8") as handle:
            verdict = handle.read()
        if op.error is None and (child.returncode != 0 or "FAIL" in verdict):
            op.error = f"verify exit {child.returncode}: {verdict.strip()}"
        return op

    def check(self, state, ops: list[Op]) -> list[str]:
        """Oracle-check each op's output; return run-level problems.

        An output that misses the oracle fails its op.  A problem is an
        input on which repeated ops, traced or not, wrote different
        bytes: seeded runs must be byte-identical.
        """
        from oracle import check_measure, check_report, reference
        problems = []
        digests: dict[int, str] = {}
        refs: dict[int, object] = {}
        verdicts: dict[str, str | None] = {}
        for op in ops:
            if op.artifact_bytes is None:
                continue
            with open(op.output, "rb") as handle:
                raw = handle.read()
            digest = hashlib.sha256(raw).hexdigest()
            _same_output(digests, op, digest, problems)
            if op.error is not None:
                continue
            if digest not in verdicts:
                arr = state[op.index].array
                ref = refs.setdefault(op.index, reference(arr))
                doc = json.loads(raw)
                if self.emit == "report":
                    verdicts[digest] = check_report(arr, doc, ref)
                else:
                    measure = doc["measure"]
                    dim = measure["dim"]
                    points = [complex(*a["point"]) for a in measure["atoms"]]
                    projections = [
                        np.array(a["projection"]["entries"], dtype=float)
                        .view(np.complex128).reshape(dim, dim)
                        for a in measure["atoms"]]
                    del doc, measure
                    verdicts[digest] = check_measure(arr, points,
                                                     projections, ref)
            if verdicts[digest] is not None:
                op.error = "oracle: " + verdicts[digest]
        return problems


def _same_output(digests: dict, op: Op, digest: str, problems: list):
    if digests.setdefault(op.index, digest) != digest:
        problems.append(f"input {op.index}: repeated ops gave different "
                        "outputs")


# Sizes cycled by mixed_small, and its norm grid: 13 log-spaced points
# over the documented range [1e-2, NORM_LIMIT = 1e6], endpoints included.
MIXED_DIMS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
MIXED_KINDS = ("random_normal", "random_hermitian", "random_unitary",
               "momentum_1d")
MIXED_NORMS = tuple(10.0 ** (-2.0 + 8.0 * k / 12.0) for k in range(13))


def _nbytes(obj, seen=None) -> int:
    """Bytes of every numpy array reachable through dataclass fields."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x, seen) for x in obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name), seen) for f in fields(obj))
    return 0


class LibraryWorkload:
    """``spectral_theorem(t)`` in this process over a pool of inputs.

    Op ``i`` takes kind ``i mod 4``, size ``i mod 9`` and norm grid point
    ``i mod 13``, so the pool of 4 * 9 * 13 = 468 inputs holds every
    combination once and any run of 52 ops meets every kind at every
    grid point.  Random kinds reach a norm of at most the grid value;
    ``random_unitary`` and ``momentum_1d`` (for n divisible by 4) reach
    it exactly.  ``specs`` replaces the pool, for tests.  ``op_s`` is
    the nominal wall time of one op, which sizes a run.
    """

    library = True

    def __init__(self, name, op_s, dims=MIXED_DIMS, kinds=MIXED_KINDS,
                 norms=MIXED_NORMS, specs=None):
        self.name, self.dims, self.kinds, self.norms = name, dims, kinds, norms
        self.op_s = op_s
        self._specs = specs

    def specs(self, seed: int) -> list:
        sf = _sf()
        if self._specs is not None:
            return list(self._specs)
        size = len(self.dims) * len(self.kinds) * len(self.norms)
        out = []
        for i in range(size):
            kind = self.kinds[i % len(self.kinds)]
            random = kind.startswith("random_")
            out.append(sf.OperatorSpec(
                kind=kind, dim=self.dims[i % len(self.dims)],
                scale=self.norms[i % len(self.norms)],
                seed=seed * 100_000 + i if random else None))
        return out

    def prepare(self, seed: int, workdir: str) -> list:
        """Generate the pool and warm up once per distinct size."""
        sf = _sf()
        pool = [sf.generate(spec) for spec in self.specs(seed)]
        for n in sorted({t.dim for t in pool}):
            sf.pipeline.spectral_theorem(sf.generate(sf.OperatorSpec(
                kind="random_normal", dim=n, scale=1.0, seed=seed)))
        return pool

    def run_op(self, pool, k: int, workdir: str, tracer=None) -> Op:
        sf = _sf()
        index = k % len(pool)
        t = pool[index]
        op = Op(k=k, index=index, traced=tracer is not None)
        if tracer is None:
            self._call(sf, t, op)
        else:
            with tracer.installed(k):
                self._call(sf, t, op)
        return op

    @staticmethod
    def _call(sf, t, op):
        start = time.perf_counter()
        try:
            result = sf.pipeline.spectral_theorem(t)
        except sf.SpectralForgeError as exc:
            op.latency_s = time.perf_counter() - start
            op.error = f"{type(exc).__name__}: {exc}"
            return
        op.latency_s = time.perf_counter() - start
        if not result.report.all_passed:
            op.error = "report failed: " + ",".join(
                key for key, ok in result.report.passed.items() if not ok)
        measure = result.spectral_measure
        start = time.perf_counter()
        verified = sf.measures.pvm_validate(measure).all_passed
        op.verify_s.append(time.perf_counter() - start)
        if op.error is None and not verified:
            op.error = "pvm_validate failed"
        op.artifact_bytes = _nbytes(result)
        op.output = measure

    def check(self, pool, ops: list[Op]) -> list[str]:
        """Oracle-check each returned measure, as ``CliWorkload.check``."""
        from oracle import check_measure
        problems = []
        digests: dict[int, str] = {}
        for op in ops:
            e, op.output = op.output, None
            if e is None:
                continue
            projections = [e.projection(i).array for i in range(e.num_atoms)]
            digest = hashlib.sha256(e.points.tobytes())
            for p in projections:
                digest.update(p.tobytes())
            _same_output(digests, op, digest.hexdigest(), problems)
            if op.error is None:
                miss = check_measure(pool[op.index].array, e.points,
                                     projections)
                if miss is not None:
                    op.error = "oracle: " + miss
        return problems


WORKLOADS = {
    "dense_normal": lambda: CliWorkload(
        "dense_normal", "random_normal", 96, 10.0, 3.0, count=2),
    "diagonal_product": lambda: CliWorkload(
        "diagonal_product", "multiplication", 384, 100.0, 3.5,
        shuffle=True),
    "mixed_small": lambda: LibraryWorkload("mixed_small", 0.2),
    "cli_roundtrip": lambda: CliWorkload(
        "cli_roundtrip", "random_normal", 32, 10.0, 2.2, emit="all"),
}


def _setup_main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    WORKLOADS[name]().prepare(seed, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(_setup_main(sys.argv[1:]))
