"""Outside-in stage trace for spectral_forge.

A ``Tracer`` wraps the package's public functions from outside: each
wrapper records a span (name, start, end, parent span, op id, whether
it raised) and, for a few functions, counts read off its arguments or
result.  The package modules import functions by name
(``from .linalg import op_norm_2``), so every wrapper is installed in
every ``spectral_forge`` module namespace that holds the original, and
every patched name is put back by ``restore``.

Run as a script, this file is the traced CLI runner:

    python bench/spans.py SPANS.json pipeline --input t.json ...

installs the wrappers, calls ``spectral_forge.cli.main`` with the
remaining arguments and writes the spans to SPANS.json, never to
stdout, so the command's own output is unchanged.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

# Public functions timed per layer (module -> function names).
TARGETS = {
    "linalg": ("is_normal", "is_hermitian", "op_norm_2", "normal_eig",
               "hermitian_eig", "hpd_solve", "cluster_points"),
    "decomposition": ("decompose", "verify"),
    "measures": ("pvm_from_normal", "pvm_integrate", "pvm_validate"),
    "product": ("commute_check", "product_measure", "pushforward",
                "product_validate"),
    "pipeline": ("spectral_theorem",),
    "io": ("read_matrix", "read_json", "write_json", "dumps"),
    "gallery": ("generate",),
    "cli": ("main",),
}
# Span names that stand for every io function with the given suffix.
GROUPS = {"io.to_doc": "_to_doc", "io.from_doc": "_from_doc"}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items()
                   for fn in fns) + tuple(GROUPS)

# Layer metrics that come from counts rather than span times.
NAMED = (
    ("measures.pvm_from_normal.A.s", "s/op"),
    ("measures.pvm_from_normal.B.s", "s/op"),
    ("measures.e1.atoms", "count/op"),
    ("measures.e2.atoms", "count/op"),
    ("product.pairs_screened", "count/op"),
    ("product.atoms", "count/op"),
    ("product.survivor_ratio", "share"),
    ("io.bytes_written", "B/op"),
    ("io.bytes_read", "B/op"),
    ("pipeline.report.failed", "count/op"),
    ("pipeline.report.reconstruction.margin_max", "share"),
    ("cli.startup_s", "s/op"),
    ("trace.overhead_share", "share"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order.

    ``gallery.generate`` runs while the benchmark sets up, so its
    figures are per set-up; every other span figure is per traced op.
    """
    units = {}
    for name in SPAN_NAMES:
        per = "setup" if name == "gallery.generate" else "op"
        units[f"{name}.calls"] = f"count/{per}"
        units[f"{name}.self_s"] = f"s/{per}"
        units[f"{name}.raised"] = f"count/{per}"
    units.update(NAMED)
    return units


def _probe_atoms(args, result):
    return {"atoms": result.num_atoms}


def _probe_product(args, result):
    return {"pairs": args[0].num_atoms * args[1].num_atoms,
            "atoms": result.num_atoms}


def _probe_report(args, result):
    report = result.report
    counts = {"failed": int(not report.all_passed)}
    bound = report.tolerances.get("reconstruction", 0.0)
    if report.all_passed and bound > 0.0:
        counts["margin"] = report.residuals["reconstruction"] / bound
    return counts


def _probe_written(args, result):
    return {"bytes": len(result)}


def _probe_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


# Counts taken at the layer boundary where the work happens.
PROBES = {
    "measures.pvm_from_normal": _probe_atoms,
    "product.product_measure": _probe_product,
    "pipeline.spectral_theorem": _probe_report,
    "io.dumps": _probe_written,
    "io.read_json": _probe_read,
}

# Span fields, in list order.
NAME, START, END, PARENT, OP, RAISED, COUNTS = range(7)


class Tracer:
    """Span recorder that patches the package's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, False, None]
            self.spans.append(span)
            self._stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                try:
                    span[COUNTS] = probe(args, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        OSError):
                    pass
            return result

        traced.__spans_original__ = fn
        return traced

    def _originals(self) -> dict[int, tuple]:
        found = {}
        for mod, fns in TARGETS.items():
            module = sys.modules.get(f"spectral_forge.{mod}")
            for fn in fns:
                obj = getattr(module, fn, None)
                if callable(obj):
                    found[id(obj)] = (obj, f"{mod}.{fn}")
                else:
                    self.absent.add(f"{mod}.{fn}")
        io = sys.modules.get("spectral_forge.io")
        for group, suffix in GROUPS.items():
            members = [getattr(io, attr) for attr in dir(io)
                       if attr.endswith(suffix)] if io else []
            for obj in members:
                if callable(obj):
                    found[id(obj)] = (obj, group)
            if not members:
                self.absent.add(group)
        return found

    def install(self):
        """Patch every spectral_forge namespace that holds a target."""
        import spectral_forge.cli  # noqa: F401  (loads every module)
        if self._patched:
            raise RuntimeError("tracer is already installed")
        found = self._originals()
        wrappers = {key: self._wrap(name, obj)
                    for key, (obj, name) in found.items()}
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "spectral_forge" and \
                        not modname.startswith("spectral_forge."):
                    continue
                for attr, value in list(vars(module).items()):
                    key = id(value)
                    if key in found and found[key][0] is value:
                        setattr(module, attr, wrappers[key])
                        self._patched.append((module, attr, value))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put every patched name back."""
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    @contextmanager
    def installed(self, op):
        """Trace the calls made inside the block under op id ``op``."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.restore()
            self.op = None

    def absorb(self, spans: list[list], op, absent=()):
        """Append spans recorded in another process under op id ``op``."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            span[OP] = op
            self.spans.append(span)
        self.absent.update(absent)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: list[list], op_count: int, setup_op, startup_s: float,
              overhead_share: float) -> dict[str, float]:
    """Per-layer metrics from ``op_count`` traced ops and one set-up.

    Span figures are sums divided by the number of traced ops, except
    ``gallery.generate``, which is read from the spans under op id
    ``setup_op``.
    """
    count = max(1, op_count)
    own = self_times(spans)
    totals = {name: [0, 0.0, 0] for name in SPAN_NAMES}
    stage = {"A": 0.0, "B": 0.0}
    atoms = {"A": 0, "B": 0}
    pairs = product_atoms = failed = 0
    written = read = 0
    margin = 0.0
    stage_seen: dict = {}
    for span, self_s in zip(spans, own):
        name, op = span[NAME], span[OP]
        if (op == setup_op) != (name == "gallery.generate"):
            continue
        row = totals.get(name)
        if row is None:
            continue
        row[0] += 1
        row[1] += self_s
        row[2] += int(span[RAISED])
        counts = span[COUNTS] or {}
        if name == "measures.pvm_from_normal":
            seen = stage_seen.get(op, 0)
            stage_seen[op] = seen + 1
            if seen < 2:
                key = "AB"[seen]
                stage[key] += span[END] - span[START]
                atoms[key] += counts.get("atoms", 0)
        elif name == "product.product_measure":
            pairs += counts.get("pairs", 0)
            product_atoms += counts.get("atoms", 0)
        elif name == "pipeline.spectral_theorem":
            failed += counts.get("failed", 0)
            margin = max(margin, counts.get("margin", 0.0))
        elif name == "io.dumps":
            written += counts.get("bytes", 0)
        elif name == "io.read_json":
            read += counts.get("bytes", 0)
    metrics = {}
    for name, (calls, self_s, raised) in totals.items():
        per = 1 if name == "gallery.generate" else count
        metrics[f"{name}.calls"] = calls / per
        metrics[f"{name}.self_s"] = self_s / per
        metrics[f"{name}.raised"] = raised / per
    metrics.update({
        "measures.pvm_from_normal.A.s": stage["A"] / count,
        "measures.pvm_from_normal.B.s": stage["B"] / count,
        "measures.e1.atoms": atoms["A"] / count,
        "measures.e2.atoms": atoms["B"] / count,
        "product.pairs_screened": pairs / count,
        "product.atoms": product_atoms / count,
        "product.survivor_ratio": product_atoms / pairs if pairs else 0.0,
        "io.bytes_written": written / count,
        "io.bytes_read": read / count,
        "pipeline.report.failed": failed / count,
        "pipeline.report.reconstruction.margin_max": margin,
        "cli.startup_s": startup_s,
        "trace.overhead_share": overhead_share,
    })
    return metrics


def _child_main(argv: list[str]) -> int:
    if not argv:
        print("usage: spans.py SPANS.json CLI-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    import spectral_forge.cli
    tracer = Tracer()
    try:
        with tracer.installed(0):
            code = spectral_forge.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans,
                       "absent": sorted(tracer.absent)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
