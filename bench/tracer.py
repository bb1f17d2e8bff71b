"""Run one wgraph command in this process with its layer boundaries timed.

Usage: python3 bench/tracer.py TRACE_JSON WGRAPH_ARGS...

Every public function of the modules fileio, core, operator, covering,
spectra and orbital, ``GroupAction.from_mealy``, and the numpy.linalg
solvers are wrapped at every module attribute through which wgraph calls
them.  Each wrapper counts calls and adds up inclusive time and self time
(inclusive time minus the time of the wrapped calls nested inside).  The
report goes to stdout exactly as ``wgraph`` prints it; the spans and
counts go to TRACE_JSON; the exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("fileio", "core", "operator", "covering", "spectra", "orbital")
LINALG = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "solve", "lstsq", "inv", "qr", "cholesky")


def _arcs_built(counts, args, result):
    graph = result[0] if isinstance(result, tuple) else result
    counts["core.arcs_built"] += len(getattr(graph, "arcs", ()))


def _bytes_read(counts, args, result):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, result):
    counts["fileio.bytes_written"] += os.path.getsize(args[-1])


def _n3(counts, args, result):
    shape = args[0].shape
    batch = 1
    for k in shape[:-2]:
        batch *= k
    counts["linalg.n3"] += batch * shape[-1] ** 3


def _radii(counts, args, result):
    counts["orbital.local_iso_radii"] += len(result.radii)


class Tracer:
    """Per-function call counts, inclusive and self seconds, plus work counts."""

    def __init__(self):
        self.spans = {}  # "layer.function" -> [calls, inclusive_s, self_s]
        self.counts = dict.fromkeys(
            ("core.arcs_built", "fileio.bytes_read", "fileio.bytes_written", "linalg.n3",
             "orbital.local_iso_radii"), 0)
        self._child = [0.0]  # time spent in wrapped calls, one slot per open call; slot 0 is cli

    def wrap(self, key: str, fn, hook=None):
        span = self.spans.setdefault(key, [0, 0.0, 0.0])
        child, counts = self._child, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                span[0] += 1
                span[1] += dt
                span[2] += dt - inner
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self):
        import numpy as np

        from wgraph.orbital import GroupAction

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wgraph.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    hook = _arcs_built if layer == "core" else None
                    if layer == "fileio" and name.startswith("read_"):
                        hook = _bytes_read
                    elif layer == "fileio" and name.startswith("write_"):
                        hook = _bytes_written
                    elif name == "local_iso_check":
                        hook = _radii
                    wrappers[fn] = self.wrap(f"{layer}.{name}", fn, hook)
        for module_name, module in list(sys.modules.items()):
            if module_name == "wgraph" or module_name.startswith("wgraph."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
        mealy = GroupAction.__dict__["from_mealy"].__func__
        GroupAction.from_mealy = classmethod(self.wrap("orbital.from_mealy", mealy))
        for name in LINALG:
            setattr(np.linalg, name, self.wrap(f"linalg.{name}", getattr(np.linalg, name), _n3))

    def cli_child_s(self) -> float:
        return self._child[0]


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from wgraph import cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = perf_counter() - t0
        sys.stdout.flush()
        record = {"argv": argv, "import_s": import_s, "main_s": main_s,
                  "cli_child_s": tracer.cli_child_s(), "spans": tracer.spans, "counts": tracer.counts}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
