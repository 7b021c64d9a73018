"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each layer from outside the
package.  Every module binding that refers to a wrapped function is
replaced, because callers reach the same function through different names:
``cooling``, ``cli`` and ``interference`` hold copies made by
``from .spin_core import ...``, ``diagonalize`` reaches ``build_dense``
through the ``spin_core`` module global, and ``diagonal`` is a method of
``PauliOperator``.  ``install`` patches and ``uninstall`` restores, so
untraced iterations run the original code.

Spans (job, name, start, end, parent) and per-job, per-layer counts stay
in memory;
``write_spans`` saves them when the run ends.  A layer's self time is its
span time minus the time of its child spans.  ``tracemalloc`` runs only
inside the layers marked ``memory=True``.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

_MB = float(1 << 20)


def _arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _diagonal_counts(args, kwargs, result):
    op = args[0]
    return {"term_passes": len(op.terms) << op.num_sites}


def _build_dense_counts(args, kwargs, result):
    op = _arg(args, kwargs, "op")
    return {"bytes": 16 << (2 * op.num_sites)}


def _frustration_counts(args, kwargs, result):
    op = _arg(args, kwargs, "op")
    return {"configs": 1 << op.num_sites}


def _cool_counts(args, kwargs, result):
    return {"retained": result.num_retained, "dim": 1 << result.state.num_sites}


def _block_entropy_counts(args, kwargs, result):
    return {"matrix_elems": 1 << _arg(args, kwargs, "state").num_sites}


# (module, function, counter hook, track memory); each is its own layer,
# named "<module>.<function>".
_FUNCTIONS = (
    ("spin_core", "build_dense", _build_dense_counts, False),
    ("spin_core", "diagonalize", None, True),
    ("spin_core", "schmidt_matrix", None, False),
    ("spin_core", "block_entropy", _block_entropy_counts, False),
    ("spin_core", "product_state", None, False),
    ("cooling", "cool", _cool_counts, False),
    ("cooling", "maximize_cooled_entropy", None, False),
    ("models", "build_model", None, False),
    ("models", "dimer_product_state", None, False),
    ("frustration", "frustration_degree", _frustration_counts, True),
)

# Modules whose every public function (and public method of a class defined
# there) is one aggregated layer.
_AGGREGATED = ("closed_forms", "interference")


def _public_functions(module):
    """(owner, attribute, function) for public functions defined in module."""
    out = []
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out.append((module, name, value))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((value, attr, member))
    return out


class Tracer:
    """Collects spans and per-layer counts while installed."""

    def __init__(self):
        self.spans = []
        # job index -> layer -> stat -> total over the traced runs of that job
        self.stats = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        self.job = -1
        self._stack = []  # [span index, child seconds, layer]
        self._patched = []

    def _wrap(self, fn, name, layer, counts=None, memory=False):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            stack.append([index, 0.0, layer])
            measure = memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += t1 - t0
                st = tracer.stats[tracer.job][layer]
                st["calls"] += 1
                st["self_s"] += (t1 - t0) - child
                if measure:
                    st["peak_mb"] = max(st["peak_mb"], peak / _MB)
                tracer.spans[index] = (tracer.job, name, t0, t1, parent)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    st[key] += value
            return result

        return wrapper

    def call_main(self, main, argv):
        """Run ``cli.main(argv)`` as the root span of one job."""
        try:
            rc = self._wrap(main, "cli.main", "cli.main")(argv)
        except Exception:
            self.stats[self.job]["cli.main"]["errors"] += 1
            raise
        if rc != 0:
            self.stats[self.job]["cli.main"]["errors"] += 1
        return rc

    def install(self):
        """Patch every frustra binding of the traced functions."""
        import frustra
        import scipy.optimize

        modules = {name: sys.modules[f"frustra.{name}"] for name in
                   ("spin_core", "cooling", "models", "frustration",
                    "closed_forms", "interference")}
        wrappers = {}
        for mod, attr, counts, memory in _FUNCTIONS:
            name = f"{mod}.{attr}"
            fn = getattr(modules[mod], attr)
            wrappers[id(fn)] = self._wrap(fn, name, name, counts, memory)
        for mod in _AGGREGATED:
            for owner, attr, fn in _public_functions(modules[mod]):
                qualname = attr if owner is modules[mod] else f"{owner.__name__}.{attr}"
                wrapper = self._wrap(fn, f"{mod}.{qualname}", mod)
                if owner is modules[mod]:
                    wrappers[id(fn)] = wrapper
                else:
                    self._patch(owner, attr, fn, wrapper)
        op_cls = frustra.spin_core.PauliOperator
        self._patch(op_cls, "diagonal", op_cls.diagonal,
                    self._wrap(op_cls.diagonal, "spin_core.diagonal",
                               "spin_core.diagonal", _diagonal_counts))
        for modname, module in list(sys.modules.items()):
            if modname != "frustra" and not modname.startswith("frustra."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, value, wrapper)

        # The optimiser's objective is a closure; its evaluation count is
        # the nfev that scipy reports to maximize_cooled_entropy.
        minimize = scipy.optimize.minimize
        tracer = self

        def counting_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            layer = "cooling.maximize_cooled_entropy"
            if tracer._stack and tracer._stack[-1][2] == layer:
                tracer.stats[tracer.job][layer]["objective_evals"] += int(res.nfev)
            return res

        self._patch(scipy.optimize, "minimize", minimize, counting_minimize)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        """Write spans as gzipped JSON lines: job, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for job, name, t0, t1, parent in self.spans:
                fh.write(json.dumps([job, name, round(t0, 7), round(t1, 7), parent]))
                fh.write("\n")
