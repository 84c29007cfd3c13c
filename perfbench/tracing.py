"""Span tracing installed from outside the package.

``Tracer.install`` wraps the public functions of every package layer, a few
methods, the JSON decoders and the numpy/scipy LAPACK entry points, and
``Tracer.uninstall`` puts every original object back.  Copies made by
``from .x import f`` are found by identity in every ``sumspaces`` module
namespace and rebound too, so every call site goes through the wrapper.

Spans are kept in memory as [name, start, end, parent, request] and turned
into per-name call counts and self times when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "subspaces", "pairs", "numerics", "paircalc", "reduction",
          "images", "systems", "blockmodel")
METHODS = (("subspaces", "Subspace", "projector"), ("blockmodel", "BlockSystem", "block"))
# json.load and the *_from_json decoders are all timed as one span name
DECODERS = (("cli", "_load_json"), ("subspaces", "subspace_from_json"),
            ("subspaces", "system_from_json"))
DECODER_METHODS = (("systems", "WeightedGraph"), ("images", "OperatorFamily"))
LAPACK = ("eigh", "eigvalsh", "svd", "svdvals", "norm2", "pinv", "inv", "scipy_eigh")


def _cubic(a):
    """m * n * min(m, n), times the batch size for stacked matrices."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return math.prod(shape[:-2]) * m * n * min(m, n)


class Tracer:
    """Spans, per-layer error counts and LAPACK work of one traced run."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.errors = Counter()
        self.work = Counter()
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ wrappers
    def _wrap(self, name, fn, error_type=None, work=None):
        spans, stack = self.spans, self._stack
        layer = name.split(".")[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if work is not None:
                label = work(args, kwargs)
                if label is None:  # not a LAPACK call (e.g. a vector norm)
                    return fn(*args, **kwargs)
                self.work[label] += _cubic(args[0] if args else kwargs.get("a"))
            parent = stack[-1] if stack else -1
            span = [label, clock(), 0.0, parent, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if (error_type is not None and isinstance(exc, error_type)
                        and (parent < 0 or spans[parent][0].split(".")[0] != layer)):
                    self.errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    # ------------------------------------------------------------ install
    def install(self):
        import scipy.linalg
        from sumspaces.errors import SumspacesError

        pkg = {n: m for n, m in sys.modules.items()
               if n == "sumspaces" or n.startswith("sumspaces.")}
        names = {}  # id(original) -> (original, span name); keeps the originals alive
        for layer in LAYERS[1:]:  # cli: only main and the decoders
            mod = pkg[f"sumspaces.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[id(obj)] = (obj, f"{layer}.{attr}")
        cli_main = pkg["sumspaces.cli"].main
        names[id(cli_main)] = (cli_main, "cli.main")
        for mod, attr in DECODERS:
            obj = getattr(pkg[f"sumspaces.{mod}"], attr)
            names[id(obj)] = (obj, "cli.decode")
        wrappers = {key: self._wrap(name, obj, SumspacesError)
                    for key, (obj, name) in names.items()}
        for mod in pkg.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        for mod, cls_name, attr in METHODS:
            cls = getattr(pkg[f"sumspaces.{mod}"], cls_name)
            self._patch(cls, attr, self._wrap(f"{mod}.{cls_name}.{attr}",
                                              cls.__dict__[attr], SumspacesError))
        for mod, cls_name in DECODER_METHODS:
            cls = getattr(pkg[f"sumspaces.{mod}"], cls_name)
            func = cls.__dict__["from_json"].__func__
            self._patch(cls, "from_json", classmethod(
                self._wrap("cli.decode", func, SumspacesError)))

        la = np.linalg
        simple = {"eigh": "lapack.eigh", "eigvalsh": "lapack.eigvalsh",
                  "pinv": "lapack.pinv", "inv": "lapack.inv"}
        for attr, label in simple.items():
            self._patch(la, attr, self._wrap(label, getattr(la, attr),
                                             work=lambda a, k, label=label: label))
        self._patch(la, "svd", self._wrap("lapack.svd", la.svd, work=lambda a, k: (
            "lapack.svd" if k.get("compute_uv", a[2] if len(a) > 2 else True)
            else "lapack.svdvals")))
        self._patch(la, "norm", self._wrap("lapack.norm2", la.norm, work=_norm_label))
        self._patch(scipy.linalg, "eigh", self._wrap(
            "lapack.scipy_eigh", scipy.linalg.eigh, work=lambda a, k: "lapack.scipy_eigh"))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self):
        return list(self._patches)

    # ------------------------------------------------------------ results
    def summary(self):
        """Per-name calls and self time (ms); LAPACK spans are leaves."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_ms = Counter(), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child[i]) * 1e3
        return calls, self_ms

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _norm_label(args, kwargs):
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    if ord_ == 2 and getattr(x, "ndim", 0) >= 2:
        return "lapack.norm2"
    return None
