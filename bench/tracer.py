"""Outside-in tracing of the sharbly layers.

The tracer leaves the program's source alone.  It replaces every binding of
a traced function in every loaded ``sharbly`` module: the defining module,
the package namespace and each module that name-imported it (such as
``homology.solve`` or ``reduction.equivalent_cells``).  A call through any
of them goes through a wrapper.  Timed wrappers record a span (name, start,
end, parent span, job); counted wrappers only bump a counter, because they
sit on functions called hundreds of thousands of times per pass.  Spans and
counters stay in memory until ``summary()`` folds them into per-name
totals, self times and a call tree.

A traced function's span name is the defining module's name, or the
binding module's name where the spec asks for per-site names, so that
``homology.solve`` and ``reduction.solve`` report apart.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Traced:
    module: str  # defining module, relative to the sharbly package
    attr: str  # "func" or "Class.method"
    timed: bool = True
    per_site: bool = False  # name spans after the binding module
    post: Callable | None = None  # post(tracer, name, args, result)


def _add(key: str, amount_of: Callable):
    def post(tracer, _name, args, out):
        tracer.counts[key] += amount_of(args, out)

    return post


def _note_matrix(tracer, name, args, out):
    """Counters for a `solve` or `rank_kernel` call on a SparseFieldMatrix."""
    mat = args[0]
    c = tracer.counts
    c[name + "_cells"] += mat.nrows * mat.ncols
    if name == "reduction.solve":
        c["reduction.solve_hits"] += out is not None
        c["reduction.system_rows_max"] = max(c["reduction.system_rows_max"], mat.nrows)
        c["reduction.system_cols_max"] = max(c["reduction.system_cols_max"], mat.ncols)


def _note_complex(tracer, _name, _args, cx):
    c = tracer.counts
    for k in range(cx.max_degree + 1):
        c["homology.rank_w"] += cx.rank(k)
    for mat in cx.boundaries.values():
        c["homology.boundary_nnz"] += len(mat.entries)
        c["homology.boundary_cells"] += mat.nrows * mat.ncols


def _note_homology(tracer, _name, args, _out):
    cx, k = args[0], args[1]
    tracer.keep.append(cx)  # holds id(cx) unique while it is counted
    tracer.homology_keys.add((id(cx), k))


def _note_reduction(tracer, _name, _args, out):
    """Certificate sizes and Undetermined results of the outermost entry."""
    if any(tracer.spans[i][0] in REDUCTION_ENTRIES for i in tracer.stack):
        return
    c = tracer.counts
    kind = type(out).__name__
    if kind == "Undetermined":
        c["reduction.undetermined"] += 1
    elif kind == "Witness":
        c["reduction.witness_terms"] += len(out.y.coeffs) + len(out.u)


REDUCTION_ENTRIES = frozenset(
    {"reduction.hecke_on_h1_n2", "reduction.one_sharbly_reduce_n2", "reduction.verify_eigen_chain"}
)

TRACED = (
    Traced("voronoi", "enumerate_cells"),
    Traced("voronoi", "cells_from_json"),
    Traced("voronoi", "equivalent_cells", timed=False, per_site=True),
    Traced("congruence", "split_orbits"),
    Traced("congruence", "proj_points", post=_add("congruence.points", lambda a, out: len(out))),
    Traced("congruence", "proj_normalize", timed=False),
    Traced("congruence", "proj_act", timed=False),
    Traced("homology", "build_complex", post=_note_complex),
    Traced("homology", "homology", post=_note_homology),
    Traced("homology", "betti_numbers"),
    Traced("homology", "express_cycle"),
    Traced("homology", "complex_to_json", per_site=True),
    Traced("fields", "rank_kernel", post=_note_matrix),
    Traced("fields", "solve", per_site=True, post=_note_matrix),
    Traced("fields", "LinearSpan.add"),
    Traced("sharbly", "ar_reduce", post=_add("sharbly.ar_reduce_terms", lambda a, out: len(out.coeffs))),
    Traced("hecke", "hecke_cosets"),
    Traced("hecke", "symbol_chain_to_w0"),
    Traced("hecke", "hecke_matrix_on_h0"),
    Traced("hecke", "hecke_on_h0"),
    Traced("reduction", "hecke_on_h1_n2", post=_note_reduction),
    Traced("reduction", "one_sharbly_reduce_n2"),
    Traced("reduction", "verify_eigen_chain", post=_note_reduction),
    Traced("cli", "main"),
)


def _sharbly_modules():
    return sorted(
        (name, mod)
        for name, mod in sys.modules.items()
        if mod is not None and (name == "sharbly" or name.startswith("sharbly."))
    )


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Tracer:
    """Wraps the traced bindings on `install()` and restores them on `uninstall()`.

    `clock` times the spans; the worker passes one that stops while the
    host-speed probe runs.
    """

    def __init__(self, clock: Callable = perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index, job]
        self.stack: list = []  # indices of open spans
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.homology_keys: set = set()
        self.keep: list = []
        self.job = None
        self.patches: list = []  # (owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, post):
        spans, stack, calls, clock = self.spans, self.stack, self.calls, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            calls[name] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(self, name, args, out)
            return out

        return wrapper

    def _counted(self, name, fn, post):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if post is not None:
                post(self, name, args, out)
            return out

        return wrapper

    # -- installing -------------------------------------------------------

    def bindings(self):
        """(owner, attr, original, span name, spec) for every traced binding.

        Every attribute of every loaded sharbly module is compared by
        identity with the traced functions, so a name-import under any
        name is found.
        """
        for spec in TRACED:
            importlib.import_module("sharbly." + spec.module)
        modules = _sharbly_modules()
        functions = {}
        out = []
        for spec in TRACED:
            defining = sys.modules["sharbly." + spec.module]
            cls_name, _, meth = spec.attr.rpartition(".")
            if cls_name:
                owner = getattr(defining, cls_name)
                out.append((owner, meth, owner.__dict__[meth], f"{spec.module}.{spec.attr}", spec))
            else:
                functions[id(getattr(defining, spec.attr))] = spec
        for mod_name, mod in modules:
            for attr, value in sorted(vars(mod).items()):
                spec = functions.get(id(value))
                if spec is None:
                    continue
                site = spec.module
                if spec.per_site and mod_name != "sharbly":
                    site = _short(mod_name)
                out.append((mod, attr, value, f"{site}.{spec.attr}", spec))
        return out

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, original, name, spec in self.bindings():
            make = self._timed if spec.timed else self._counted
            setattr(owner, attr, make(name, original, spec.post))
            self.patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name inclusive and self times, call counts, counters, the call
        tree by path, and each job's self time per name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        total: Counter = Counter()
        self_time: Counter = Counter()
        by_job: dict = {}
        tree: dict = {}
        paths: list = []
        for i, (name, start, end, parent, job) in enumerate(spans):
            dur = end - start
            total[name] += dur
            self_time[name] += dur - child[i]
            job_self = by_job.setdefault(job, Counter())
            job_self[name] += dur - child[i]
            path = (paths[parent] + "/" if parent >= 0 else "") + name
            paths.append(path)
            node = tree.setdefault(path, [0, 0.0, 0.0])
            node[0] += 1
            node[1] += dur
            node[2] += dur - child[i]
        return {
            "total_s": dict(total),
            "self_s": dict(self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "homology_distinct": len(self.homology_keys),
            "tree": {p: {"calls": c, "total_s": t, "self_s": s} for p, (c, t, s) in sorted(tree.items())},
            "job_self_s": {str(job): dict(c) for job, c in by_job.items()},
        }
