"""Traced mode: spans around spheredim's public functions, from outside.

``Tracer.install`` wraps the public functions of each spheredim module and a
few methods of the complex classes.  A wrapped function is rebound in every
spheredim module that holds it, so names that one module imported from
another are traced too.  ``Tracer.uninstall`` restores every original.  No
file of the package changes.

Spans are kept in memory as rows ``[name, start, end, parent, op]`` and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children (one thread, so children never overlap).
Counts labelled *computed* are derived from a call's inputs and outputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

MODULES = ("cli", "concepts", "complexes", "spheres", "extremal", "disamb", "signrank", "storage")

# Bit and label helpers run millions of times per pass; their time stays
# with the caller rather than multiplying the tracing overhead.
PRIMITIVES = {
    "concepts.popcount", "concepts.bits", "concepts.mask_of",
    "complexes.point_label", "complexes.cross_label",
    "complexes.subset_label", "complexes.chain_label",
}

METHODS = (
    ("complexes", "SimplicialComplex", "__post_init__"),
    ("complexes", "SimplicialComplex", "from_maximal"),
    ("complexes", "SimplicialComplex", "has_simplex"),
    ("complexes", "SimplicialComplex", "all_simplices"),
    ("complexes", "AntipodalComplex", "__post_init__"),
)

BUILD = ("complexes.SimplicialComplex.__post_init__", "complexes.AntipodalComplex.__post_init__")
TEMPLATE_BUILDERS = (
    "spheres.make_crosspolytope", "spheres.make_barycentric_boundary",
    "spheres.join_templates", "spheres.subdivide_template",
)

# per-layer metric -> span names whose outermost spans give its time
TIMES = {
    "concepts.max_shattered_set.s": ("concepts.max_shattered_set",),
    "concepts.dual_class.s": ("concepts.dual_class",),
    "concepts.shattered_family.s": ("concepts.shattered_family",),
    "complexes.build.s": BUILD,
    "complexes.realizable_complex.s": ("complexes.realizable_complex",),
    "complexes.antipodal_subcomplex.s": ("complexes.antipodal_subcomplex",),
    "complexes.barycentric_subdivision.s": ("complexes.barycentric_subdivision",),
    "spheres.verify_witness.s": ("spheres.verify_witness",),
    "spheres.sd_bounds.s": ("spheres.sd_bounds",),
    "extremal.collapse_certificate.s": ("extremal.collapse_certificate",),
    "extremal.embedding_check.s": ("extremal.full_subcomplex_embedding_check",),
    "extremal.cubical_barycentric.s": ("extremal.cubical_barycentric",),
    "extremal.classify_low_vc.s": ("extremal.classify_low_vc",),
}
# per-layer metric -> span names whose spans are counted
CALLS = {
    "concepts.max_shattered_set.calls": ("concepts.max_shattered_set",),
    "concepts.dual_class.calls": ("concepts.dual_class",),
    "complexes.build.calls": BUILD,
    "complexes.has_simplex.calls": ("complexes.SimplicialComplex.has_simplex",),
    "complexes.antipodal_subcomplex.calls": ("complexes.antipodal_subcomplex",),
    "spheres.verify_witness.calls": ("spheres.verify_witness",),
    "spheres.delta_ant.calls": ("spheres.delta_ant",),
    "extremal.is_extremal.calls": ("extremal.is_extremal",),
}
COUNTS = (
    "concepts.shattered_sets", "complexes.maximal_pairs", "complexes.has_simplex.scanned",
    "complexes.faces", "spheres.templates_built", "spheres.templates_distinct",
    "extremal.collapse_steps", "extremal.chains_checked", "extremal.cubes",
    "disamb.simplices_checked", "signrank.pairs_checked", "storage.bytes_out",
    "storage.bytes_in",
)


def _path_arg(args, kwargs):
    return kwargs.get("path", args[1] if len(args) > 1 else None)


def _count(c: Counter, key: str, value) -> None:
    c[key] += value


# span name -> hook(tracer, args, kwargs, result) run after a call returns
HOOKS = {
    "concepts.shattered_family": lambda t, a, k, r: _count(
        t.counts, "concepts.shattered_sets", sum(len(level) for level in r)),
    "complexes.SimplicialComplex.__post_init__": lambda t, a, k, r: _count(
        t.counts, "complexes.maximal_pairs", len(a[0].maximal) * (len(a[0].maximal) - 1)),
    "complexes.SimplicialComplex.has_simplex": lambda t, a, k, r: _count(
        t.counts, "complexes.has_simplex.scanned", len(a[0].maximal)),
    "complexes.SimplicialComplex.all_simplices": lambda t, a, k, r: _count(
        t.counts, "complexes.faces", len(r)),
    "extremal.collapse_certificate": lambda t, a, k, r: _count(
        t.counts, "extremal.collapse_steps", len(r or ())),
    "extremal.full_subcomplex_embedding_check": lambda t, a, k, r: _count(
        t.counts, "extremal.chains_checked", r.chains_checked),
    "extremal.cubical_complex": lambda t, a, k, r: _count(t.counts, "extremal.cubes", len(r.cubes)),
    "disamb.check_disambiguates": lambda t, a, k, r: _count(
        t.counts, "disamb.simplices_checked", r.simplices_checked),
    "signrank.verify_representation": lambda t, a, k, r: _count(
        t.counts, "signrank.pairs_checked", len(a[0]) * a[0].domain_size),
    "storage.canonical_json": lambda t, a, k, r: _count(
        t.counts, "storage.bytes_out", len(r.encode())),
    "storage.load": lambda t, a, k, r: _count(
        t.counts, "storage.bytes_in", os.path.getsize(_path_arg(a, k))),
}
for _name in TEMPLATE_BUILDERS:
    HOOKS[_name] = lambda t, a, k, r: t.template_built(r)


def spheredim_modules() -> list:
    """The package and every loaded spheredim submodule."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "spheredim" or name.startswith("spheredim.")]


def public_functions(module) -> dict:
    """Public, non-generator functions defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = {}
    for attr, value in vars(module).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not attr.startswith("_")
            and not inspect.isgeneratorfunction(value)
            and f"{short}.{attr}" not in PRIMITIVES
        ):
            out[attr] = value
    return out


class Tracer:
    """Spans and counts of one traced pass; install() before, uninstall() after."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._op_templates: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self.stack, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def template_built(self, template) -> None:
        self.counts["spheres.templates_built"] += 1
        self._op_templates.add(json.dumps(template.kind_payload(), sort_keys=True))

    def begin_op(self, index: int) -> None:
        self.op = index
        self._op_templates = set()

    def end_op(self) -> None:
        self.counts["spheres.templates_distinct"] += len(self._op_templates)
        self.op = -1

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"spheredim.{short}")
            for attr, fn in public_functions(module).items():
                wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for module in spheredim_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"spheredim.{short}"), cls_name)
            original = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # --- output -----------------------------------------------------------

    def write(self, f, pass_index: int) -> None:
        """Write every span as one JSON line: name, start, end, parent, op, pass."""
        for name, start, end, parent, op in self.spans:
            f.write(json.dumps([name, start, end, parent, op, pass_index]) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus its direct children's durations."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in MODULES:
        out[f"{layer}.self_s"] = 0.0
    for span, s in zip(spans, selfs):
        out[span[0].split(".", 1)[0] + ".self_s"] += s
    for metric, names in TIMES.items():
        total = 0.0
        for span in spans:
            if span[0] in names and not _has_ancestor(spans, span, names):
                total += span[2] - span[1]
        out[metric] = total
    for metric, names in CALLS.items():
        out[metric] = float(sum(1 for span in spans if span[0] in names))
    for key in COUNTS:
        out[key] = float(counts[key])
    built = counts["spheres.templates_built"]
    out["spheres.template_useful_ratio"] = (
        counts["spheres.templates_distinct"] / built if built else 0.0
    )
    return out


def _has_ancestor(spans, span, names) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "1"
    if metric.endswith(".s") or metric.endswith("self_s"):
        return "s"
    if metric.startswith("storage.bytes"):
        return "bytes"
    return "count"
