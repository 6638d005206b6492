"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each listed public function of euclidmin with a
wrapper that counts calls and accumulates time; `uninstall()` puts the
originals back. A span's self time is its duration minus the time covered
by the spans of other listed functions it called, so Fraction arithmetic
done inside `m_exact` counts as `m_exact` self time. Recursive calls add to
the total once, at the outermost call.

`fractions.Fraction.__new__` is wrapped with a counter only.
"""

from __future__ import annotations

import contextlib
import fractions
import importlib
import inspect
import json
import sys
from time import perf_counter

# (module, attribute path, metric prefix)
TARGETS = (
    ("fields", "FieldElement.__mul__", "fields.elem_mul"),
    ("fields", "FieldElement.inverse", "fields.elem_inverse"),
    ("fields", "FieldElement.norm", "fields.elem_norm"),
    ("fields", "embed", "fields.embed"),
    ("fields", "FractionalIdeal.__mul__", "fields.ideal_mul"),
    ("fields", "ideal_invert", "fields.ideal_invert"),
    ("fields", "make_field", "fields.make_field"),
    ("places", "valuation", "places.valuation"),
    ("places", "s_norm", "places.s_norm"),
    ("places", "make_sconfig", "places.make_sconfig"),
    ("torus", "reduce_mod", "torus.reduce_mod"),
    ("torus", "orbit", "torus.orbit"),
    ("enumerate", "elements_in_box", "enumerate.elements_in_box"),
    ("covering", "box_bound", "covering.box_bound"),
    ("covering", "candidate_shifts", "covering.candidate_shifts"),
    ("covering", "profiles_for_box", "covering.profiles_for_box"),
    ("covering", "split_arch", "covering.split_arch"),
    ("covering", "split_finite", "covering.split_finite"),
    ("covering", "verify_certificate", "covering.verify_certificate"),
    ("minima", "m_exact", "minima.m_exact"),
    ("minima", "search_lower", "minima.search_lower"),
    ("minima", "covering_verify", "minima.covering_verify"),
    ("minima", "compute_M", "minima.compute_M"),
    ("minima", "decide_norm_euclidean", "minima.decide_norm_euclidean"),
    ("forms", "m_form", "forms.m_form"),
    ("cli", "RunConfig.__init__", "cli.config"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "emit_report", "cli.emit_report"),
    ("cli", "replay_report", "cli.replay_report"),
)

# result hooks: extra counters read from a call's return value
COUNTERS = ("candidate_shifts.items", "elements_in_box.items",
            "m_exact.enum_branch", "fractions.new")


def _count_shifts(tracer, result):
    tracer.counts["candidate_shifts.items"] += len(result)


def _count_branch(tracer, result):
    if result.search_box.get("branch") == "box-enumeration":
        tracer.counts["m_exact.enum_branch"] += 1


RESULT_HOOKS = {
    "covering.candidate_shifts": _count_shifts,
    "minima.m_exact": _count_branch,
}
ITEM_COUNTERS = {"enumerate.elements_in_box": "elements_in_box.items"}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for _, _, name in TARGETS}
        self.counts = {name: 0 for name in COUNTERS}
        self._depth = {name: 0 for _, _, name in TARGETS}
        self._children = []          # child time accumulated per open span
        self._patches = []           # (owner, attribute, original, wrapper)

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        self._depth[name] += 1
        self._children.append(0.0)
        return perf_counter()

    def _leave(self, name, started):
        elapsed = perf_counter() - started
        st = self.stats[name]
        st[1] += elapsed - self._children.pop()
        self._depth[name] -= 1
        if self._depth[name] == 0:
            st[2] += elapsed
        if self._children:
            self._children[-1] += elapsed

    def _wrap(self, name, fn):
        tracer = self
        hook = RESULT_HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            item_counter = ITEM_COUNTERS.get(name)

            def gen_wrapper(*args, **kwargs):
                tracer.stats[name][0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    started = tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(name, started)
                    if item_counter:
                        tracer.counts[item_counter] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.stats[name][0] += 1
            started = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, started)
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original, value))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in every euclidmin module that refers to it."""
        pkg = importlib.import_module("euclidmin")
        modules = [pkg] + [importlib.import_module(f"euclidmin.{m}")
                           for m in sorted({m for m, _, _ in TARGETS})]
        modules += [m for k, m in sorted(sys.modules.items())
                    if k.startswith("euclidmin.") and m not in modules]
        for module_name, path, name in TARGETS:
            module = importlib.import_module(f"euclidmin.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrap(name, original)
                for alias, value in list(cls.__dict__.items()):
                    if value is original:
                        self._set(cls, alias, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, alias, wrapped)
        counts = self.counts
        original_new = fractions.Fraction.__dict__["__new__"]
        new_fn = original_new.__func__ if isinstance(original_new, staticmethod) \
            else original_new

        def counting_new(cls, *args, **kwargs):
            counts["fractions.new"] += 1
            return new_fn(cls, *args, **kwargs)

        self._set(fractions.Fraction, "__new__", staticmethod(counting_new))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Put the originals back for the duration of the block."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots) -> dict:
    stats = {name: [0, 0.0, 0.0] for _, _, name in TARGETS}
    counts = {name: 0 for name in COUNTERS}
    for snap in snapshots:
        for k, v in snap["stats"].items():
            for i in range(3):
                stats[k][i] += v[i]
        for k, v in snap["counts"].items():
            counts[k] += v
    return {"stats": stats, "counts": counts}


def per_layer_metrics(merged: dict, overhead: float) -> dict:
    """Metric name -> (value, unit), in the order BENCHMARK.json lists them."""
    out = {}
    stats, counts = merged["stats"], merged["counts"]
    for _, _, name in TARGETS:
        calls, self_s, total_s = stats[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total_s, "s")
    out["fractions.new.calls"] = (counts["fractions.new"], "count")
    boxes = stats["covering.profiles_for_box"][0]
    splits = stats["covering.split_arch"][0] + stats["covering.split_finite"][0]
    out["covering.certified_frac"] = (
        (boxes - splits) / boxes if boxes else 0.0, "ratio")
    out["covering.shifts_per_box"] = (
        counts["candidate_shifts.items"] / boxes if boxes else 0.0, "count")
    enum_calls = stats["enumerate.elements_in_box"][0]
    out["enumerate.points_per_call"] = (
        counts["elements_in_box.items"] / enum_calls if enum_calls else 0.0,
        "count")
    m_calls = stats["minima.m_exact"][0]
    out["minima.enum_branch_frac"] = (
        counts["m_exact.enum_branch"] / m_calls if m_calls else 0.0, "ratio")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out

