"""Layer spans recorded from outside the program.

The tracer replaces each public function of the layer modules (``cli``,
``transforms``, ``chainseq``, ``recurrence``, ``bounds``, ``scaling``) with
a timing wrapper at every binding that refers to it: the defining module,
modules that imported the name by value (``cli.zeros_R``, ``scaling.zeros_W``,
``bounds.rotated_cd`` and so on), module-level dispatch tables
(``bounds._METHODS``, ``cli._HANDLERS``) and public classmethods.  Hot inner
helpers stay unwrapped so the overhead stays small; their time lands in the
span that calls them.  ``errors`` does no work and is not a layer.

Spans nest: a layer's self time is its span time minus the time of the spans
it called.  Work counters are read at the same boundaries.  ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

PACKAGE = "popuc"
LAYERS = ("cli", "transforms", "chainseq", "recurrence", "bounds", "scaling")

# Called once per degree of every enclosure sweep (60k times per horizon
# pass); a span each would distort the very times being measured.
UNSPANNED = {"bounds.quadratic_roots"}

# Private kernels wrapped only to count the terms they process.
COUNTED_PRIVATE = {"chainseq._minimal_raw", "chainseq._backward_maximal"}

# Names bound by value outside their defining module, and dispatch tables:
# the bindings a tracer that wraps only the defining module would miss.
BY_VALUE = ("cli.zeros_R", "cli.gap_certificate", "cli.support_arc",
            "cli.cd_from_verblunsky", "scaling.zeros_W", "bounds.rotated_cd",
            "transforms.maximal_params")
DISPATCH = ("bounds._METHODS", "cli._HANDLERS")

ENCLOSURES = {"bounds.enclosure_thm44", "bounds.enclosure_thm46",
              "bounds.enclosure_cor45", "bounds.enclosure_cor47"}


class _Frame:
    __slots__ = ("layer", "name", "child", "ladder")

    def __init__(self, layer, name):
        self.layer = layer
        self.name = name
        self.child = 0.0
        self.ladder = None


class Tracer:
    def __init__(self):
        self.error_type = importlib.import_module(f"{PACKAGE}.errors").PopucError
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.fn_self = defaultdict(float)
        self.count = defaultdict(float)
        self._stack = []
        self._seen = set()
        self._job_sweep = 0
        self._patches = []
        self._spans = set()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        stack = self._stack
        signature = inspect.signature(fn)

        def span(*args, **kwargs):
            frame = _Frame(layer, qual)
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.error_type as exc:
                if id(exc) not in self._seen:
                    self._seen.add(id(exc))
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                own = elapsed - frame.child
                self.calls[layer] += 1
                self.self_s[layer] += own
                self.fn_self[qual] += own
                if parent is not None:
                    parent.child += elapsed
            self._count(qual, signature, args, kwargs, result, frame, parent)
            return result

        span.__wrapped__ = fn
        self._spans.add(span)
        return span

    def _count(self, qual, signature, args, kwargs, result, frame, parent):
        count = self.count
        if qual in ("transforms.cd_from_verblunsky", "transforms.CdParams.from_sequences"):
            count["transforms.terms"] += len(result.c)
        elif qual == "transforms.verblunsky_from_cd":
            count["transforms.terms"] += len(result)
        elif qual in COUNTED_PRIVATE:
            count["chainseq.terms"] += len(args[0])
        elif qual == "recurrence.zeros_ladder":
            if parent is not None:
                parent.ladder = (parent.ladder or 0) + sum(len(level) for level in result)
        elif qual == "bounds.gap_certificate":
            count["bounds.gap_terms"] += len(result.m)
        elif qual in ENCLOSURES and (parent is None or parent.name not in ENCLOSURES):
            n = signature.bind(*args, **kwargs).arguments["N"]
            count["bounds.sweep_degrees"] += n
            self._job_sweep = max(self._job_sweep, n)
        if frame.layer == "recurrence":
            if parent is not None and parent.layer == "recurrence":
                if frame.ladder is not None:  # pass ladder sizes up to the boundary
                    parent.ladder = (parent.ladder or 0) + frame.ladder
            elif hasattr(result, "theta"):
                count["recurrence.zeros_returned"] += result.n
                count["recurrence.zeros_computed"] += (
                    frame.ladder if frame.ladder is not None else result.n)

    def start_job(self):
        self._seen.clear()
        self._job_sweep = 0

    def end_job(self, out_bytes: int):
        self.count["cli.out_bytes"] += out_bytes
        self.count["bounds.useful_sweep"] += self._job_sweep

    # -- installing -------------------------------------------------------------

    def _targets(self):
        """(layer, name, function or classmethod, owning class or None) to wrap."""
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                qual = f"{layer}.{name}"
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and \
                        ((not name.startswith("_") and qual not in UNSPANNED)
                         or qual in COUNTED_PRIVATE):
                    yield layer, name, obj, None
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, raw in vars(obj).items():
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            yield layer, f"{name}.{attr}", raw, obj

    def install(self):
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        replace = {}
        for layer, name, obj, owner in self._targets():
            if owner is not None:
                wrapped = classmethod(self._wrap(layer, name, obj.__func__))
                self._patch(owner, name.split(".")[1], obj, wrapped)
            else:
                replace[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patch(module, attr, value, replace[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace and replace[id(item)][0] is item:
                            self._patch(value, key, item, replace[id(item)][1])

    def _patch(self, owner, key, original, wrapped):
        if isinstance(owner, dict):
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def unwrapped(self) -> list:
        """The ``BY_VALUE`` bindings and ``DISPATCH`` entries that carry no
        span.  Lambdas in a table are exempt: they look their target up in
        the module namespace at call time, and that binding is wrapped."""
        missed = []
        for qual in BY_VALUE + DISPATCH:
            layer, name = qual.split(".")
            value = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), name)
            items = value.items() if isinstance(value, dict) else [(None, value)]
            for key, fn in items:
                if fn not in self._spans and getattr(fn, "__name__", "") != "<lambda>":
                    missed.append(qual if key is None else f"{qual}[{key!r}]")
        return missed

    # -- report -------------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics; ratios with an empty base read 0."""

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.share"] = (ratio(self.self_s[layer], wall_s), "frac")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        c = self.count
        out["transforms.terms"] = (c["transforms.terms"], "count")
        out["transforms.ns_per_term"] = (
            ratio(self.self_s["transforms"], c["transforms.terms"], 1e9), "ns")
        out["chainseq.terms"] = (c["chainseq.terms"], "count")
        out["chainseq.ns_per_term"] = (
            ratio(self.self_s["chainseq"], c["chainseq.terms"], 1e9), "ns")
        out["recurrence.zeros_returned"] = (c["recurrence.zeros_returned"], "count")
        out["recurrence.zeros_computed"] = (c["recurrence.zeros_computed"], "count")
        out["recurrence.useful_zero_ratio"] = (
            ratio(c["recurrence.zeros_returned"], c["recurrence.zeros_computed"]), "frac")
        out["recurrence.us_per_zero"] = (
            ratio(self.self_s["recurrence"], c["recurrence.zeros_returned"], 1e6), "us")
        out["bounds.gap_terms"] = (c["bounds.gap_terms"], "count")
        out["bounds.ns_per_gap_term"] = (
            ratio(self.fn_self["bounds.gap_certificate"], c["bounds.gap_terms"], 1e9), "ns")
        out["bounds.sweep_degrees"] = (c["bounds.sweep_degrees"], "count")
        out["bounds.useful_sweep_ratio"] = (
            ratio(c["bounds.useful_sweep"], c["bounds.sweep_degrees"]), "frac")
        out["cli.out_bytes"] = (c["cli.out_bytes"], "B")
        out["cli.ns_per_out_byte"] = (
            ratio(self.self_s["cli"], c["cli.out_bytes"], 1e9), "ns")
        return out
