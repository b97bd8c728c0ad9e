"""Spans and counters around the public functions of `hopforder`.

The tracer lives entirely in the benchmark: it wraps each function named
in TARGETS and patches the wrapper into every `hopforder.*` module
namespace that bound the original, because `from .linalg import hnf`
binds the name at import time and patching `hopforder.linalg` alone
would miss the calls made from `order`.  Methods are patched on their
class.  Spans stay in memory; `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute); a dotted attribute is a method patched on its class.
TARGETS = (
    ("documents", "load_document"),
    ("documents", "dump_report"),
    ("action", "FieldPresentation.validate"),
    ("action", "build_bundle"),
    ("action", "verify_action"),
    ("action", "express_endomorphism"),
    ("linalg", "rank"),
    ("linalg", "solve"),
    ("linalg", "determinant"),
    ("linalg", "det_inverse"),
    ("linalg", "hnf"),
    ("linalg", "lattice_contains"),
    ("linalg", "lattice_equal"),
    ("linalg", "kronecker"),
    ("order", "associated_order"),
    ("order", "verify_order"),
    ("freeness", "generator_matrix"),
    ("freeness", "search_free_generator"),
    ("induction", "product_field"),
    ("induction", "induce_action"),
    ("induction", "verify_kronecker_theorem"),
    ("induction", "are_arithmetically_disjoint"),
    ("induction", "tensor_order_lattice"),
    ("induction", "verify_tensor_order"),
    ("induction", "verify_induced_generator"),
    ("induction", "base_change_order"),
    ("groups", "translation_actions"),
    ("groups", "enumerate_regular_subgroups"),
    ("groups", "classify_type"),
    ("groups", "complements_of"),
    ("groups", "detect_induced"),
    ("cli", "main"),
)

MODULES = ("documents", "action", "linalg", "order", "freeness", "induction", "groups", "cli")

SEARCH = "freeness.search_free_generator"
CANDIDATE = "freeness.generator_matrix"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rpartition('.')[2]}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in TARGETS)


class Tracer:
    """Records (name, task, start, end, parent, found) for every wrapped
    call.

    `task` is the index of the benchmark task that was running, so the
    spans of one task share it; `parent` is the index of the enclosing
    span, or -1; `found` is 1 for a free-generator search that returned
    a generator and 0 otherwise.
    """

    def __init__(self):
        self.spans = []
        self.task = -1
        self._stack = []
        self._patches = []
        self.missing = []  # TARGETS not found, e.g. after a rename in src/

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_search = name == SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.task, clock(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if is_search and result is not None:
                spans[idx][5] = 1
            return result

        return wrapper

    def install(self):
        self.missing = []
        modules = {}
        for module in MODULES:
            try:
                modules[module] = importlib.import_module(f"hopforder.{module}")
            except ModuleNotFoundError:
                pass
        namespaces = [
            mod
            for key, mod in sys.modules.items()
            if key == "hopforder" or key.startswith("hopforder.")
        ]
        for module, attr in TARGETS:
            name = span_name(module, attr)
            mod = modules.get(module)
            owner, _, fname = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = vars(holder).get(fname) if holder is not None else None
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig)
            if owner:
                self._patches.append((holder, fname, orig))
                setattr(holder, fname, wrapper)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        while self._patches:
            holder, key, orig = self._patches.pop()
            setattr(holder, key, orig)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Calls and self time per span name over spans[lo:hi], plus the
        free-generator search counters.  Self time is a span's duration
        minus the durations of its direct children."""
        spans = self.spans[lo:hi]
        self_s = [s[3] - s[2] for s in spans]
        candidates = 0
        found = sum(s[5] for s in spans)
        for s in spans:
            parent = s[4] - lo
            if parent >= 0:
                self_s[parent] -= s[3] - s[2]
                if s[0] == CANDIDATE and spans[parent][0] == SEARCH:
                    candidates += 1
        out = {}
        for s, t in zip(spans, self_s):
            calls, total = out.get(s[0], (0, 0.0))
            out[s[0]] = (calls + 1, total + t)
        return {"functions": out, "candidates": candidates, "found": found, "missing": self.missing}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "task", "start", "end", "parent", "found"], "spans": self.spans},
                fh,
            )


def merge(into: dict, summary: dict):
    """Add one summary (from `Tracer.summary`) into a running total."""
    funcs = into.setdefault("functions", {})
    for name, (calls, self_s) in summary["functions"].items():
        c, t = funcs.get(name, (0, 0.0))
        funcs[name] = (c + calls, t + self_s)
    into["candidates"] = into.get("candidates", 0) + summary["candidates"]
    into["found"] = into.get("found", 0) + summary["found"]
    into["missing"] = sorted(set(into.get("missing", [])) | set(summary["missing"]))
