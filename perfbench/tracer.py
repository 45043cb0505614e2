"""In-process tracing of qshell from outside the package.

A Tracer replaces public layer functions with wrappers in every qshell
module namespace that refers to them, so calls between modules go through
the wrappers too; `uninstall()` puts the originals back.

`install_spans()` gives each layer function a span (name, start, end,
parent, op id), kept in memory and written out at the end.  `energy` and
`q_bracket` are far too frequent for spans (about 2M calls per fine fit),
so `install_counters()` only counts them.  Counting costs about as much as
the calls themselves, so the benchmark counts in a separate pass and the
span pass's self times stay close to the untraced ones.
"""

import importlib
import json
import sys
import time
from collections import Counter

SPANNED = {
    "qshell.cli": ("parse_args", "run"),
    "qshell.shells": ("build_scheme", "detect_shells", "render_table"),
    "qshell.spectrum": ("enumerate_levels",),
    "qshell.empirics": ("load_named_dataset", "match_magics", "fit_tau"),
}
COUNTED = {
    "qshell.spectrum": ("energy",),
    "qshell.qmath": ("q_bracket",),
}


def _short(module, func):
    return f"{module.removeprefix('qshell.')}.{func}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.calls = Counter()
        self.raised = Counter()
        self.levels_kept = 0
        self.levels_enumerated = 0
        self.fit_points = 0
        self.op_id = -1
        self._stack = []
        self._patches = []

    def install_spans(self):
        for module, names in SPANNED.items():
            for func in names:
                self._patch(module, func, self._spanned)

    def install_counters(self):
        for module, names in COUNTED.items():
            for func in names:
                self._patch(module, func, self._counted)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, module, func, make_wrapper):
        original = getattr(importlib.import_module(module), func)
        wrapper = make_wrapper(_short(module, func), original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qshell" or name.startswith("qshell.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result):
        if name == "shells.build_scheme":
            self.levels_kept += len(result.levels)
        elif name == "spectrum.enumerate_levels":
            self.levels_enumerated += len(result)
        elif name == "empirics.fit_tau":
            self.fit_points += len(result.grid)

    def op(self, op_id, fn, *args):
        """Run fn(*args) as one workload operation under a root "op" span."""
        self.op_id = op_id
        return self._spanned("op", fn)(*args)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its child spans
        cover; the program is single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return out

    def write(self, path, meta):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
            fh.write("\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round((start - t0) * 1e6, 3),
                                     round((end - t0) * 1e6, 3), parent, op_id]))
                fh.write("\n")
