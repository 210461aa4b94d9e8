"""Per-layer trace of chevnet, recorded from outside the package.

`Tracer.install()` replaces chosen public functions of chevnet with
wrappers, wherever a chevnet module holds a reference to them, and
`uninstall()` puts the originals back.  Nothing in `src/` is changed.

- Kernel wrappers (`_kernels`) only count calls, products and time: they
  run hundreds of thousands of times.
- Every other wrapper records a span (name, start, end, parent) in memory,
  with the `what=` label and size of each `generate` call as its detail,
  plus total time (re-entry not counted twice) and self time (total minus
  the wrapped calls made inside it).  `write_spans` saves the spans when
  the run ends.
- A target that a later version of chevnet no longer has is listed in
  `absent`; its metrics are left out and the run goes on.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# (metric prefix, chevnet module, attribute path, what to count)
TARGETS = [
    ("kernels.matmul", "_kernels", "matmul", "kernel"),
    ("kernels.batch", "_kernels", "matmul_left_batch", "kernel_batch"),
    ("kernels.batch", "_kernels", "matmul_right_batch", "kernel_batch"),
    ("kernels.matvec", "_kernels", "matvec_batch", "kernel_batch"),
    ("grp.generate", "grp", "generate", "generate"),
    ("grp.stabilizer_mask", "grp", "stabilizer_mask", "matrices"),
    ("grp.multiply_sets", "grp", "multiply_sets", "pairs"),
    ("grp.quotient_structure", "grp", "quotient_structure", "span"),
    ("grp.matrix_inverse", "grp", "AdjointGroup.matrix_inverse", "span"),
    ("grp.evaluate_word", "grp", "AdjointGroup.evaluate_word", "span"),
    ("ringkit", "ringkit", "make_ring", "span"),
    ("ringkit", "ringkit", "jacobson_radical", "span"),
    ("ringkit", "ringkit", "quotient_ring", "span"),
    ("ringkit", "ringkit", "local_decomposition", "span"),
    ("chevalg", "chevalg", "compute_structure_constants", "span"),
    ("chevalg", "chevalg", "check_condition_star", "span"),
    ("nets", "nets", "net_close", "span"),
    ("nets", "nets", "net_image", "span"),
    ("nets", "nets", "net_intersect_ideal", "span"),
    ("nets", "nets", "sigma_from_closed_set", "span"),
    ("nets", "nets", "delta_prime", "span"),
    ("gauss", "gauss", "gauss_rewrite", "span"),
    ("gauss", "gauss", "gauss_extract", "span"),
]

# every check the workloads use; each is wrapped through verify.CHECKS
CHECK_NAMES = ["jacobson", "local", "normal", "finiteindex", "semilocal_G", "gauss",
               "standard_commutator", "nilpotent_by_abelian", "relative_generators",
               "decompose_field"]

LAYERS = ["ringkit", "chevalg", "nets", "gauss"]


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, detail]
        self.stack: list[list] = []      # [span index, child seconds]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # outermost calls only
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)     # products, matrices or elements
        self.rss_mb = defaultdict(float)
        self.depth = defaultdict(int)
        self.in_generate = 0
        self.over = {"calls": 0, "elements": 0, "s": 0.0}
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self.t0 = _perf()

    # -- installing ------------------------------------------------------------

    def install(self):
        for prefix, modname, path, kind in TARGETS:
            try:
                mod = importlib.import_module(f"chevnet.{modname}")
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{path}")
                continue
            layer = prefix if prefix in LAYERS else None
            if kind.startswith("kernel"):
                wrapper = self._kernel(prefix, orig, kind == "kernel_batch")
            else:
                wrapper = self._span(f"{prefix}.{attr}" if layer else prefix,
                                     layer, orig, kind)
            if owner is mod:
                self._rebind(orig, wrapper)
            else:
                self._patch(owner, attr, wrapper)
        try:
            checks = importlib.import_module("chevnet.verify").CHECKS
        except (ImportError, AttributeError):
            self.absent.append("verify.CHECKS")
            return
        for name in CHECK_NAMES:
            if name not in checks:
                self.absent.append(f"verify.CHECKS[{name!r}]")
                continue
            self._patch(checks, name,
                        self._span(f"verify.check.{name}", None, checks[name], "check"),
                        item=True)

    def uninstall(self):
        for owner, key, orig, item in reversed(self._patches):
            if item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def _patch(self, owner, key, new, item=False):
        self._patches.append((owner, key, owner[key] if item else getattr(owner, key), item))
        if item:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def _rebind(self, orig, new):
        """Replace `orig` in every chevnet module namespace that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "chevnet" or modname.startswith("chevnet.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, key, new)

    # -- wrappers ----------------------------------------------------------------

    def _kernel(self, name, fn, batch):
        calls, total, work, stack = self.calls, self.total, self.work, self.stack

        def wrapper(*args, **kwargs):
            t = _perf()
            out = fn(*args, **kwargs)
            dt = _perf() - t
            n = len(out) if batch else 1
            calls[name] += 1
            total[name] += dt
            work[name] += n
            if stack:
                stack[-1][1] += dt
            if batch and self.in_generate and name == "kernels.batch":
                work["grp.generate.products"] += n
            return out

        return wrapper

    def _span(self, name, layer, fn, kind):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, parent, None])
            frame = [idx, 0.0]
            tracer.stack.append(frame)
            tracer.depth[name] += 1
            if layer:
                tracer.depth[layer] += 1
            if kind == "generate":
                tracer.in_generate += 1
            rss0 = _maxrss_mb() if kind == "check" else 0.0
            t = _perf()
            err = None
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                err = e
                raise
            finally:
                dt = _perf() - t
                tracer.stack.pop()
                tracer.spans[idx][1:3] = [t - tracer.t0, t + dt - tracer.t0]
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[1]
                tracer.depth[name] -= 1
                if tracer.depth[name] == 0:
                    tracer.total[name] += dt
                if layer:
                    tracer.depth[layer] -= 1
                    if tracer.depth[layer] == 0:
                        tracer.total[layer] += dt
                if kind == "generate":
                    tracer.in_generate -= 1
                    partial = getattr(err, "partial", None)
                    if partial is not None:
                        tracer.spans[idx][4] = f"{_arg(args, kwargs, 3, 'what')}: over budget at {partial}"
                        tracer.over["calls"] += 1
                        tracer.over["elements"] += partial
                        tracer.over["s"] += dt
                elif kind == "check":
                    tracer.rss_mb[name] += _maxrss_mb() - rss0
            if kind == "generate":
                tracer.work[name] += len(out)
                tracer.spans[idx][4] = f"{_arg(args, kwargs, 3, 'what')}: {len(out)} elements"
            elif kind == "matrices":
                tracer.work[name] += len(_arg(args, kwargs, 1, "mats"))
            elif kind == "pairs":
                tracer.work[name] += (len(_arg(args, kwargs, 1, "A"))
                                      * len(_arg(args, kwargs, 2, "B")))
            return out

        return wrapper

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); absent targets left out."""
        gone = set(self.absent)
        out: dict[str, tuple[float, str]] = {}

        def have(modname, path):
            return f"{modname}.{path}" not in gone

        c, t, w = self.calls, self.total, self.work
        if have("_kernels", "matmul"):
            out["kernels.matmul.calls"] = (c["kernels.matmul"], "count")
            out["kernels.matmul.s"] = (t["kernels.matmul"], "s")
        if have("_kernels", "matmul_left_batch") and have("_kernels", "matmul_right_batch"):
            out["kernels.batch.products"] = (w["kernels.batch"], "count")
            out["kernels.batch.s"] = (t["kernels.batch"], "s")
        if have("_kernels", "matvec_batch"):
            out["kernels.matvec.products"] = (w["kernels.matvec"], "count")
            out["kernels.matvec.s"] = (t["kernels.matvec"], "s")
        if have("grp", "generate"):
            g = "grp.generate"
            done = w[g]
            out[f"{g}.calls"] = (c[g], "count")
            out[f"{g}.elements"] = (done, "count")
            out[f"{g}.products"] = (w[f"{g}.products"], "count")
            out[f"{g}.self_s"] = (self.self_s[g], "s")
            out[f"{g}.over_budget.calls"] = (self.over["calls"], "count")
            out[f"{g}.over_budget.elements"] = (self.over["elements"], "count")
            out[f"{g}.over_budget.s"] = (self.over["s"], "s")
            seen = done + self.over["elements"]
            out[f"{g}.useful_ratio"] = (done / seen if seen else 1.0, "ratio")
        if have("grp", "stabilizer_mask"):
            out["grp.stabilizer_mask.matrices"] = (w["grp.stabilizer_mask"], "count")
            out["grp.stabilizer_mask.s"] = (t["grp.stabilizer_mask"], "s")
        if have("grp", "multiply_sets"):
            out["grp.multiply_sets.products"] = (w["grp.multiply_sets"], "count")
            out["grp.multiply_sets.s"] = (t["grp.multiply_sets"], "s")
        if have("grp", "quotient_structure"):
            out["grp.quotient_structure.s"] = (t["grp.quotient_structure"], "s")
        for fn in ("matrix_inverse", "evaluate_word"):
            if have("grp", f"AdjointGroup.{fn}"):
                out[f"grp.{fn}.calls"] = (c[f"grp.{fn}"], "count")
                out[f"grp.{fn}.s"] = (t[f"grp.{fn}"], "s")
        for layer in LAYERS:
            if any(p == layer and have(m, path) for p, m, path, _ in TARGETS):
                out[f"{layer}.s"] = (t[layer], "s")
        for name in CHECK_NAMES:
            if not {"verify.CHECKS", f"verify.CHECKS[{name!r}]"} & gone:
                out[f"verify.check.{name}.s"] = (t[f"verify.check.{name}"], "s")
                out[f"verify.check.{name}.rss_mb"] = (self.rss_mb[f"verify.check.{name}"], "MB")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "detail"],
                       "spans": self.spans, "absent": self.absent}, fh)
