"""Per-layer tracing of specrig from outside the package.

`Tracer.install()` replaces each traced function by a timing wrapper at
every place specrig binds it: the defining module or class, and every
specrig module that imported the name directly (`pipeline` and `localmod`
do `from .x import f`).  `uninstall()` puts the originals back.  Nothing
in specrig itself changes.

A stage-level call becomes a span (operation id, span id, parent span id,
name, start, end) kept in memory.  The hot kernels run up to ~10^5 times
per operation, so their calls and self time are only summed per
(parent span, kernel).  Self time is a call's duration minus the time
its traced callees took; inclusive time counts only the outermost call
of a recursive function.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from time import perf_counter

# (module, qualified name, hot kernel?)
TARGETS = [
    ("parsing", "parse_problem", False),
    ("report", "serialize", False),
    ("pipeline", "run_analysis", False),
    ("matrf", "charpoly", False),
    ("matrf", "localize", False),
    ("matrf", "localize_charpoly", False),
    ("matrf", "validate_poles", False),
    ("ratfn", "expand_at", False),
    ("qpoly", "resultant_det", False),
    ("qpoly", "det_cofactor", True),
    ("qpoly", "resultant", False),
    ("qpoly", "factor_rational", False),
    ("series", "Series.__mul__", True),
    ("series", "Series.inverse", True),
    ("puiseux", "puiseux_clusters", False),
    ("puiseux", "discriminant_valuation", False),
    ("puiseux", "newton_polygon", False),
    ("localmod", "build_local", False),
    ("localmod", "check_assumption", False),
    ("localmod", "reduction_cross_check", False),
    ("localmod", "discriminant_identity_holds", False),
    ("germs", "germ_milnor", False),
    ("germs", "germ_milnor_oracle", False),
    ("germs", "germ_equation", False),
    ("rigidity", "irreducibility_status", False),
    ("rigidity", "smoothness_check_finite_part", False),
    ("splitting", "htl_from_reduction", False),
    ("splitting", "full_split", False),
    ("splitting", "split_once", False),
    ("splitting", "ramified_pullback", False),
    ("tower", "TowerElem.__mul__", True),
    ("tower", "FieldTower.split_completely", False),
    ("tower", "FieldTower.adjoin", False),
]

LAYER_NAMES = [f"{mod}.{qual}" for mod, qual, _ in TARGETS]


def _resolve(mod, qual):
    obj = importlib.import_module(f"specrig.{mod}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Wrappers, span store and counters for one benchmark run."""

    def __init__(self):
        self.op_id = None
        self._stack = []        # open frames: [child seconds, span id]
        self._depth = {}        # name -> open calls (recursion guard)
        self._next_span = 0
        self.spans = []         # (op, span, parent, name, start, end)
        self.kernels = {}       # (op, parent span, name) -> [calls, self]
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        self.sylvester_dim_max = 0
        self.disc_calls = 0
        self.disc_distinct = 0
        self._disc_seen = {}    # op -> set of discriminant inputs
        self.poles = 0
        self.nterms_final = 0
        self.truncation_retries = 0
        self.height_max = 0
        self._patched = []      # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        # splitting is imported lazily by specrig; bind it now so that
        # every import site exists before the scan below
        for mod, _, _ in TARGETS:
            importlib.import_module(f"specrig.{mod}")
        owners = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "specrig" or mod_name.startswith("specrig."):
                owners.append(module)
                owners.extend(v for v in vars(module).values()
                              if isinstance(v, type)
                              and v.__module__ == mod_name)
        observers = self._observers()
        for mod, qual, hot in TARGETS:
            original = _resolve(mod, qual)
            wrapper = self._wrap(f"{mod}.{qual}", original, hot,
                                 observers.get(f"{mod}.{qual}"))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset_stack(self):
        """Drop frames left open by an operation cut off by a timeout."""
        self._stack.clear()
        for name in self._depth:
            self._depth[name] = 0

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name, fn, hot, observe):
        stats = self.stats[name]
        stack = self._stack
        depth = self._depth
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if hot:
                span = parent_span
            else:
                span = self._next_span
                self._next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                own = dur - frame[0]
                stats[0] += 1
                stats[1] += own
                if not depth[name]:
                    stats[2] += dur
                if hot:
                    key = (self.op_id, parent_span, name)
                    agg = self.kernels.get(key)
                    if agg is None:
                        self.kernels[key] = [1, own]
                    else:
                        agg[0] += 1
                        agg[1] += own
                else:
                    self.spans.append((self.op_id, span, parent_span, name,
                                       t0, t1))
                if parent is not None:
                    parent[0] += dur
            if observe is not None:
                t2 = perf_counter()
                observe(args, result)
                if parent is not None:
                    # the observer's bookkeeping is tracing cost, not the
                    # parent's own work
                    parent[0] += perf_counter() - t2
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _observers(self):
        from specrig.matrf import default_truncation, pole_order

        def resultant_det(args, _):
            f, g = args[0], args[1]
            if f.degree > 0 and g.degree > 0:
                self.sylvester_dim_max = max(self.sylvester_dim_max,
                                             f.degree + g.degree)

        def discriminant_valuation(args, _):
            seen = self._disc_seen.setdefault(self.op_id, set())
            key = repr(args[0])
            self.disc_calls += 1
            if key not in seen:
                seen.add(key)
                self.disc_distinct += 1

        def build_local(args, local):
            a_mat, pole = args[0], args[1]
            base = default_truncation(a_mat.n, pole_order(a_mat, pole))
            self.poles += 1
            self.nterms_final += local.nterms
            self.truncation_retries += max(
                0, round(math.log2(local.nterms / base)))
            self.height_max = max(self.height_max, local.tower.height)

        def adjoin(args, _):
            self.height_max = max(self.height_max, args[0].height)

        return {"qpoly.resultant_det": resultant_det,
                "puiseux.discriminant_valuation": discriminant_valuation,
                "localmod.build_local": build_local,
                "tower.FieldTower.adjoin": adjoin}

    # -- results --------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics, each averaged over `passes` traced passes."""
        out = {}
        for name, (calls, self_s, incl_s) in self.stats.items():
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
            out[f"{name}.incl_s"] = (incl_s / passes, "s")
        share = (self.disc_distinct / self.disc_calls
                 if self.disc_calls else 1.0)
        out["qpoly.sylvester_dim_max"] = (self.sylvester_dim_max, "count")
        out["puiseux.discriminant_valuation.distinct_share"] = (share,
                                                                "ratio")
        out["localmod.poles"] = (self.poles / passes, "count")
        out["localmod.nterms_final"] = (self.nterms_final / passes, "count")
        out["localmod.truncation_retries"] = (
            self.truncation_retries / passes, "count")
        out["tower.height_max"] = (self.height_max, "count")
        return out

    def write_spans(self, path):
        """Stage spans and per-parent kernel aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, span, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "span": span,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
            for (op, parent, name), (calls, self_s) in self.kernels.items():
                fh.write(json.dumps({"op": op, "parent": parent,
                                     "kernel": name, "calls": calls,
                                     "self_s": self_s}) + "\n")
