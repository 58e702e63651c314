"""In-memory spans around the public functions of each berglab module.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces every reference to a traced function in every loaded ``berglab``
module namespace, so nested calls made through a module's own imports (for
example ``operators.build_rule`` or ``analysis.conjugate_operator``) are seen.
Spans are (name, start, end, parent, run id, tag) records kept in a list; a
layer's self time is its span duration minus the time its direct child spans
cover.  Nothing is written while the program runs.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time

# Aggregate span name for the public kernel, involution and metric functions.
SPACES_FUNCTIONS = ("kernel_eval", "kernel_norm", "normalized_kernel_eval",
                    "normalized_pairing", "involution", "metric")

# (module, function) -> span name; every one of these is wrapped.
TRACED = {
    ("quadrature", "build_rule"): "quadrature.build_rule",
    ("quadrature", "ball_rule"): "quadrature.ball_rule",
    ("quadrature", "rudin_forelli"): "quadrature.rudin_forelli",
    ("coeffs", "scalar_basis_matrix"): "coeffs.scalar_basis_matrix",
    ("operators", "toeplitz_matrix"): "operators.toeplitz_matrix",
    ("operators", "translation_matrix"): "operators.translation_matrix",
    ("operators", "translation_certificate"): "operators.translation_certificate",
    ("operators", "conjugate_operator"): "operators.conjugate_operator",
    ("operators", "rank_one_toeplitz_sum"): "operators.rank_one_toeplitz_sum",
    ("analysis", "essential_norm_estimate"): "analysis.essential_norm_estimate",
    ("analysis", "berezin_decay_profile"): "analysis.berezin_decay_profile",
    ("analysis", "rkt_boundedness_check"): "analysis.rkt_boundedness_check",
    ("covering", "build_covering"): "covering.build_covering",
    ("covering", "localization_error"): "covering.localization_error",
    ("config", "load_config"): "config.load_config",
    ("reporting", "write_json_atomic"): "reporting.write",
    ("reporting", "write_csv_atomic"): "reporting.write",
    ("cli", "main"): "cli.main",
    **{("spaces", fn): "spaces" for fn in SPACES_FUNCTIONS},
}


def _points_digest(points) -> tuple:
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(points, dtype=complex))
    return arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16).hexdigest()


class Tracer:
    """Span stack plus counters for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (name, start, end, parent index, run id, tag)
        self.self_s = {}         # name -> summed self time
        self.calls = {}          # name -> number of spans
        self.counts = {"quadrature.build_rule.nodes": 0,
                       "quadrature.ball_rule.nodes": 0,
                       "coeffs.scalar_basis_matrix.entries": 0,
                       "reporting.write.bytes": 0}
        self.distinct = {"coeffs.scalar_basis_matrix": set(),
                         "operators.translation_matrix": set()}
        self._stack = []         # [span index, child time]

    def begin(self, name: str, tag=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, tag])
        self._stack.append([index, 0.0])
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        top, child_time = self._stack.pop()
        if top != index:
            raise RuntimeError("span stack out of order")
        span = self.spans[index]
        span[2] = now
        duration = now - span[1]
        name = span[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_time
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tracer._before(name, args, kwargs)
            index = tracer.begin(name, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer._after(name, args, kwargs, out)
            return out

        return traced

    def _before(self, name, args, kwargs):
        """Distinct-input keys and cross-check tags, taken outside the span."""
        if name == "coeffs.scalar_basis_matrix":
            basis = args[0] if args else kwargs["basis"]
            points = args[1] if len(args) > 1 else kwargs["points"]
            self.distinct[name].add((basis.space, basis.n_modes, _points_digest(points)))
        elif name == "operators.translation_matrix":
            basis = args[0] if args else kwargs["basis"]
            z = args[1] if len(args) > 1 else kwargs["z"]
            rule = args[2] if len(args) > 2 else kwargs.get("rule")
            key_rule = None if rule is None else (rule.radial_order, rule.angular_order,
                                                  _points_digest(rule.nodes))
            self.distinct[name].add((basis.space, basis.n_modes, _points_digest(z), key_rule))
        elif name in ("operators.toeplitz_matrix", "operators.rank_one_toeplitz_sum"):
            basis = args[0] if args else kwargs["basis"]
            return [basis.space.kind, basis.n_modes, basis.space.d]
        elif name == "analysis.essential_norm_estimate":
            basis = (args[0] if args else kwargs["T"]).basis
            return [basis.space.kind, basis.n_modes, basis.space.d]
        return None

    def _after(self, name, args, kwargs, out):
        if name in ("quadrature.build_rule", "quadrature.ball_rule"):
            self.counts[name + ".nodes"] += int(out.n_nodes)
        elif name == "coeffs.scalar_basis_matrix":
            self.counts[name + ".entries"] += int(out.size)
        elif name == "reporting.write":
            path = args[0] if args else kwargs["path"]
            self.counts["reporting.write.bytes"] += os.path.getsize(path)

    def install(self) -> None:
        """Wrap every traced function in every loaded berglab namespace."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "berglab" or name.startswith("berglab."))}
        wrappers = {}
        for (module, fn_name), span in TRACED.items():
            mod = modules.get("berglab." + module)
            if mod is None:
                continue
            original = getattr(mod, fn_name)
            wrappers[id(original)] = self.wrap(span, original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        covering = modules.get("berglab.covering")
        if covering is not None:
            cls = covering.Covering
            cls.cell_diameters = self.wrap("covering.cell_diameters", cls.cell_diameters)

    def summary(self) -> dict:
        """Self times, deterministic counts and distinct-input ratios of this process."""
        counts = dict(self.counts)
        counts.update({name + ".calls": n for name, n in self.calls.items()})
        for name, keys in self.distinct.items():
            counts[name + ".distinct"] = len(keys)
        return {"self_s": dict(self.self_s), "counts": counts,
                "spans": [list(s) for s in self.spans]}
