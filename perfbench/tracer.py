"""Span tracer for the traced benchmark run.

It wraps the public functions of the eight ``bergman`` modules from outside:
every module attribute that is one of the listed functions is replaced by a
wrapper, so a name reaches the tracer wherever it is looked up
(``analysis.rho_revolution``, ``resonance.rho_closed``, the names ``cli``
imports and the package namespace alike).  ``PotentialTable`` evaluation
methods are patched on the class.  Spans (name, start, end, parent) stay in
memory and are written to a sidecar file when the run ends.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _points(args, kwargs):
    u = args[1] if len(args) > 1 else kwargs.get("u", kwargs.get("r"))
    return int(np.size(u))


def _monomials(args, kwargs, result):
    return int(np.size(result))


def _q(args, kwargs, result):
    w = args[0] if args else kwargs["w"]
    return int(w.q)


def _indices(args, kwargs, result):
    return int(result.n_indices)


# (module, function, span name, {count name: counter(args, kwargs, result)})
TRACED = [
    ("models", "make_cone_family", "models.profile", {}),
    ("models", "rescale_to_area", "models.profile", {}),
    ("models", "round_sphere", "models.profile", {}),
    ("potential", "build_potential", "potential.build_potential", {}),
    ("kernels", "log_monomial_norms", "kernels.log_monomial_norms",
     {"monomials": _monomials}),
    ("kernels", "rho_at_u", "kernels.rho_at_u",
     {"points": lambda a, k, r: int(np.size(r))}),
    ("kernels", "kernel_area_integral", "kernels.kernel_area_integral", {}),
    ("kernels", "rho_revolution", "kernels.rho_revolution", {}),
    ("kernels", "peak_section_tail", "kernels.peak_section_tail", {}),
    ("gram", "gram_matrix", "gram.gram_matrix", {}),
    ("gram", "rho_gram", "gram.rho_gram", {}),
    ("gram", "rho_gram_field", "gram.rho_gram_field", {}),
    ("orbifold", "rho_closed", "orbifold.rho_closed", {"terms": _q}),
    ("orbifold", "min_on_ray", "orbifold.min_on_ray", {}),
    ("orbifold", "rho_oracle", "orbifold.rho_oracle", {"indices": _indices}),
    ("resonance", "construct_certificate", "resonance.construct_certificate", {}),
    ("resonance", "find_subunity_point", "resonance.find_subunity_point", {}),
    ("analysis", "cone_sweep", "analysis", {}),
    ("analysis", "lp_deviation", "analysis", {}),
    ("analysis", "fs_current_sup", "analysis", {}),
    ("analysis", "tyz_a1_estimate", "analysis", {}),
    ("cli", "run", "cli.run", {}),
]

TABLE_METHODS = ("phi", "lam", "r_of_u", "phi_prime")
TABLE_SPAN = "potential.table_eval"

# per-layer metrics: name -> (unit, span, statistic)
LAYER_METRICS = {
    "models.profile.calls": ("count", "models.profile", "calls"),
    "models.profile.self_s": ("s", "models.profile", "self_s"),
    "potential.build_potential.calls": ("count", "potential.build_potential", "calls"),
    "potential.build_potential.self_s": ("s", "potential.build_potential", "self_s"),
    "potential.build_potential.per_profile": ("ratio", "potential.build_potential", "per_profile"),
    "potential.table_eval.points": ("count", TABLE_SPAN, "points"),
    "potential.table_eval.self_s": ("s", TABLE_SPAN, "self_s"),
    "kernels.log_monomial_norms.calls": ("count", "kernels.log_monomial_norms", "calls"),
    "kernels.log_monomial_norms.monomials": ("count", "kernels.log_monomial_norms", "monomials"),
    "kernels.log_monomial_norms.self_s": ("s", "kernels.log_monomial_norms", "self_s"),
    "kernels.rho_at_u.points": ("count", "kernels.rho_at_u", "points"),
    "kernels.rho_at_u.self_s": ("s", "kernels.rho_at_u", "self_s"),
    "kernels.kernel_area_integral.calls": ("count", "kernels.kernel_area_integral", "calls"),
    "kernels.kernel_area_integral.self_s": ("s", "kernels.kernel_area_integral", "self_s"),
    "kernels.rho_revolution.self_s": ("s", "kernels.rho_revolution", "self_s"),
    "kernels.peak_section_tail.self_s": ("s", "kernels.peak_section_tail", "self_s"),
    "gram.gram_matrix.calls": ("count", "gram.gram_matrix", "calls"),
    "gram.gram_matrix.self_s": ("s", "gram.gram_matrix", "self_s"),
    "gram.rho_gram.calls": ("count", "gram.rho_gram", "calls"),
    "gram.rho_gram.self_s": ("s", "gram.rho_gram", "self_s"),
    "gram.rho_gram_field.calls": ("count", "gram.rho_gram_field", "calls"),
    "gram.rho_gram_field.self_s": ("s", "gram.rho_gram_field", "self_s"),
    "orbifold.rho_closed.calls": ("count", "orbifold.rho_closed", "calls"),
    "orbifold.rho_closed.terms": ("count", "orbifold.rho_closed", "terms"),
    "orbifold.rho_closed.self_s": ("s", "orbifold.rho_closed", "self_s"),
    "orbifold.min_on_ray.calls": ("count", "orbifold.min_on_ray", "calls"),
    "orbifold.min_on_ray.self_s": ("s", "orbifold.min_on_ray", "self_s"),
    "orbifold.rho_oracle.indices": ("count", "orbifold.rho_oracle", "indices"),
    "orbifold.rho_oracle.self_s": ("s", "orbifold.rho_oracle", "self_s"),
    "resonance.construct_certificate.calls": ("count", "resonance.construct_certificate", "calls"),
    "resonance.construct_certificate.self_s": ("s", "resonance.construct_certificate", "self_s"),
    "resonance.find_subunity_point.self_s": ("s", "resonance.find_subunity_point", "self_s"),
    "analysis.self_s": ("s", "analysis", "self_s"),
    "cli.run.calls": ("count", "cli.run", "calls"),
    "cli.run.self_s": ("s", "cli.run", "self_s"),
}


class Tracer:
    """In-memory spans and per-span-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[list] = []      # [name id, start, end, parent index]
        self._child: list[float] = []    # time covered by direct children
        self._stack: list[int] = []
        self.stats: dict[str, dict] = {}
        self._profiles: dict[int, object] = {}  # distinct profiles built
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "self_s": 0.0}
        return st

    def call(self, name, fn, counters, args, kwargs):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [nid, 0.0, 0.0, parent]
        self.spans.append(span)
        self._child.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            span[1], span[2] = t0, t1
            if parent >= 0:
                self._child[parent] += t1 - t0
            st = self._stat(name)
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - self._child[idx]
        for key, count in counters.items():
            st[key] = st.get(key, 0) + count(args, kwargs, result)
        return result

    def _in_table_eval(self):
        return bool(self._stack) and self.names[self.spans[self._stack[-1]][0]] == TABLE_SPAN

    # -- installation ------------------------------------------------------

    def _wrapper(self, fn, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counters, args, kwargs)
        return traced

    def install(self):
        """Wrap every listed function wherever a bergman module holds it."""
        import bergman  # noqa: F401  (loads every submodule)
        from bergman.potential import PotentialTable

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "bergman" or n.startswith("bergman.")]
        for mod_name, fn_name, span, counters in TRACED:
            fn = getattr(sys.modules[f"bergman.{mod_name}"], fn_name)
            if fn_name == "build_potential":
                wrapped = self._wrapper(self._remember_profile(fn), span, counters)
            else:
                wrapped = self._wrapper(fn, span, counters)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, wrapped)
                        self._patched.append((ns, attr, fn))
        for meth in TABLE_METHODS:
            orig = getattr(PotentialTable, meth)
            setattr(PotentialTable, meth, self._table_wrapper(orig))
            self._patched.append((PotentialTable, meth, orig))

    def _remember_profile(self, fn):
        @functools.wraps(fn)
        def build(profile, *args, **kwargs):
            self._profiles.setdefault(id(profile), profile)
            return fn(profile, *args, **kwargs)
        return build

    def _table_wrapper(self, orig):
        counters = {"points": lambda a, k, r: _points(a, k)}

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if self._in_table_eval():  # lam -> r_of_u: count the outer call only
                return orig(*args, **kwargs)
            return self.call(TABLE_SPAN, orig, counters, args, kwargs)
        return traced

    def uninstall(self):
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round values of every per-layer metric (all rounds are equal)."""
        out = {}
        for metric, (unit, span, what) in LAYER_METRICS.items():
            st = self.stats.get(span, {})
            if what == "per_profile":
                value = st.get("calls", 0) / len(self._profiles) if self._profiles else 0.0
            elif what == "self_s":
                value = st.get("self_s", 0.0) / rounds
            else:
                total = st.get(what, 0)
                if total % rounds:
                    raise RuntimeError(f"{metric}: {total} does not split into {rounds} equal rounds")
                value = total // rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, meta: dict) -> None:
        """Sidecar JSON: span names, spans relative to the first start, stats."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta)
        doc["names"] = self.names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                        for s in self.spans]
        doc["stats"] = self.stats
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
