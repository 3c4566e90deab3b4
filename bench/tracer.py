"""Span recorder for the traced run.

`install` replaces every public function of each multischur module, and
every name other modules imported from it, with a wrapper that records a
span: name, start, end and the span that was open when it was called.
Spans are kept in memory in flat arrays and written out at the end.

Two kinds of call are not stored span by span, because a suite makes
millions of them: the `Scalar` `*` and `+` operators, and the coercion
helpers `coerce_scalar` and `as_alphabet`.  The operators are counted
and timed, and their time is charged to `exactalg` and subtracted from
the enclosing span, like a child span's.  The coercion helpers are not
wrapped; their time stays in the caller's self time, as does the time
of methods such as `Partition.__new__` or `FockVector.__add__`.

A layer's self time is the sum, over its spans, of the span's duration
minus the time its children cover.  Group times such as `det_s` sum the
outermost spans of the group, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

MODULES = ("exactalg", "shapes", "supersym", "fock", "expansions", "verifications", "cli")
UNWRAPPED = {"coerce_scalar", "as_alphabet"}

GROUPS = {
    "det": {"exactalg.det_over_ring"},
    "exp_H": {"fock.apply_exp_H"},
    "heisenberg": {"fock.apply_heisenberg"},
    "bra_pair": {"fock.bra_refined_pair"},
    "ket": {"fock.ket_refined", "fock.ket_general", "fock.ket_partition"},
    "expand": {
        "expansions.schur_expand_multischur",
        "expansions.expand_in_refined_basis",
        "expansions.truncated_dual_expansion",
        "expansions.stable_dual_in_G",
        "expansions.stable_grothendieck_schur",
    },
    "eval_symfunc": {"expansions.eval_symfunc"},
    "hall_inner": {"expansions.hall_inner"},
    "enum": {
        "shapes.partitions_of_weight",
        "shapes.partitions_up_to_weight",
        "shapes.subpartitions",
        "shapes.superpartitions",
    },
    "run": {"cli.run"},
    "main": {"cli.main"},
}


def _size(obj) -> int:
    terms = getattr(obj, "_terms", None)
    return len(terms) if isinstance(terms, dict) else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_covered = array("d")
        self.stack = [-1]
        self.calls: dict[str, int] = {}
        self.leaf_s = 0.0
        self.peaks = {"det_n": 0, "scalar_terms": 0, "vector_states": 0}
        self.cases = 0
        self.mods = {}

    # -- recording ----------------------------------------------------

    def span(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        calls, stack = self.calls, self.stack
        names, parents, starts, ends, covered = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.span_covered,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            names.append(name_id)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            covered.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if parent >= 0:
                    covered[parent] += t1 - t0
            calls[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def leaf(self, key: str, fn):
        self.calls[key] = 0
        stack, covered, peaks, calls = self.stack, self.span_covered, self.peaks, self.calls

        @functools.wraps(fn)
        def traced(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            dt = perf_counter() - t0
            self.leaf_s += dt
            parent = stack[-1]
            if parent >= 0:
                covered[parent] += dt
            calls[key] += 1
            n = _size(result)
            if n > peaks["scalar_terms"]:
                peaks["scalar_terms"] = n
            return result

        return traced

    def _observe_det(self, args, result):
        if args and len(args[0]) > self.peaks["det_n"]:
            self.peaks["det_n"] = len(args[0])

    def _observe_vector(self, args, result):
        n = _size(result) if type(result).__name__ == "FockVector" else 0
        if n > self.peaks["vector_states"]:
            self.peaks["vector_states"] = n

    def _observe_suite(self, args, result):
        if isinstance(result, dict):
            self.cases += result.get("cases", 0)

    def install(self):
        mods = {m: importlib.import_module(f"multischur.{m}") for m in MODULES}
        everyone = list(mods.values()) + [importlib.import_module("multischur")]
        swaps = {}
        for short, mod in mods.items():
            observe = {"fock": self._observe_vector, "verifications": self._observe_suite}.get(short)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                obs = self._observe_det if attr == "det_over_ring" else observe
                swaps[fn] = self.span(f"{short}.{attr}", fn, obs)
        for mod in everyone:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in swaps:
                    setattr(mod, attr, swaps[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in swaps:
                            value[k] = swaps[v]
        scalar = mods["exactalg"].Scalar
        mul = self.leaf("scalar_mul", scalar.__mul__)
        add = self.leaf("scalar_add", scalar.__add__)
        scalar.__mul__ = scalar.__rmul__ = mul
        scalar.__add__ = scalar.__radd__ = add
        self.mods = mods

    # -- aggregation ----------------------------------------------------

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )

    def _cache(self, module: str, *fns):
        hits = misses = entries = 0
        for name in fns:
            fn = getattr(self.mods[module], name, None)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
        return hits, misses, entries

    def metrics(self) -> dict[str, float]:
        n = len(self.span_start)
        self_s = {m: 0.0 for m in MODULES}
        self_s["exactalg"] += self.leaf_s
        group_bits = {g: 1 << k for k, g in enumerate(GROUPS)}
        name_bits = [0] * len(self.names)
        for k, name in enumerate(self.names):
            for g, members in GROUPS.items():
                if name in members:
                    name_bits[k] |= group_bits[g]
        group_s = {g: 0.0 for g in GROUPS}
        masks = array("q", bytes(8 * n))
        det_id = {k for k, name in enumerate(self.names) if name == "exactalg.det_over_ring"}
        dets_in_expand = 0
        for i in range(n):
            name_id = self.span_name[i]
            parent = self.span_parent[i]
            dur = self.span_end[i] - self.span_start[i]
            self_s[self.names[name_id].split(".", 1)[0]] += dur - self.span_covered[i]
            above = masks[parent] if parent >= 0 else 0
            bits = name_bits[name_id]
            masks[i] = above | bits
            if bits & ~above:
                for g, b in group_bits.items():
                    if bits & b & ~above:
                        group_s[g] += dur
            if name_id in det_id and parent >= 0 and name_bits[self.span_name[parent]] & group_bits["expand"]:
                dets_in_expand += 1

        def calls(*names):
            return sum(self.calls.get(x, 0) for x in names)

        def ratio(a, b):
            return a / b if b else 0.0

        h_hits, h_misses, h_entries = self._cache("supersym", "_h", "_e")
        jt_hits, jt_misses, _ = self._cache("expansions", "_jacobi_trudi")
        hw_hits, hw_misses, _ = self._cache("expansions", "_h_word_schur")
        expand_calls = calls(*GROUPS["expand"])
        out = {f"{m}.self_s": self_s[m] for m in MODULES}
        out.update(
            {
                "exactalg.det_calls": calls("exactalg.det_over_ring"),
                "exactalg.det_s": group_s["det"],
                "exactalg.det_max_n": self.peaks["det_n"],
                "exactalg.scalar_mul_calls": calls("scalar_mul"),
                "exactalg.scalar_add_calls": calls("scalar_add"),
                "exactalg.peak_scalar_terms": self.peaks["scalar_terms"],
                "supersym.h_super_calls": calls("supersym.h_super"),
                "supersym.h_complete_calls": calls("supersym.h_complete"),
                "supersym.e_elem_calls": calls("supersym.e_elem"),
                "supersym.cache_hits": h_hits,
                "supersym.cache_misses": h_misses,
                "supersym.cache_hit_ratio": ratio(h_hits, h_hits + h_misses),
                "supersym.cache_entries": h_entries,
                "fock.exp_H_calls": calls("fock.apply_exp_H"),
                "fock.exp_H_s": group_s["exp_H"],
                "fock.heisenberg_calls": calls("fock.apply_heisenberg"),
                "fock.heisenberg_s": group_s["heisenberg"],
                "fock.fermion_calls": calls("fock.apply_fermion"),
                "fock.dressed_fermion_calls": calls("fock.apply_dressed_fermion"),
                "fock.bra_pair_s": group_s["bra_pair"],
                "fock.ket_s": group_s["ket"],
                "fock.peak_vector_states": self.peaks["vector_states"],
                "expansions.expand_calls": expand_calls,
                "expansions.expand_s": group_s["expand"],
                "expansions.mu_per_expand": ratio(dets_in_expand, expand_calls),
                "expansions.eval_symfunc_s": group_s["eval_symfunc"],
                "expansions.jacobi_trudi_hit_ratio": ratio(jt_hits, jt_hits + jt_misses),
                "expansions.h_word_schur_hit_ratio": ratio(hw_hits, hw_hits + hw_misses),
                "expansions.pieri_calls": calls("expansions.pieri_mult_h"),
                "expansions.hall_inner_s": group_s["hall_inner"],
                "shapes.enum_calls": calls(*GROUPS["enum"]),
                "shapes.enum_s": group_s["enum"],
                "verifications.cases": self.cases,
                "cli.run_s": group_s["run"],
                "cli.overhead_s": group_s["main"] - group_s["run"],
                "trace.spans": n,
            }
        )
        return out
