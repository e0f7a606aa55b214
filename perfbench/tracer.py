"""Opt-in span recorder wrapped around designlab's public functions.

Spans are recorded from the benchmark's own files: each traced function is
replaced by a wrapper wherever a designlab module looks it up by name (for
example ``framepot`` binds ``trace_sq`` and ``otolab`` binds
``check_unitary``), so calls from inside the package are seen too. Spans are
kept in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

from designlab import densemat, wg

# (module, function) pairs that get a span: name, start, end, parent, job id
SPANNED = {
    "cli": ("main", "emit"),
    "densemat": ("haar_unitary", "check_unitary", "pauli_to_dense"),
    "otolab": ("oto_correlator", "oto_correlator_exact", "haar_average_oto_exact"),
    "framepot": ("frame_potential_mc", "frame_potential_exact", "frame_potential_via_oto",
                 "time_averaged_frame_potential", "thermal_W"),
    "cliffordgrp": ("random_clifford", "compose", "inverse", "trace_sq"),
    "wg": ("q_inverse", "q_matrix", "weingarten"),
    "scrambling": ("oto_renyi2_check", "renyi_k_oto", "mutual_info_2", "choi_state"),
}
# hot functions: call counts only, no timing
COUNTED = {
    "cliffordgrp": ("conjugate_pauli",),
    "paulialg": ("mul", "trace_product_int", "enumerate_paulis"),
}

# the per-layer metrics a traced run reports, in output order
LAYER_METRICS = (
    "cli.main.calls", "cli.main.self_s", "cli.emit.s",
    "densemat.sample_block.s", "densemat.sample_block.draws", "densemat.haar_unitary.calls",
    "densemat.check_unitary.calls", "densemat.check_unitary.s",
    "densemat.pauli_to_dense.calls", "densemat.pauli_to_dense.s",
    "otolab.oto_correlator.calls", "otolab.oto_correlator.self_s",
    "otolab.oto_correlator_exact.calls", "otolab.oto_correlator_exact.s",
    "otolab.haar_average_oto_exact.calls", "otolab.haar_average_oto_exact.self_s",
    "framepot.frame_potential_mc.self_s", "framepot.frame_potential_exact.self_s",
    "framepot.frame_potential_via_oto.self_s", "framepot.time_averaged_frame_potential.s",
    "framepot.thermal_W.s",
    "cliffordgrp.random_clifford.calls", "cliffordgrp.random_clifford.s",
    "cliffordgrp.compose.calls", "cliffordgrp.compose.s",
    "cliffordgrp.inverse.calls", "cliffordgrp.inverse.s",
    "cliffordgrp.trace_sq.calls", "cliffordgrp.trace_sq.s",
    "cliffordgrp.conjugate_pauli.calls",
    "paulialg.mul.calls", "paulialg.trace_product_int.calls", "paulialg.enumerate_paulis.calls",
    "wg.q_inverse.s", "wg.q_inverse.hits", "wg.q_inverse.misses", "wg.q_matrix.s",
    "wg.weingarten.calls", "wg.weingarten.s",
    "scrambling.oto_renyi2_check.s", "scrambling.renyi_k_oto.s",
    "scrambling.mutual_info_2.s", "scrambling.choi_state.s",
)


class Tracer:
    """Installs wrappers on designlab, records spans and counts, and restores
    the original functions on ``uninstall``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.counts: dict[str, int] = {}
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list = []
        self._q_inverse = wg.q_inverse  # the lru_cache object, for cache_info()

    # -- recording ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _draw_counted(self, fn):
        spanned = self._spanned("densemat.sample_block", fn)
        counts = self.counts
        counts["densemat.sample_block.draws"] = 0

        @functools.wraps(fn)
        def wrapper(ens, seed, count, block=0):
            counts["densemat.sample_block.draws"] += count
            return spanned(ens, seed, count, block)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, module: str, attr: str, make):
        """Replace designlab.<module>.<attr> in every designlab namespace that
        binds it, so `from .x import f` call sites are traced as well."""
        original = getattr(sys.modules[f"designlab.{module}"], attr)
        wrapper = make(f"{module}.{attr}", original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "designlab" or name.startswith("designlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def install(self):
        for module, attrs in SPANNED.items():
            for attr in attrs:
                self._patch(module, attr, self._spanned)
        for module, attrs in COUNTED.items():
            for attr in attrs:
                self._patch(module, attr, self._counted)
        original = densemat.Ensemble.sample_block
        densemat.Ensemble.sample_block = self._draw_counted(original)
        self._restore.append((densemat.Ensemble, "sample_block", original))

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals. ``.s`` is inclusive time (outermost span of each
        name only), ``.self_s`` subtracts the direct child spans."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = dict(self.counts)
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, _ = span
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[idx]
            if not _nested_in_same(self.spans, parent, name):
                incl[name] = incl.get(name, 0.0) + (end - start)
        info = self._q_inverse.cache_info()
        out = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if metric == "wg.q_inverse.hits":
                out[metric] = info.hits
            elif metric == "wg.q_inverse.misses":
                out[metric] = info.misses
            elif metric == "densemat.sample_block.draws":
                out[metric] = self.counts.get(metric, 0)
            elif kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            else:
                out[metric] = incl.get(base, 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, job = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def _nested_in_same(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
