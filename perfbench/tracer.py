"""Timing wrappers installed around fickit's public functions.

The tracer lives in the benchmark, not in fickit: it replaces each
traced name in every fickit module namespace that imported it, and
wraps the callables stored in ``FittedModel`` and ``ModelFamily`` as
they are constructed. Hot functions are aggregated in memory (calls,
total and self time); full spans are kept only at the coarse
boundaries, so the landscape's ~5M hot calls stay affordable.

Self time is a call's duration minus the time covered by traced calls
it made. A name a later fickit no longer has is skipped and reports 0.
"""

from __future__ import annotations

import inspect
import sys
import time

# Per-layer metrics of the traced run, with units; the parent adds
# ``trace.overhead_frac`` from the paired untraced job.
LAYER_METRICS = {
    "core.replicate_rng.calls": "count",
    "core.replicate_rng.self_s": "s",
    "core.replicate_rng.distinct_frac": "ratio",
    "core.Dataset.calls": "count",
    "core.Dataset.self_s": "s",
    "core.shannon_information.calls": "count",
    "core.shannon_information.self_s": "s",
    "core.MonteCarloEstimate.from_values.calls": "count",
    "core.MonteCarloEstimate.from_values.self_s": "s",
    "models.log_density.calls": "count",
    "models.log_density.self_s": "s",
    "models.fit.calls": "count",
    "models.fit.self_s": "s",
    "models.fourier_transform.calls": "count",
    "models.fourier_transform.self_s": "s",
    "models.inverse_fourier_transform.calls": "count",
    "models.inverse_fourier_transform.self_s": "s",
    "models.greedy_selection.calls": "count",
    "models.greedy_selection.self_s": "s",
    "models.sampler.calls": "count",
    "models.sampler.self_s": "s",
    "models.model_at.calls": "count",
    "models.model_at.self_s": "s",
    "criteria.fic_complexity.calls": "count",
    "criteria.fic_complexity.self_s": "s",
    "criteria.fic_complexity.total_s": "s",
    "criteria.true_complexity_mc.calls": "count",
    "criteria.true_complexity_mc.self_s": "s",
    "criteria.true_complexity_mc.total_s": "s",
    "criteria.replicates": "count",
    "analytic.information_landscape.calls": "count",
    "analytic.information_landscape.self_s": "s",
    "analytic.information_landscape.cells": "count",
    "analytic.information_landscape.invalid_cells": "count",
    "analytic.max_chi2_mc.calls": "count",
    "analytic.max_chi2_mc.self_s": "s",
    "analytic.max_chi2_mc.draws": "count",
    "analytic.max_chi2_mc.bytes_computed": "bytes",
    "cli.cmd.total_s": "s",
    "cli.cmd.self_s": "s",
    "cli.write_csv.calls": "count",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.stats = {}            # name -> [calls, total_s, self_s]
        self.counters = {}         # name -> count
        self.spans = []            # coarse spans: id, parent, name, start, end
        self.streams = set()       # distinct (seed, replicate) RNG streams
        self._child = [0.0]        # traced time covered by each open call
        self._open_spans = [None]

    def wrap(self, name, fn, span=False, observe=None):
        """Return ``fn`` timed under ``name``.

        ``observe(arguments, result)`` updates counters after a call;
        ``span`` keeps a full span record of every call.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child, clock = self._child, time.perf_counter
        spans, open_spans = self.spans, self._open_spans
        signature = inspect.signature(fn) if observe is not None else None

        def timed(*args, **kwargs):
            if span:
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if span:
                    open_spans.pop()
                    spans[sid] = {"id": sid, "parent": open_spans[-1],
                                  "name": name, "start": t0, "end": t1}
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result
        return timed

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation -----------------------------------------------------

    def patch(self, module, attr, name, **kwargs):
        """Replace ``module.attr`` in every fickit namespace holding it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        timed = self.wrap(name, original, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fickit" or mod_name.startswith("fickit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, timed)

    def wrap_fields(self, cls, fields):
        """Time the callables named in ``fields`` on every instance of
        the (frozen) dataclass ``cls`` built from now on."""
        init = cls.__init__
        wrap = self.wrap

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for field, name in fields.items():
                fn = getattr(obj, field, None)
                if callable(fn):
                    object.__setattr__(obj, field, wrap(name, fn))
        cls.__init__ = traced_init

    def install(self, fickit):
        """Install every wrapper; ``fickit`` is the imported package with
        its ``core``, ``models``, ``criteria``, ``analytic`` and ``cli``."""
        core, models = fickit.core, fickit.models
        criteria, analytic, cli = fickit.criteria, fickit.analytic, fickit.cli

        def rng_stream(args, _):
            self.streams.add((int(args["seed"]), int(args["replicate"])))

        def replicates(_, estimate):
            self.count("criteria.replicates", estimate.replicates)

        def landscape(_, grid):
            self.count("analytic.information_landscape.cells",
                       int(grid.d_surface.size))
            self.count("analytic.information_landscape.invalid_cells",
                       int(grid.invalid.sum()))

        def chi2(args, estimate):
            draws = int(args["m"]) * int(estimate.replicates)
            self.count("analytic.max_chi2_mc.draws", draws)
            self.count("analytic.max_chi2_mc.bytes_computed", 8 * draws)

        def csv_bytes(_, path):
            self.count("cli.write_csv.bytes", path.stat().st_size)

        self.patch(core, "replicate_rng", "core.replicate_rng",
                   observe=rng_stream)
        self.patch(core, "shannon_information", "core.shannon_information")
        for attr in ("fourier_transform", "inverse_fourier_transform",
                     "greedy_selection"):
            self.patch(models, attr, f"models.{attr}")
        self.patch(criteria, "fic_complexity", "criteria.fic_complexity",
                   span=True, observe=replicates)
        self.patch(criteria, "true_complexity_mc",
                   "criteria.true_complexity_mc", span=True,
                   observe=replicates)
        self.patch(analytic, "information_landscape",
                   "analytic.information_landscape", span=True,
                   observe=landscape)
        self.patch(analytic, "max_chi2_mc", "analytic.max_chi2_mc",
                   span=True, observe=chi2)
        self.patch(cli, "write_csv", "cli.write_csv", observe=csv_bytes)

        core.Dataset.__post_init__ = self.wrap(
            "core.Dataset", core.Dataset.__post_init__)
        from_values = core.MonteCarloEstimate.__dict__["from_values"]
        core.MonteCarloEstimate.from_values = classmethod(self.wrap(
            "core.MonteCarloEstimate.from_values", from_values.__func__))
        self.wrap_fields(core.FittedModel,
                         {"log_density": "models.log_density",
                          "sampler": "models.sampler"})
        self.wrap_fields(models.ModelFamily,
                         {"fit": "models.fit", "model_at": "models.model_at"})

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead_frac``."""
        out = {}
        for name in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if layer in self.stats:
                calls, total, self_s = self.stats[layer]
                value = {"calls": calls, "total_s": total,
                         "self_s": self_s}.get(kind)
                if value is not None:
                    out[name] = value
                    continue
            out[name] = self.counters.get(name, 0)
        calls = self.stats.get("core.replicate_rng", [0])[0]
        out["core.replicate_rng.distinct_frac"] = (
            len(self.streams) / calls if calls else 0.0)
        out.pop("trace.overhead_frac")
        return out
