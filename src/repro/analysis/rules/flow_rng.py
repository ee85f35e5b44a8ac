"""REP101 — RNG stream discipline across the call graph.

The paper's measurement protocol repeats every benchmark until the
confidence interval closes (Section III); that only converges to the
*same* answer on rerun if every random draw comes from the seed tree in
:mod:`repro.util.rng`.  Two things break the discipline and both need
whole-project knowledge to see:

- a ``numpy.random.default_rng`` / ``Generator`` created anywhere other
  than ``repro.util.rng`` — a second seed root the protocol cannot
  replay;
- a generator object handed to work submitted to a process pool — the
  pickled copy draws an identical stream in every worker (or, for a
  thread pool, the shared stream is raced), so "independent" repetitions
  are correlated.

Diagnostics anchor at the sink: the creation call, or the submit call
the generator flows into.  Messages carry the symbol path, never line
numbers, so baseline keys survive unrelated edits.
"""

from __future__ import annotations

from repro.analysis.registry import FlowRule, register_rule

#: The one module allowed to construct numpy generators.
ALLOWED_MODULES = ("repro.util.rng",)


@register_rule
class RngFlowRule(FlowRule):
    """Generators come from ``util/rng.py`` and never cross a pool."""

    rule_id = "REP101"
    title = "rng flow: generators made outside util/rng or passed to executors"
    rationale = (
        "generators must descend from the RngStream seed tree and stay "
        "out of pool submissions; send integer seeds, not Generator objects"
    )

    def check_flow(self, flow) -> None:
        graph = flow.graph
        shared = graph.rng_globals()  # fq module-level generator names
        reported_shared: set[str] = set()

        # 1) generator values flowing into executor-submitted work
        for module, fn, submit in graph.submit_sites():
            for arg in submit.rng_args:
                worker = submit.target or "<unresolved worker>"
                flow.report(
                    self.rule_id,
                    module,
                    submit.line,
                    submit.col,
                    f"numpy Generator `{arg}` flows into executor-submitted "
                    f"work (path: {fn.qualname} -> {submit.kind} -> {worker}); "
                    "pass integer seeds from repro.util.rng.derive_seed and "
                    "construct the stream inside the worker",
                )
                if arg in shared:
                    reported_shared.add(arg)

        # 2) creation sites outside the sanctioned module.  A module-level
        # generator already reported at a submit sink is not re-reported at
        # its creation: one violation, one diagnostic.
        for module, summary in sorted(graph.modules.items()):
            if module in ALLOWED_MODULES:
                continue
            for site in summary.module_rng:
                if site.name in reported_shared:
                    continue
                flow.report(
                    self.rule_id,
                    module,
                    site.line,
                    site.col,
                    f"module-level generator `{site.name}` created via "
                    f"`{site.target}` outside repro.util.rng; derive a named "
                    "child stream from the experiment's RngStream instead",
                )
        for qualname in sorted(graph.functions):
            module = graph.fn_module[qualname]
            if module in ALLOWED_MODULES:
                continue
            for site in graph.functions[qualname].rng_sites:
                flow.report(
                    self.rule_id,
                    module,
                    site.line,
                    site.col,
                    f"generator created via `{site.target}` in `{qualname}` "
                    "outside repro.util.rng; derive a named child stream from "
                    "the experiment's RngStream instead",
                )
