"""REP006 — solver facade: partition internals stay behind ``repro.core``.

:class:`repro.core.solver.Solver` is the single partitioning entry
point; the algorithm functions (``partition_fpm`` and friends,
``partition_cpm``) are its internals.  Layers above core that import
them directly bypass strategy validation, the hierarchy plumbing and
the solver observability counters — and silently fork the API every
time the solver grows an option.  The rule is lexical: it flags the
imports themselves, inside ``repro.*`` but outside ``repro.core``.

The root ``repro/__init__`` is exempt — it re-exports the functions for
backwards compatibility, which is a declared part of the public surface
(checked by REP004), not a call site.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext
from repro.analysis.registry import Rule, register_rule

#: The solver internals every layer above core must reach through
#: :class:`repro.core.solver.Solver`.
_INTERNALS = frozenset(
    {
        "partition_fpm",
        "partition_fpm_many",
        "partition_cpm",
        # the warm-state solve/re-solve pair the online layers (recovery,
        # drift control, the service's warm chain) must reach through
        # Solver.solve/Solver.resolve
        "partition_fpm_with_state",
        "resolve_fpm",
    }
)

_ADVICE = (
    "route it through repro.core.solver.Solver — e.g. "
    "Solver(strategy='fpm').solve(models, total).allocations"
)


@register_rule
class SolverFacadeRule(Rule):
    """Partition internals may only be imported inside ``repro.core``."""

    rule_id = "REP006"
    title = "Solver facade: no direct partition_* imports outside core"
    rationale = (
        "call sites that bypass repro.core.solver.Solver skip strategy "
        "validation, hierarchy plumbing and solver metrics, and fork the "
        "API whenever the solver grows an option"
    )

    def check(self, ctx: FileContext) -> None:
        if not ctx.in_package("repro"):
            return
        if ctx.in_package("repro.core") or ctx.module == "repro":
            return  # core owns the internals; the root __init__ re-exports
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                # level > 0: a relative import inside the repro tree
                if node.level == 0 and not module.startswith("repro"):
                    continue
                for alias in node.names:
                    if alias.name in _INTERNALS:
                        ctx.report(
                            self.rule_id,
                            node,
                            f"direct import of solver internal "
                            f"`{alias.name}` outside repro.core; {_ADVICE}",
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.core.partition":
                        ctx.report(
                            self.rule_id,
                            node,
                            "direct import of the repro.core.partition "
                            f"module outside repro.core; {_ADVICE}",
                        )
