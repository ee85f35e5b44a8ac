"""Request/response schemas of the partition service's wire protocol.

One request shape covers the service's workload (``POST /partition``)::

    {
      "preset": "ig_icl",              # or "node": {<NodeSpec JSON>}
      "total_blocks": 1600.0,
      "strategy": "fpm",               # fpm | geometric | cpm | homogeneous | even
      "model": {                       # optional model-building knobs
        "seed": 42, "noise_sigma": 0.02, "gpu_version": 3,
        "max_blocks": 6500.0, "cpu_points": 12, "gpu_points": 16,
        "adaptive": true
      },
      "solver": {                      # optional FPM solver knobs
        "tolerance": 1e-12, "max_iters": 200
      },
      "hierarchy": {                   # optional: a cluster of identical nodes
        "nodes": 16, "aggregate_samples": 24
      },
      "drift": {                       # optional: time-varying device speed
        "spec": "throttle:GTX680:t0=2,tau=10,floor=0.5",
        "at_s": 30.0, "seed": 42
      }
    }

With a ``hierarchy`` block the service treats the platform spec as one
node of a homogeneous cluster ``nodes`` wide and answers with the
two-level solve (per-node block counts plus per-unit allocations inside
each node); ``total_blocks`` must then be a whole number and the
strategy must be ``fpm``.

With a ``drift`` block the service answers for the platform *as it is
at* ``at_s`` seconds into a run under the given time-varying speed spec
(:func:`repro.platform.drift.parse_drift_spec` grammar): each unit's
speed function is scaled by its deterministic drift multiplier before
the solve.  Drift composes with any flat strategy but not with
``hierarchy`` (the aggregate node FPM has no per-unit identity to
drift).

Validation is strict and total: malformed JSON, unknown fields (at any
nesting depth of the spec), missing/extra platform descriptions, bad
numbers and bad enum values all raise :class:`ProtocolError` carrying an
HTTP status and a structured ``{"error": {...}}`` payload — the service
maps every one to a 4xx response, never a 500.  A request that parses is
a frozen :class:`PartitionRequest` whose :meth:`~PartitionRequest.model_key`
is the content address of its FPM build (node + every model knob, hashed
with the store's canonical-JSON digest), which is exactly the key the
service coalesces concurrent builds on.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.core.solver import FPM_MAX_ITERS, FPM_TOLERANCE, SolverOptions
from repro.platform.drift import parse_drift_spec
from repro.platform.presets import cpu_only_node, ig_icl_node
from repro.platform.spec import NodeSpec
from repro.store import digest_key, node_key
from repro.util.serde import dataclass_type_hints, from_jsonable

#: Named platform presets a request may use instead of an inline spec.
PRESETS = {
    "ig_icl": ig_icl_node,
    "cpu_only": cpu_only_node,
}

#: Partitioning strategies the service accepts (``repro.api.Solver``'s,
#: plus the historical ``homogeneous`` alias of ``even``).
STRATEGIES = ("fpm", "geometric", "cpm", "homogeneous", "even")

#: Model-building knobs: name -> (expected type family, default).
_MODEL_FIELDS = {
    "seed": (int, 42),
    "noise_sigma": (float, 0.02),
    "gpu_version": (int, 3),
    "max_blocks": (float, 6500.0),
    "cpu_points": (int, 12),
    "gpu_points": (int, 16),
    "adaptive": (bool, True),
}

#: FPM solver knobs: name -> (expected type family, default).
_SOLVER_FIELDS = {
    "tolerance": (float, FPM_TOLERANCE),
    "max_iters": (int, FPM_MAX_ITERS),
}

#: Hierarchy knobs; ``nodes`` has no default — its presence in the
#: request is what switches the answer to the two-level solve.
_HIERARCHY_FIELDS = {
    "nodes": (int, None),
    "aggregate_samples": (int, 24),
}

#: Drift knobs; ``spec`` has no default — its presence in the request is
#: what switches the solve to the drifted speed functions.
_DRIFT_FIELDS = {
    "spec": (str, None),
    "at_s": (float, 0.0),
    "seed": (int, 42),
}

_TOP_FIELDS = (
    "node", "preset", "total_blocks", "strategy", "model", "solver",
    "hierarchy", "drift",
)


class ProtocolError(Exception):
    """A client error with an HTTP status and a structured payload."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def payload(self) -> dict:
        """The JSON body a 4xx response carries."""
        return {"error": {"code": self.code, "message": self.message}}


@dataclass(frozen=True)
class PartitionRequest:
    """A validated partition query: platform spec, size, strategy, knobs."""

    node: NodeSpec
    total_blocks: float
    strategy: str = "fpm"
    seed: int = 42
    noise_sigma: float = 0.02
    gpu_version: int = 3
    max_blocks: float = 6500.0
    cpu_points: int = 12
    gpu_points: int = 16
    adaptive: bool = True
    tolerance: float = FPM_TOLERANCE
    max_iters: int = FPM_MAX_ITERS
    hierarchy_nodes: int = 0  # 0 = flat (single-node) solve
    aggregate_samples: int = 24
    drift_spec: str | None = None  # None = stationary platform
    drift_at_s: float = 0.0
    drift_seed: int = 42

    def model_key(self) -> str:
        """The content address of this request's FPM build.

        Everything that shapes the *models* participates — the node and
        each model knob — while ``total_blocks`` and ``strategy`` do
        not: requests that differ only in size or algorithm share one
        build, which is what makes coalescing them worthwhile.  Computed
        once per request: canonicalising the node spec is the costly
        part, and both this key and :meth:`answer_key` need it.
        """
        return self._model_key

    @cached_property
    def _model_key(self) -> str:
        return digest_key(
            "partition",
            {
                "artifact": "service-models",
                "node": node_key(self.node),
                "seed": self.seed,
                "noise_sigma": self.noise_sigma,
                "gpu_version": self.gpu_version,
                "max_blocks": self.max_blocks,
                "cpu_points": self.cpu_points,
                "gpu_points": self.gpu_points,
                "adaptive": self.adaptive,
            },
        )

    def answer_key(self) -> str:
        """The content address of the full answer.

        Everything the solve depends on participates: the model build,
        the size and strategy, the solver knobs, and the hierarchy
        shape — requests differing in any of them must not share a
        cached answer.
        """
        return digest_key(
            "partition",
            {
                "artifact": "service-answer",
                "models": self.model_key(),
                "total_blocks": self.total_blocks,
                "strategy": self.strategy,
                "tolerance": self.tolerance,
                "max_iters": self.max_iters,
                "hierarchy_nodes": self.hierarchy_nodes,
                "aggregate_samples": self.aggregate_samples,
                "drift_spec": self.drift_spec,
                "drift_at_s": self.drift_at_s,
                "drift_seed": self.drift_seed,
            },
        )

    def solver_options(self) -> SolverOptions:
        """The validated :class:`repro.core.solver.SolverOptions`."""
        return SolverOptions(
            strategy=self.strategy,
            hierarchy=self.hierarchy_nodes > 0,
            tolerance=self.tolerance,
            max_iters=self.max_iters,
            aggregate_samples=self.aggregate_samples,
        )

    def model_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.api.build_models`."""
        return {
            "node": self.node,
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
            "gpu_version": self.gpu_version,
            "max_blocks": self.max_blocks,
            "cpu_points": self.cpu_points,
            "gpu_points": self.gpu_points,
            "adaptive": self.adaptive,
        }


def parse_partition_request(body: bytes | str) -> PartitionRequest:
    """Parse and validate a ``POST /partition`` body.

    Raises :class:`ProtocolError` (status 400) on any defect; never lets
    a malformed body escape as an uncontrolled exception.
    """
    if isinstance(body, bytes):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(400, "bad-encoding", f"body is not UTF-8: {exc}")
    try:
        data = json.loads(body or "null")
    except json.JSONDecodeError as exc:
        raise ProtocolError(400, "bad-json", f"body is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ProtocolError(
            400, "bad-json", f"request must be a JSON object, got {_kind(data)}"
        )
    unknown = sorted(set(data) - set(_TOP_FIELDS))
    if unknown:
        raise ProtocolError(
            400, "unknown-field", f"unknown request field(s): {', '.join(unknown)}"
        )

    node = _parse_node(data)
    total_blocks = _require_number(
        data, "total_blocks", minimum_exclusive=0.0
    )
    strategy = data.get("strategy", "fpm")
    if strategy not in STRATEGIES:
        raise ProtocolError(
            400,
            "bad-strategy",
            f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}",
        )
    knobs = _parse_knob_block(data.get("model", {}), "model", _MODEL_FIELDS)
    solver = _parse_knob_block(data.get("solver", {}), "solver", _SOLVER_FIELDS)
    if solver["tolerance"] <= 0.0:
        raise ProtocolError(400, "bad-solver-knob", "solver.tolerance must be > 0")
    if solver["max_iters"] < 1:
        raise ProtocolError(400, "bad-solver-knob", "solver.max_iters must be >= 1")

    hierarchy_nodes = 0
    aggregate_samples = _HIERARCHY_FIELDS["aggregate_samples"][1]
    if "hierarchy" in data:
        hier = _parse_knob_block(data["hierarchy"], "hierarchy", _HIERARCHY_FIELDS)
        if hier["nodes"] is None:
            raise ProtocolError(
                400, "bad-hierarchy-knob", "hierarchy.nodes is required"
            )
        if hier["nodes"] < 1:
            raise ProtocolError(
                400, "bad-hierarchy-knob", "hierarchy.nodes must be >= 1"
            )
        if hier["aggregate_samples"] < 1:
            raise ProtocolError(
                400, "bad-hierarchy-knob", "hierarchy.aggregate_samples must be >= 1"
            )
        if strategy != "fpm":
            raise ProtocolError(
                400,
                "bad-hierarchy-knob",
                f"hierarchical partitioning requires strategy 'fpm', "
                f"got {strategy!r}",
            )
        if total_blocks != int(total_blocks):
            raise ProtocolError(
                400,
                "bad-number",
                "total_blocks must be a whole number of blocks for "
                "hierarchical requests",
            )
        hierarchy_nodes = hier["nodes"]
        aggregate_samples = hier["aggregate_samples"]

    drift_spec = None
    drift_at_s = _DRIFT_FIELDS["at_s"][1]
    drift_seed = _DRIFT_FIELDS["seed"][1]
    if "drift" in data:
        block = _parse_knob_block(data["drift"], "drift", _DRIFT_FIELDS)
        if block["spec"] is None:
            raise ProtocolError(400, "bad-drift-knob", "drift.spec is required")
        try:
            parse_drift_spec(block["spec"])  # fail fast on bad grammar
        except ValueError as exc:
            raise ProtocolError(400, "bad-drift-knob", f"bad drift.spec: {exc}")
        if block["at_s"] < 0.0:
            raise ProtocolError(400, "bad-drift-knob", "drift.at_s must be >= 0")
        if hierarchy_nodes > 0:
            raise ProtocolError(
                400,
                "bad-drift-knob",
                "drift does not compose with hierarchical partitioning: "
                "the aggregate node FPM has no per-unit identity to drift",
            )
        drift_spec = block["spec"]
        drift_at_s = block["at_s"]
        drift_seed = block["seed"]

    try:
        return PartitionRequest(
            node=node,
            total_blocks=total_blocks,
            strategy=strategy,
            hierarchy_nodes=hierarchy_nodes,
            aggregate_samples=aggregate_samples,
            drift_spec=drift_spec,
            drift_at_s=drift_at_s,
            drift_seed=drift_seed,
            **knobs,
            **solver,
        )
    except (ValueError, TypeError) as exc:
        raise ProtocolError(400, "bad-model-knob", str(exc))


# ------------------------------------------------------------------ internals
def _kind(value: Any) -> str:
    return type(value).__name__


def _parse_node(data: dict) -> NodeSpec:
    has_node = "node" in data
    has_preset = "preset" in data
    if has_node == has_preset:
        raise ProtocolError(
            400,
            "bad-platform",
            "exactly one of 'node' (inline spec) or 'preset' is required",
        )
    if has_preset:
        preset = data["preset"]
        factory = PRESETS.get(preset)
        if factory is None:
            raise ProtocolError(
                400,
                "bad-platform",
                f"unknown preset {preset!r}; expected one of "
                f"{', '.join(sorted(PRESETS))}",
            )
        return factory()
    spec = data["node"]
    if not isinstance(spec, dict):
        raise ProtocolError(
            400, "bad-platform", f"'node' must be a JSON object, got {_kind(spec)}"
        )
    unknown = unknown_spec_fields(NodeSpec, spec)
    if unknown:
        raise ProtocolError(
            400,
            "unknown-field",
            f"unknown platform spec field(s): {', '.join(unknown)}",
        )
    try:
        return from_jsonable(NodeSpec, spec)
    except (ValueError, TypeError, KeyError) as exc:
        raise ProtocolError(400, "bad-platform", f"invalid platform spec: {exc}")


def _require_number(
    data: dict, field: str, *, minimum_exclusive: float | None = None
) -> float:
    if field not in data:
        raise ProtocolError(400, "missing-field", f"required field {field!r} missing")
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            400, "bad-number", f"{field} must be a number, got {_kind(value)}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ProtocolError(400, "bad-number", f"{field} must be finite")
    if minimum_exclusive is not None and value <= minimum_exclusive:
        raise ProtocolError(
            400, "bad-number", f"{field} must be > {minimum_exclusive:g}"
        )
    return value


def _parse_knob_block(raw: Any, block: str, fields: dict) -> dict[str, Any]:
    """Validate one optional typed-knob block (``model``/``solver``/...).

    Unknown keys are reported by dotted path (``solver.tolerence``) under
    the shared ``unknown-field`` code; type defects carry the block's own
    ``bad-<block>-knob`` code.
    """
    code = f"bad-{block}-knob"
    if not isinstance(raw, dict):
        raise ProtocolError(
            400, code, f"{block!r} must be a JSON object, got {_kind(raw)}"
        )
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ProtocolError(
            400,
            "unknown-field",
            f"unknown request field(s): "
            f"{', '.join(f'{block}.{name}' for name in unknown)}",
        )
    knobs: dict[str, Any] = {}
    for name, (family, default) in fields.items():
        if name not in raw:
            knobs[name] = default
            continue
        value = raw[name]
        if family is bool:
            if not isinstance(value, bool):
                raise ProtocolError(
                    400, code, f"{block}.{name} must be a boolean"
                )
        elif family is str:
            if not isinstance(value, str):
                raise ProtocolError(
                    400, code, f"{block}.{name} must be a string"
                )
        elif family is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(
                    400, code, f"{block}.{name} must be an integer"
                )
        else:  # float family accepts ints
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ProtocolError(
                    400, code, f"{block}.{name} must be a number"
                )
            value = float(value)
            if not math.isfinite(value):
                raise ProtocolError(
                    400, code, f"{block}.{name} must be finite"
                )
        knobs[name] = value
    return knobs


def unknown_spec_fields(cls: type, data: Any, prefix: str = "") -> list[str]:
    """Dotted paths of keys ``data`` carries that dataclass ``cls`` lacks.

    Walks the nested spec structure the way :func:`repro.util.serde`
    decodes it (dataclasses, tuples, lists, optionals), so a typo three
    levels down — ``gpus[0].gpu.peak_glfops`` — is reported instead of
    silently dropped by the lenient decoder.
    """
    if not dataclasses.is_dataclass(cls) or not isinstance(data, dict):
        return []
    hints = dataclass_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = [f"{prefix}{key}" for key in sorted(set(data) - known)]
    for field in dataclasses.fields(cls):
        if field.name not in data:
            continue
        unknown.extend(
            _unknown_in_hint(
                hints.get(field.name, Any),
                data[field.name],
                f"{prefix}{field.name}.",
            )
        )
    return unknown


def _unknown_in_hint(hint: Any, data: Any, prefix: str) -> list[str]:
    origin = typing.get_origin(hint)
    if origin is None:
        return unknown_spec_fields(hint, data, prefix)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        out: list[str] = []
        for arg in args:
            if arg is type(None):
                continue
            out.extend(_unknown_in_hint(arg, data, prefix))
        return out
    if origin in (tuple, list) and isinstance(data, (list, tuple)):
        if origin is tuple and args and args[-1] is not Ellipsis:
            pairs = list(zip(args, data))
        else:
            inner = args[0] if args else Any
            pairs = [(inner, item) for item in data]
        out = []
        for index, (inner, item) in enumerate(pairs):
            out.extend(
                _unknown_in_hint(inner, item, f"{prefix[:-1]}[{index}].")
            )
        return out
    return []
