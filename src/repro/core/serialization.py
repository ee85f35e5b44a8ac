"""JSON persistence of performance models.

FPMs are expensive to build (many reliable measurements), so like the
authors' fupermod tool the library persists them; a model built once on a
platform can drive any number of partitioning runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.cpm import ConstantPerformanceModel
from repro.core.fpm import FunctionalPerformanceModel
from repro.core.speed_function import SpeedFunction

_FORMAT_VERSION = 1


def fpm_to_dict(model: FunctionalPerformanceModel) -> dict:
    """JSON-ready representation of an FPM."""
    fn = model.speed_function
    return {
        "format": _FORMAT_VERSION,
        "type": "fpm",
        "name": model.name,
        "kernel": model.kernel_name,
        "block_size": model.block_size,
        "repetitions_total": model.repetitions_total,
        "bounded": fn.bounded,
        "samples": [
            {
                "size": x,
                "speed": s,
                **({"rel_precision": r} if not math.isnan(r) else {}),
            }
            for x, s, r in zip(
                fn.sizes.tolist(), fn.speeds.tolist(), fn.rel_precision.tolist()
            )
        ],
    }


def fpm_from_dict(data: dict) -> FunctionalPerformanceModel:
    """Inverse of :func:`fpm_to_dict` (validates the payload)."""
    if data.get("type") != "fpm":
        raise ValueError(f"not an FPM payload: type={data.get('type')!r}")
    if data.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {data.get('format')!r}; "
            f"this library reads version {_FORMAT_VERSION}"
        )
    samples = data["samples"]
    speed_function = SpeedFunction._from_columns(
        [float(s["size"]) for s in samples],
        [float(s["speed"]) for s in samples],
        [float(s.get("rel_precision", math.nan)) for s in samples],
        bool(data.get("bounded", False)),
    )
    return FunctionalPerformanceModel(
        name=str(data["name"]),
        speed_function=speed_function,
        kernel_name=str(data.get("kernel", "")),
        block_size=int(data.get("block_size", 640)),
        repetitions_total=int(data.get("repetitions_total", 0)),
    )


def cpm_to_dict(model: ConstantPerformanceModel) -> dict:
    """JSON-ready representation of a CPM."""
    payload = {
        "format": _FORMAT_VERSION,
        "type": "cpm",
        "name": model.name,
        "kernel": model.kernel_name,
        "speed": model.speed,
    }
    if not math.isnan(model.calibration_size):
        payload["calibration_size"] = model.calibration_size
    return payload


def cpm_from_dict(data: dict) -> ConstantPerformanceModel:
    """Inverse of :func:`cpm_to_dict`."""
    if data.get("type") != "cpm":
        raise ValueError(f"not a CPM payload: type={data.get('type')!r}")
    return ConstantPerformanceModel(
        name=str(data["name"]),
        speed=float(data["speed"]),
        kernel_name=str(data.get("kernel", "")),
        calibration_size=float(data.get("calibration_size", math.nan)),
    )


def save_models(path: str | Path, models: list) -> None:
    """Write a list of FPMs/CPMs to a JSON file."""
    payload = []
    for m in models:
        if isinstance(m, FunctionalPerformanceModel):
            payload.append(fpm_to_dict(m))
        elif isinstance(m, ConstantPerformanceModel):
            payload.append(cpm_to_dict(m))
        else:
            raise TypeError(f"cannot serialise {type(m).__name__}")
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_models(path: str | Path) -> list:
    """Read a list of FPMs/CPMs from a JSON file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError("model file must contain a JSON list")
    out = []
    for item in payload:
        kind = item.get("type")
        if kind == "fpm":
            out.append(fpm_from_dict(item))
        elif kind == "cpm":
            out.append(cpm_from_dict(item))
        else:
            raise ValueError(f"unknown model type {kind!r}")
    return out
