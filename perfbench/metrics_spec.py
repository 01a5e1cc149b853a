"""Names and units of every metric the benchmark reports.

They are read from ``BENCHMARK.json`` at the repository root, the one
list of the benchmark's metrics.
"""

from __future__ import annotations

import json
from typing import Dict

from perfbench import common

_SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics of the untraced run: name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; a layer that did no work reads 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError("unknown per-layer metrics: %s" % (sorted(unknown),))
    return {name: common.metric(values.get(name, 0.0), unit)
            for name, unit in PER_LAYER.items()}


def end_to_end(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    if set(values) != set(END_TO_END):
        raise KeyError("end-to-end metrics do not match: %s"
                       % (sorted(set(values) ^ set(END_TO_END)),))
    return {name: common.metric(values[name], unit) for name, unit in END_TO_END.items()}
