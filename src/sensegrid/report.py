"""Canonical report serialization.

Reports must be byte-identical across runs and platforms, so JSON is
emitted by a small writer of our own: keys sorted, floats fixed at six
decimal places, no locale or dict-order dependence anywhere.

Every trace goes through the canonical writer as one dict. A trace from
``run_scenario`` holds one message per transmission, hundreds of thousands
in a large run, so the writer builds no dict per message for it: it fills
the messages from the (tick, block) items the strategy runners yielded,
whose value types are fixed and whose blocks repeat. Each distinct block
becomes one template with every name and distance already in place, and
each item fills it with its message ids and tick, building no ``Message``.
Any other trace, such as one built through the API, is written one dict
per message, whatever its values. Either way the bytes equal
``canonical_json(trace_dict(trace))``, where ``trace_dict`` is the dict
view kept in the tests as the reference, and the tests enforce it.
"""

from __future__ import annotations

import io
import json
from collections.abc import Sequence
from dataclasses import fields

from .cloud import EstimationReport
from .errors import ConfigError
from .grids import GridSet, form_grids
from .simulate import (
    COST_METRICS,
    ComputeEvent,
    CostComparison,
    CostReport,
    Message,
    SimulationTrace,
    _Messages,
)
from .topology import ScenarioConfig, _require_type, config_payload

TOOL_VERSION = "0.1.0"


def _write_canonical(value, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        out.write("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            out.write(f'{pad}  {json.dumps(str(key))}: ')
            _write_canonical(value[key], out, indent + 1)
            out.write(",\n" if i < len(keys) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.write("[]")
            return
        out.write("[\n")
        for i, item in enumerate(value):
            out.write(pad + "  ")
            _write_canonical(item, out, indent + 1)
            out.write(",\n" if i < len(value) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(value, bool):
        out.write("true" if value else "false")
    elif isinstance(value, int):
        out.write(str(value))
    elif isinstance(value, float):
        out.write(_json_float(value))
    elif isinstance(value, str):
        out.write(json.dumps(value))
    elif value is None:
        out.write("null")
    elif type(value) is _Messages:
        # a runner trace's messages; the row templates are indented for
        # depth 1, where a trace's "messages" stands
        if not value:
            out.write("[]")
            return
        out.write("[\n")
        for i, text in enumerate(_block_texts(value._items)):
            if i:
                out.write(",\n")
            out.write(text)
        out.write("\n" + pad + "]")
    else:
        raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _json_float(value: float) -> str:
    return "0.000000" if value == 0 else format(value, ".6f")  # never -0.000000


def canonical_json(value) -> str:
    out = io.StringIO()
    _write_canonical(value, out, 0)
    out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Dict views of the domain types
# ---------------------------------------------------------------------------

def gridset_list(grids: GridSet) -> list[dict]:
    return [
        {
            "grid_id": g.grid_id,
            "type": g.sensor_type.value,
            "members": list(g.members),
            "coordinator": g.coordinator,
            "election": g.election,
        }
        for g in grids.grids
    ]


def cost_dict(report: CostReport) -> dict:
    return {metric: getattr(report, metric) for metric in COST_METRICS}


def _require_costs(costs: dict[str, CostReport]) -> None:
    _require_type(costs, dict, "costs", ConfigError)
    for strategy, report in costs.items():
        _require_type(report, CostReport, f"costs.{strategy}", ConfigError)


def estimation_report_dict(report: EstimationReport) -> dict:
    sections = {}
    for service, section in report.sections.items():
        entry = {"data_available": section.data_available}
        if section.data_available:
            for name, value in vars(section).items():
                if name != "data_available" and value is not None:
                    entry[name] = value
        sections[service.value] = entry
    return {"query_id": report.query_id, "sections": sections}


def _answered_list(answered: tuple[tuple[int, EstimationReport], ...]) -> list[dict]:
    """Answered reports as the trace and the run report write them: each
    report's dict view plus the tick it was answered at."""
    _require_type(answered, Sequence, "answered", ConfigError)
    for i, entry in enumerate(answered):
        _require_type(entry, tuple, f"answered[{i}]", ConfigError)
        if len(entry) != 2:
            raise ConfigError(f"answered[{i}]: expected a (tick, report) pair")
        _require_type(entry[1], EstimationReport, f"answered[{i}][1]", ConfigError)
    return [dict(estimation_report_dict(r), tick=tick) for tick, r in answered]


# The keys of an API-built trace's messages and of any trace's compute
# events; their values are read by name, so any object with them will do.
_MESSAGE_FIELDS = tuple(f.name for f in fields(Message))
_EVENT_FIELDS = tuple(f.name for f in fields(ComputeEvent))

# One message as ``_write_canonical`` writes it inside the trace's message
# list (depth 2): keys sorted, one value per slot.
_MESSAGE_ROW = (
    "    {\n"
    '      "dst": %s,\n'
    '      "medium": %s,\n'
    '      "msg_id": %s,\n'
    '      "purpose": %s,\n'
    '      "src": %s,\n'
    '      "tick": %s,\n'
    '      "wireless_distance": %s\n'
    "    }"
)


def serialize_trace(trace: SimulationTrace) -> str:
    """The canonical JSON of a trace: strategy, messages, compute events,
    grids (null for flat) and the answered reports with their ticks."""
    messages = trace.messages
    if type(messages) is not _Messages:
        messages = [{k: getattr(m, k) for k in _MESSAGE_FIELDS} for m in messages]
    return canonical_json({
        "compute_events": [
            {k: getattr(e, k) for k in _EVENT_FIELDS} for e in trace.compute_events
        ],
        "grids": gridset_list(trace.grid_set) if trace.grid_set is not None else None,
        "messages": messages,
        "reports": _answered_list(trace.answered),
        "strategy": trace.strategy,
    })


class _TemplateTexts(dict):
    """The JSON text of each name (a str) or distance (a float), made once,
    with `%` doubled to stand literally in a template."""

    def __missing__(self, value) -> str:
        text = json.dumps(value) if isinstance(value, str) else _json_float(value)
        text = self[value] = text.replace("%", "%%")
        return text


def _block_texts(items):
    """The message rows of a runner trace, one text per non-empty item.

    Their value types are fixed: ticks are ints, a message's id is its row
    index, names are strs and distances floats. So each distinct block is
    formatted once per call into a template of its rows, with a `%s` slot
    for each row's id and tick, and an item fills it with interleaved
    (id, tick) arguments.
    """
    text = _TemplateTexts()
    templates = {}  # id(block) -> template; the items keep each block alive
    msg_id = 0
    for tick, block in items:
        n = len(block.rows)
        if not n:
            continue
        template = templates.get(id(block))
        if template is None:
            template = templates[id(block)] = ",\n".join(
                _MESSAGE_ROW
                % (text[dst], text[medium], "%s", text[purpose], text[src], "%s", text[dist])
                for src, dst, medium, purpose, dist in block.rows
            )
        args = [tick] * (2 * n)
        args[::2] = range(msg_id, msg_id + n)
        yield template % tuple(args)
        msg_id += n


def build_run_report(
    cfg: ScenarioConfig,
    grids: GridSet | None,
    costs: dict[str, CostReport],
    answered: tuple[tuple[int, EstimationReport], ...],
) -> dict:
    _require_type(cfg, ScenarioConfig, "cfg", ConfigError)
    _require_costs(costs)
    if grids is None:  # a flat run forms no grids, but its report lists them
        grids = form_grids(cfg.sensors, cfg.threshold, cfg.coordinator_overrides)
    _require_type(grids, GridSet, "grids", ConfigError)
    return {
        "config": config_payload(cfg),
        "grids": gridset_list(grids),
        "costs": {strategy: cost_dict(r) for strategy, r in costs.items()},
        "reports": _answered_list(answered),
        "version": TOOL_VERSION,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# CSV and table renderings
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return _json_float(value) if isinstance(value, float) else str(value)


def cost_csv(costs: dict[str, CostReport]) -> str:
    _require_costs(costs)
    lines = ["strategy," + ",".join(COST_METRICS)]
    for strategy in sorted(costs):
        report = costs[strategy]
        lines.append(
            strategy + "," + ",".join(_fmt(getattr(report, m)) for m in COST_METRICS)
        )
    return "\n".join(lines) + "\n"


def comparison_dict(comparison: CostComparison) -> dict:
    _require_type(comparison, CostComparison, "comparison", ConfigError)
    return {
        "qcps": cost_dict(comparison.qcps),
        "flat": cost_dict(comparison.flat),
        "delta": dict(comparison.delta),
    }


def _effect(delta: float) -> str:
    """What the grid strategy did to a metric, from its qcps-minus-flat delta."""
    return "Reduced" if delta < 0 else ("Increased" if delta > 0 else "Unchanged")


def _comparison_rows(comparison: CostComparison):
    """The header, then one (metric, qcps, flat, delta, effect) row per metric."""
    _require_type(comparison, CostComparison, "comparison", ConfigError)
    yield "metric", "qcps", "flat", "delta", "effect"
    for metric in COST_METRICS:
        delta = comparison.delta[metric]
        yield (
            metric,
            _fmt(getattr(comparison.qcps, metric)),
            _fmt(getattr(comparison.flat, metric)),
            _fmt(delta),
            _effect(delta),
        )


def comparison_csv(comparison: CostComparison) -> str:
    return "".join(",".join(row) + "\n" for row in _comparison_rows(comparison))


def comparison_table(comparison: CostComparison) -> str:
    width = max(len(m) for m in COST_METRICS)
    return "".join(
        f"{metric:<{width}}  {qcps:>18}  {flat:>18}  {delta:>18}  {effect}\n"
        for metric, qcps, flat, delta, effect in _comparison_rows(comparison)
    )
