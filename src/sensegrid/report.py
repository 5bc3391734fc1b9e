"""Canonical report serialization.

Reports must be byte-identical across runs and platforms, so JSON is
emitted by a small writer of our own: keys sorted, floats fixed at six
decimal places, no locale or dict-order dependence anywhere.

A trace holds one message per transmission, hundreds of thousands in a
large run, so ``serialize_trace`` does not build a dict per message for the
recursive writer: it writes the top-level object itself and each message as
one row from a fixed template. A trace from ``run_scenario`` keeps the
(tick, block) items the strategy runners yielded, whose value types are
fixed and whose blocks repeat, so each distinct block becomes one template
with every name and distance already in place, and each item fills it with
its message ids and tick, building no ``Message``. The general path serves
any other sequence of ``Message``, such as a trace built through the API:
exact-type fast paths for str, int and float and the recursive writer for
any other value. Either way the bytes equal
``canonical_json(trace_dict(trace))``, where ``trace_dict`` is the dict view
kept in the tests as the reference, and the tests enforce it.
"""

from __future__ import annotations

import io
import json
from itertools import islice

from .cloud import EstimationReport
from .grids import GridSet
from .simulate import (
    COST_METRICS,
    CostComparison,
    CostReport,
    SimulationTrace,
    _Messages,
)
from .topology import ScenarioConfig, config_payload

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
    return [dict(estimation_report_dict(r), tick=tick) for tick, r in answered]


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
_ROWS_PER_CHUNK = 4096  # rows joined at a time, so no second full copy exists


def serialize_trace(trace: SimulationTrace) -> str:
    """The canonical JSON of a trace: strategy, messages, compute events,
    grids (null for flat) and the answered reports with their ticks."""
    out = io.StringIO()
    out.write('{\n  "compute_events": ')
    _write_canonical(
        [
            {"tick": e.tick, "site": e.site, "op_count": e.op_count}
            for e in trace.compute_events
        ],
        out,
        1,
    )
    out.write(',\n  "grids": ')
    grids = gridset_list(trace.grid_set) if trace.grid_set is not None else None
    _write_canonical(grids, out, 1)
    out.write(',\n  "messages": ')
    messages = trace.messages
    if messages:
        if type(messages) is _Messages:
            texts = _block_texts(messages._items)
        else:
            rows = _message_rows(messages)
            texts = iter(lambda: ",\n".join(islice(rows, _ROWS_PER_CHUNK)), "")
        out.write("[\n")
        for i, text in enumerate(texts):
            if i:
                out.write(",\n")
            out.write(text)
        out.write("\n  ]")
    else:
        out.write("[]")
    out.write(',\n  "reports": ')
    _write_canonical(_answered_list(trace.answered), out, 1)
    out.write(',\n  "strategy": ')
    _write_canonical(trace.strategy, out, 1)
    out.write("\n}\n")
    return out.getvalue()


class _JsonTexts(dict):
    """The JSON text of each name (a str) or distance (a float), made once."""

    def __missing__(self, value) -> str:
        text = self[value] = json.dumps(value) if isinstance(value, str) else _json_float(value)
        return text


class _TemplateTexts(_JsonTexts):
    """The same texts with `%` doubled, to stand literally in a template."""

    def __missing__(self, value) -> str:
        text = self[value] = super().__missing__(value).replace("%", "%%")
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


def _message_rows(messages):
    """The message rows of any sequence of `Message`, whatever its values:
    exact str, int and float take fast paths and the rest (bools, str
    subclasses, nested values) the recursive writer at the row's depth."""
    names = _JsonTexts()

    def _scalar(value) -> str:
        kind = type(value)
        if kind is str:
            return names[value]
        if kind is int:
            return str(value)
        if kind is float:
            return _json_float(value)
        nested = io.StringIO()
        _write_canonical(value, nested, 3)
        return nested.getvalue()

    for m in messages:
        yield _MESSAGE_ROW % (
            _scalar(m.dst),
            _scalar(m.medium),
            _scalar(m.msg_id),
            _scalar(m.purpose),
            _scalar(m.src),
            _scalar(m.tick),
            _scalar(m.wireless_distance),
        )


def build_run_report(
    cfg: ScenarioConfig,
    grids: GridSet,
    costs: dict[str, CostReport],
    answered: tuple[tuple[int, EstimationReport], ...],
) -> dict:
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6f")
    return str(value)


def cost_csv(costs: dict[str, CostReport]) -> str:
    lines = ["strategy," + ",".join(COST_METRICS)]
    for strategy in sorted(costs):
        report = costs[strategy]
        lines.append(
            strategy + "," + ",".join(_fmt(getattr(report, m)) for m in COST_METRICS)
        )
    return "\n".join(lines) + "\n"


def comparison_dict(comparison: CostComparison) -> dict:
    return {
        "qcps": cost_dict(comparison.qcps),
        "flat": cost_dict(comparison.flat),
        "delta": dict(comparison.delta),
    }


def _effect(delta: float) -> str:
    """What the grid strategy did to a metric, from its qcps-minus-flat delta."""
    return "Reduced" if delta < 0 else ("Increased" if delta > 0 else "Unchanged")


def comparison_csv(comparison: CostComparison) -> str:
    lines = ["metric,qcps,flat,delta,effect"]
    for metric in COST_METRICS:
        delta = comparison.delta[metric]
        lines.append(
            ",".join(
                [
                    metric,
                    _fmt(getattr(comparison.qcps, metric)),
                    _fmt(getattr(comparison.flat, metric)),
                    _fmt(delta),
                    _effect(delta),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def comparison_table(comparison: CostComparison) -> str:
    width = max(len(m) for m in COST_METRICS)
    lines = [
        f"{'metric':<{width}}  {'qcps':>18}  {'flat':>18}  {'delta':>18}  effect"
    ]
    for metric in COST_METRICS:
        delta = comparison.delta[metric]
        lines.append(
            f"{metric:<{width}}  "
            f"{_fmt(getattr(comparison.qcps, metric)):>18}  "
            f"{_fmt(getattr(comparison.flat, metric)):>18}  "
            f"{_fmt(delta):>18}  {_effect(delta)}"
        )
    return "\n".join(lines) + "\n"
