"""Canonical report serialization.

Reports must be byte-identical across runs and platforms, so JSON is
emitted by a small writer of our own: keys sorted, floats fixed at six
decimal places, no locale or dict-order dependence anywhere. It appends
a document's texts to one list, joined once.

Every trace goes through the canonical writer as one dict. A trace from
``run_scenario`` holds one message per transmission, hundreds of thousands
in a large run, so the writer builds no dict per message for it: it cuts
the text it writes for sentinel messages, at the depth where they
stand, into the fixed texts between their values, and fills those from
the (tick, block) items the strategy runners yielded, whose value types
are fixed and whose blocks repeat. Any other trace, such as one built
through the API, is written one dict per message, whatever its values.
Either way the bytes equal ``canonical_json(trace_dict(trace))``, where
``trace_dict`` is the dict view kept in the tests as the reference, and
the tests enforce it.
"""

from __future__ import annotations

from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from . import TOOL_VERSION
from .cloud import EstimationReport
from .errors import ConfigError
from .grids import GridSet, form_grids
from .simulate import (
    COST_METRICS,
    _EVENT_FIELDS,
    _MESSAGE_FIELDS,
    CostComparison,
    CostReport,
    SimulationTrace,
    _Messages,
    _entry_dicts,
)
from .topology import ScenarioConfig, _require_count, _require_type, config_payload


def _write_canonical(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for key in value:  # keys sort as the texts they are written as
            if not isinstance(key, str):
                raise TypeError(f"cannot canonicalize a dict key of type {type(key).__name__}")
        out.append("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            out.append(f'{pad}  {encode_basestring_ascii(key)}: ')
            _write_canonical(value[key], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _write_canonical(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        try:
            out.append(str(value))
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise TypeError("cannot canonicalize an int of that many digits") from None
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))  # what json.dumps writes
    elif value is None:
        out.append("null")
    elif type(value) is _Messages:  # a runner trace's messages
        _write_messages(value, out, indent)
    else:
        raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _json_float(value: float) -> str:
    return "0.000000" if value == 0 else format(value, ".6f")  # never -0.000000


def canonical_json(value) -> str:
    """Sorted keys and floats at six decimals; TypeError for a value it cannot
    write. A non-finite float is written bare (inf, -inf, nan), which is not
    JSON: runs never produce one, but answers and traces built in code can."""
    out = []
    _write_canonical(value, out, 0)
    out.append("\n")
    return "".join(out)


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
        _require_type(strategy, str, f"costs key {strategy!r}", ConfigError)
        _require_type(report, CostReport, f"costs.{strategy}", ConfigError)


def estimation_report_dict(report: EstimationReport) -> dict:
    # a result with data sets every field, one without sets none
    sections = {
        service.value: dict(vars(section)) if section.data_available else {"data_available": False}
        for service, section in report.sections.items()
    }
    return {"query_id": report.query_id, "sections": sections}


def _answered_list(answered: tuple[tuple[int, EstimationReport], ...]) -> list[dict]:
    """Answered reports as the trace and the run report write them: each
    report's dict view plus the tick it was answered at."""
    _require_type(answered, Sequence, "answered", ConfigError)
    for i, entry in enumerate(answered):
        _require_type(entry, tuple, f"answered[{i}]", ConfigError)
        if len(entry) != 2:
            raise ConfigError(f"answered[{i}]: expected a (tick, report) pair")
        _require_count(entry[0], f"answered[{i}][0]", ConfigError)
        _require_type(entry[1], EstimationReport, f"answered[{i}][1]", ConfigError)
    return [dict(estimation_report_dict(r), tick=tick) for tick, r in answered]


def serialize_trace(trace: SimulationTrace) -> str:
    """The canonical JSON of a trace: strategy, messages, compute events,
    grids (null for flat) and the answered reports with their ticks."""
    _require_type(trace, SimulationTrace, "trace", ConfigError)
    messages, events = trace.messages, trace.compute_events
    if type(messages) is not _Messages:
        messages = _entry_dicts(messages, _MESSAGE_FIELDS, "trace.messages")
    return canonical_json({
        "compute_events": _entry_dicts(events, _EVENT_FIELDS, "trace.compute_events"),
        "grids": gridset_list(trace.grid_set) if trace.grid_set is not None else None,
        "messages": messages,
        "reports": _answered_list(trace.answered),
        "strategy": trace.strategy,
    })


def _write_messages(messages: _Messages, out: list[str], indent: int) -> None:
    """Write a runner trace's messages as ``_write_canonical`` writes a
    list of their dicts at ``indent``.

    The fixed texts are the writer's own: two message dicts whose values
    are all -1 are written once per call and cut at "-1", which no key or
    padding holds, and each text before a value ends with its key. Ticks
    are ints, a message's id is its row index, names are strs and distances
    floats, so each distinct block's rows are joined once, names and
    distances in place, around their ids and ticks, and an item joins that
    with its tick and the ids its row offsets give. No rows, no messages.
    """
    layout = []
    _write_canonical([dict.fromkeys(_MESSAGE_FIELDS, -1)] * 2, layout, indent)
    parts = "".join(layout).split("-1")  # fixed texts, one message after the other
    head, *within, between = parts[: len(parts) // 2 + 1]
    keys = [text.split('"')[-2] for text in (head, *within)]

    def cut(rows) -> list[str]:
        pieces, run = [], []
        for i, row in enumerate(rows):
            values = dict(zip(_MESSAGE_FIELDS[2:], row))  # a row: a message after id and tick
            for j, key in enumerate(keys):
                run.append(within[j - 1] if j else between if i else "")
                if key in values:
                    _write_canonical(values[key], run, 0)
                else:
                    pieces.append("".join(run))
                    run = []
        pieces.append("".join(run))
        return pieces

    blocks = {}  # id(block) -> its cut rows; the items keep each block alive
    for (tick, block), end in zip(messages._items, messages._ends):
        n = len(block.rows)
        if n:
            if id(block) not in blocks:
                blocks[id(block)] = cut(block.rows)
            text = [str(tick)] * (4 * n + 1)
            text[::2] = blocks[id(block)]
            # each row's gaps hold its id, then its tick: "msg_id" sorts first
            text[1::4] = map(str, range(end - n, end))
            out.append(between if end > n else head)
            out.append("".join(text))
    out.append(parts[-1] if messages else "[]")


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
