import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from sensegrid import builtin_testbed, cli, dump_topology


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sensegrid", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def grid_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("grid ")]


def test_form_grids_testbed():
    result = run_cli("form-grids", "--testbed", "--threshold", "100")
    assert result.returncode == 0
    lines = grid_lines(result.stdout)
    assert len(lines) == 4
    vision = next(line for line in lines if "type=vision" in line)
    assert "coordinator=VS_3" in vision


def test_form_grids_tiny_threshold_all_singletons():
    result = run_cli("form-grids", "--testbed", "--threshold", "0.001")
    assert result.returncode == 0
    assert len(grid_lines(result.stdout)) == 16


def test_form_grids_missing_file():
    result = run_cli("form-grids", "--topology", "missing.json")
    assert result.returncode != 0
    assert "missing.json" in result.stderr


def test_form_grids_invalid_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sensors": []}')
    result = run_cli("form-grids", "--topology", str(bad))
    assert result.returncode != 0
    assert "missing field" in result.stderr


def test_form_grids_integer_too_large_for_a_float(tmp_path):
    raw = json.loads(dump_topology(builtin_testbed()))
    raw["sensors"][0]["z"] = 10**400
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(raw))
    result = run_cli("form-grids", "--topology", str(config))
    assert result.returncode == 2
    assert result.stderr.startswith("error: config.sensors[0].z: ")
    assert "Traceback" not in result.stderr


def test_run_rejects_an_infinite_threshold(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "run", "--testbed", "--strategy", "qcps", "--threshold", "inf", "--out", str(out)
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: threshold: ")
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [("compare", "--format", "json"), ("run", "--strategy", "flat"), ("run", "--strategy", "qcps")],
)
def test_overflowing_distances_exit_2_without_inf(tmp_path, command):
    # finite coordinates whose distance overflows a float are rejected before
    # any cost is priced, so no report holds a bare inf
    raw = json.loads(dump_topology(builtin_testbed()))
    for sensor in raw["sensors"]:
        if sensor["id"] in ("VS_1", "VS_2"):
            sensor["x"] = 1e300 if sensor["id"] == "VS_1" else -1e300
    config = tmp_path / "far.json"
    config.write_text(json.dumps(raw))
    result = run_cli(
        command[0], "--topology", str(config),
        "--ticks", "2", "--queries", "1", "--requests", "0", *command[1:],
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: sensors: ")
    assert "Traceback" not in result.stderr
    assert "inf" not in result.stdout


@pytest.mark.parametrize(
    "command", [("compare", "--format", "json"), ("run", "--strategy", "qcps")]
)
def test_overflowing_prices_exit_2_without_inf(tmp_path, command):
    # every distance is finite, but a unit price times the run's total is not
    raw = json.loads(dump_topology(builtin_testbed()))
    raw["cost_params"]["wireless_cost_per_unit_distance"] = 1e306
    config = tmp_path / "pricey.json"
    config.write_text(json.dumps(raw))
    result = run_cli(
        command[0], "--topology", str(config),
        "--ticks", "5", "--queries", "2", "--requests", "1", *command[1:],
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: cost_params.")
    assert "Traceback" not in result.stderr
    assert "inf" not in result.stdout and "nan" not in result.stdout


def _testbed_with_sensor_type(sensor_type):
    raw = json.loads(dump_topology(builtin_testbed()))
    raw["sensors"][0]["type"] = sensor_type
    return raw


MALFORMED_FILES = {
    "workload_queries_not_an_array": (
        ("compare", "--testbed", "--workload"), {"queries": 5}, "workload.queries: "
    ),
    "workload_service_not_a_name": (
        ("compare", "--testbed", "--workload"),
        {"queries": [{"tick": 0, "services": [{"a": 1}]}]},
        "workload.queries[0].services: ",
    ),
    "config_sensor_type_not_a_name": (
        ("form-grids", "--topology"), _testbed_with_sensor_type({}), "config.sensors[0].type: "
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_files_exit_2_without_a_traceback(tmp_path, case):
    args, payload, field = MALFORMED_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    result = run_cli(*args, str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {field}")
    assert "Traceback" not in result.stderr


UNREADABLE_FILES = {
    "config_nested_too_deeply": (("--topology",), "config is not valid JSON: "),
    "config_not_utf8": (("--topology",), "config is not valid UTF-8: "),
    "workload_nested_too_deeply": (("--testbed", "--workload"), "workload is not valid JSON: "),
    "workload_not_utf8": (("--testbed", "--workload"), "workload is not valid UTF-8: "),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_files_exit_2_without_a_traceback(tmp_path, case):
    flags, message = UNREADABLE_FILES[case]
    path = tmp_path / "input.json"
    if case.endswith("utf8"):
        path.write_bytes(b'{"queries": [], "x": "\xff"}')
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    result = run_cli("compare", *flags, str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {message}")
    assert "Traceback" not in result.stderr


REPEATED_FIELDS = {
    "config": (
        ("--topology",),
        dump_topology(builtin_testbed()).replace('"seed": ', '"seed": 1, "seed": ', 1),
        "config: repeated field 'seed'",
    ),
    "workload": (
        ("--testbed", "--workload"),
        '{"requests": [], "requests": []}',
        "workload: repeated field 'requests'",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_FIELDS))
def test_repeated_fields_exit_2_without_a_traceback(tmp_path, case):
    flags, text, message = REPEATED_FIELDS[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    result = run_cli("compare", *flags, str(path))
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"


def test_run_is_byte_identical(tmp_path):
    args = (
        "run", "--testbed", "--strategy", "qcps",
        "--ticks", "10", "--queries", "4", "--requests", "2", "--seed", "42",
    )
    first = run_cli(*args, "--out", str(tmp_path / "a.json"))
    second = run_cli(*args, "--out", str(tmp_path / "b.json"))
    assert first.returncode == second.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_run_report_shape(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "run", "--testbed", "--strategy", "flat",
        "--ticks", "5", "--queries", "2", "--requests", "1",
        "--out", str(out),
    )
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert set(report) == {"config", "grids", "costs", "reports", "version", "seed"}
    assert report["seed"] == 42
    assert len(report["grids"]) == 4
    assert report["costs"]["flat"]["cloud_op_count"] == 0
    assert report["costs"]["flat"]["node_op_count"] > 0
    assert len(report["reports"]) == 2


def test_run_empty_workload_all_zero():
    result = run_cli(
        "run", "--testbed", "--strategy", "qcps",
        "--ticks", "0", "--queries", "0", "--requests", "0",
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    costs = report["costs"]["qcps"]
    assert all(value == 0 for value in costs.values())


def test_run_csv_summary():
    result = run_cli(
        "run", "--testbed", "--strategy", "qcps",
        "--ticks", "2", "--queries", "1", "--requests", "0", "--format", "csv",
    )
    assert result.returncode == 0
    header, row = result.stdout.strip().splitlines()
    assert header.startswith("strategy,total_wireless_distance")
    assert row.startswith("qcps,")


def test_run_with_workload_file(tmp_path):
    workload = tmp_path / "workload.json"
    workload.write_text(
        json.dumps(
            {
                "queries": [{"tick": 1, "services": ["environment"]}],
                "requests": [{"tick": 1, "requester": "VS_1", "target": "ES_2"}],
            }
        )
    )
    result = run_cli(
        "run", "--testbed", "--strategy", "qcps", "--ticks", "2",
        "--workload", str(workload),
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert len(report["reports"]) == 1
    assert list(report["reports"][0]["sections"]) == ["environment"]


@pytest.mark.parametrize(
    "counts", [("--queries", "3"), ("--requests", "0"), ("--queries", "20", "--requests", "10")]
)
@pytest.mark.parametrize("command", [("compare",), ("run", "--strategy", "flat")])
def test_workload_file_cannot_be_combined_with_generated_counts(tmp_path, command, counts):
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps({"queries": [{"tick": 1, "services": ["environment"]}]}))
    args = [*command, "--testbed", "--workload", str(workload), *counts, "--format", "csv"]
    assert _main(args) == (
        2, "", "error: --workload cannot be combined with --queries or --requests\n"
    )


def test_run_with_topology_file(tmp_path):
    topo = tmp_path / "scenario.json"
    topo.write_text(dump_topology(builtin_testbed()))
    result = run_cli(
        "run", "--topology", str(topo), "--strategy", "qcps",
        "--ticks", "1", "--queries", "0", "--requests", "0",
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["costs"]["qcps"]["wireless_message_count"] == 16


def test_compare_table_marks_reductions():
    result = run_cli("compare", "--testbed")
    assert result.returncode == 0
    wireless_row = next(
        line
        for line in result.stdout.splitlines()
        if line.startswith("total_wireless_distance")
    )
    assert "Reduced" in wireless_row


def test_compare_json_delta_keys():
    result = run_cli("compare", "--testbed", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) == {"qcps", "flat", "delta"}
    assert set(payload["delta"]) == {
        "total_wireless_distance",
        "wireless_message_count",
        "infra_message_count",
        "cloud_op_count",
        "node_op_count",
        "monetized_total",
    }
    assert payload["delta"]["total_wireless_distance"] < 0


def test_compare_empty_workload_no_reductions():
    result = run_cli(
        "compare", "--testbed", "--ticks", "0", "--queries", "0", "--requests", "0"
    )
    assert result.returncode == 0
    assert "Reduced" not in result.stdout
    assert "Unchanged" in result.stdout


def test_compare_csv():
    result = run_cli("compare", "--testbed", "--ticks", "5", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "metric,qcps,flat,delta,effect"
    assert len(lines) == 7


@pytest.mark.parametrize("command", ["form-grids", "run", "compare"])
def test_topology_source_is_required(command):
    args = [command] if command != "run" else [command, "--strategy", "qcps"]
    result = run_cli(*args)
    assert result.returncode != 0


_FUZZ_INPUTS = {
    "config": json.loads(dump_topology(builtin_testbed())),
    "workload": {
        "queries": [{"tick": 1, "services": ["environment", "velocity_travel_time"]}],
        "requests": [{"tick": 2, "requester": "VS_1", "target": "ES_2"}],
    },
}
_FUZZ_COMMANDS = (
    ("form-grids",),
    ("run", "--strategy", "qcps"),
    ("run", "--strategy", "flat", "--format", "csv"),
    ("compare", "--format", "json"),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_inputs(draw):
    """The fuzz base inputs, one of them with a few values replaced, deleted
    or added somewhere in its JSON tree, and perhaps its text cut short."""
    docs = copy.deepcopy(_FUZZ_INPUTS)
    name = draw(st.sampled_from(sorted(docs)))
    for _ in range(draw(st.integers(1, 3))):
        node = docs[name]
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            action = draw(st.sampled_from(("replace", "delete", "add")))
            if action == "replace":
                node[key] = draw(_json_values)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.text(max_size=6))] = draw(_json_values)
            else:
                node.append(draw(_json_values))
            break
    texts = {key: json.dumps(doc) for key, doc in docs.items()}
    if draw(st.booleans()):
        texts[name] = texts[name][: draw(st.integers(0, len(texts[name])))]
    return draw(st.sampled_from(_FUZZ_COMMANDS)), texts


def _main(args):
    """`cli.main` run in this process: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(list(args))
    return code, stdout.getvalue(), stderr.getvalue()


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(_mutated_inputs())
def test_malformed_input_never_escapes_as_an_exception(tmp_path_factory, inputs):
    command, texts = inputs
    folder = tmp_path_factory.mktemp("fuzz")
    for name, text in texts.items():
        (folder / f"{name}.json").write_text(text, encoding="utf-8")
    args = [*command, "--topology", str(folder / "config.json")]
    if command[0] != "form-grids":
        args += ["--workload", str(folder / "workload.json"), "--ticks", "4"]
    code, stdout, stderr = _main(args)
    assert code in (0, 2), stderr
    if code == 2:
        assert stderr.startswith("error: ")
    elif command[0] != "form-grids" and "csv" not in command:
        json.loads(stdout)  # valid JSON: no bare inf or nan


def test_missing_fields_are_named_in_schema_order_under_any_hash_seed(tmp_path):
    complete = json.loads(dump_topology(builtin_testbed()))
    configs = {
        "{}": "config.sensors",
        json.dumps(dict(complete, sensors=[{}])): "config.sensors[0].id",
        json.dumps(dict(complete, cost_params={})): (
            "config.cost_params.wireless_cost_per_unit_distance"
        ),
    }
    for i, (text, field) in enumerate(configs.items()):
        path = tmp_path / f"config{i}.json"
        path.write_text(text, encoding="utf-8")
        for seed in range(4):
            result = subprocess.run(
                [sys.executable, "-m", "sensegrid", "form-grids", "--topology", str(path)],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONHASHSEED=str(seed)),
            )
            assert (result.returncode, result.stderr) == (2, f"error: {field}: missing field\n")


def test_compare_prices_sensors_whose_coordinate_sum_overflows(tmp_path):
    # the extent check passes (the diagonal is 0), and the flat gateway's
    # mean x of 1e308 is finite although the sum of the x's is not
    raw = json.loads(dump_topology(builtin_testbed()))
    raw["sensors"] = [dict(s, x=1e308) for s in raw["sensors"] if s["type"] == "speed"][:2]
    raw.pop("coordinator_overrides", None)
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(raw))
    result = run_cli(
        "compare", "--topology", str(config), "--queries", "1", "--requests", "0",
        "--format", "json",
    )
    assert result.returncode == 0, result.stderr
    costs = json.loads(result.stdout)["flat"]
    assert costs["wireless_message_count"] == 4
    assert 0 < costs["total_wireless_distance"] < 1000
