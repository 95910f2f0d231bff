"""JSON export tests."""

import json

import pytest

from repro.experiments.export import (
    comparison_to_dict,
    export_all,
    fig8_to_dict,
    table3_to_dict,
)
from repro.experiments.fig8 import run_fig8
from repro.experiments.table1 import run_table1
from repro.experiments.table3 import run_table3
from tests.experiments.golden_exhibits import assert_matches, export_section

TINY = dict(cycles=1_200, warmup=200, seeds=(2010,))


def test_comparison_serializes():
    data = comparison_to_dict(run_table1(**TINY))
    assert len(data["cells"]) == 36
    assert "gss+sagm" in data["averages"]
    json.dumps(data)  # must be JSON-safe


def test_table3_serializes():
    data = table3_to_dict(run_table3(**TINY))
    assert len(data["rows"]) == 3
    json.dumps(data)


def test_fig8_serializes():
    data = fig8_to_dict(run_fig8(max_routers=1, **TINY))
    assert len(data["curves"]) == 3
    json.dumps(data)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "results.json"
    return path, export_all(path, **TINY)


def test_export_all_writes_document(exported):
    path, document = exported
    assert path.exists()
    loaded = json.loads(path.read_text())
    assert set(loaded) == {
        "table1", "table2", "table3", "table4", "table5", "fig8"
    }
    assert loaded["table4"]["noc_3x3"]["conv"] > 0
    assert document["table1"]["averages"]


def test_exported_exhibits_match_golden(exported):
    _, document = exported
    assert_matches("export", export_section(document))
