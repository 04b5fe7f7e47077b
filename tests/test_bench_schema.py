"""Where the legacy benches write: ``benchmarks/_schema.write_bench``.

A bench run records the host it ran on, so its ``BENCH_<bench>.json`` is
an artifact under the git-ignored ``benchmarks/out/``, never a committed
file the run rewrites.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def schema():
    spec = importlib.util.spec_from_file_location(
        "bench_schema", ROOT / "benchmarks" / "_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_dir_is_git_ignored(schema):
    assert schema.OUT_DIR == ROOT / "benchmarks" / "out"
    ignored = (ROOT / ".gitignore").read_text().splitlines()
    assert "benchmarks/out/" in ignored


def test_write_bench_wraps_results_under_out_dir(schema, monkeypatch, tmp_path):
    monkeypatch.setattr(schema, "OUT_DIR", tmp_path / "out")
    path = schema.write_bench("demo", {"fraction": 0.05})
    assert path == tmp_path / "out" / "BENCH_demo.json"
    payload = json.loads(path.read_text())
    assert payload["bench"] == "demo"
    assert payload["schema_version"] == schema.SCHEMA_VERSION
    assert set(payload["host"]) == {"platform", "python", "cpus"}
    assert payload["results"] == {"fraction": 0.05}
