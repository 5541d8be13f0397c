"""cold_stage.py derives its set-up stages and linked directories from pipeline.STAGES."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from affekt import pipeline

_spec = importlib.util.spec_from_file_location(
    "cold_stage", Path(__file__).resolve().parent.parent / "cold_stage.py"
)
cold_stage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_stage)


@pytest.mark.parametrize("stage", list(pipeline.STAGES))
def test_setup_is_the_stages_before_and_links_none_the_stage_writes(stage):
    names = list(pipeline.STAGES)
    assert cold_stage.setup_stages(pipeline.STAGES, stage) == names[: names.index(stage)]
    links = cold_stage.linked_dirs(pipeline.STAGES, stage)
    for rel in pipeline.STAGES[stage].writes:
        assert rel.split("/")[0] not in links, (stage, rel)


def test_entropy_and_stream_link_the_paths_they_open_beyond_their_reads():
    assert "windows_noisy" in cold_stage.linked_dirs(pipeline.STAGES, "entropy")
    assert {"raw", "model"} <= set(cold_stage.linked_dirs(pipeline.STAGES, "stream"))


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


_OUTPUTS = {
    "reports/metrics.json": '{"task1": {"binary_accuracy": 1.0}, "time_per_batch_ms": 0.5}',
    "reports/stream_timing.json": '{"mean_proc_ms": 1.0}',
    "reports/interventions.jsonl": "",
}


def test_same_outputs_skips_only_the_stream_timing(tmp_path):
    a = _tree(tmp_path / "a", _OUTPUTS)
    b = _tree(tmp_path / "b", {**_OUTPUTS, "reports/stream_timing.json": '{"mean_proc_ms": 2.0}'})
    assert cold_stage.differing_outputs(a, b) == []


def test_same_outputs_compares_metrics_whole(tmp_path):
    # a wall-clock key such as time_per_batch_ms has no place in metrics.json,
    # so a change in its value is a change in the file
    a = _tree(tmp_path / "a", _OUTPUTS)
    b = _tree(tmp_path / "b", {**_OUTPUTS, "reports/metrics.json":
                               _OUTPUTS["reports/metrics.json"].replace("0.5", "0.7")})
    assert cold_stage.differing_outputs(a, b) == ["reports/metrics.json"]


def test_same_outputs_differ_by_a_file_in_one_tree_only(tmp_path):
    a = _tree(tmp_path / "a", _OUTPUTS)
    b = _tree(tmp_path / "b", {**_OUTPUTS, "reports/extra.json": "{}"})
    assert cold_stage.differing_outputs(a, b) == ["reports/extra.json"]
    assert cold_stage.differing_outputs(b, a) == ["reports/extra.json"]


def test_timed_keeps_the_report_the_child_prints():
    # a train pair shows each side's epochs_run, so a run that stops earlier is seen as such
    report = {"task1": {"epochs_run": 100, "best_val_loss": 0.004}}
    cmd = [sys.executable, "-c", f"import json; print(json.dumps({report!r}, indent=2))"]
    run = cold_stage.timed(cmd, dict(os.environ))
    assert run["report"] == report
    assert run["wall_s"] > 0
    assert {"user_s", "system_s", "minor_faults", "max_rss_kib"} <= set(run)
