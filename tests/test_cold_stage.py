"""cold_stage.py derives its set-up stages and linked directories from pipeline.STAGES."""

import importlib.util
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
