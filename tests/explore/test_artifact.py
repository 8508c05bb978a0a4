"""Artifacts replay byte-identically or say exactly why not."""

import json

import pytest

from repro.errors import ReproError
from repro.explore.artifact import (
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.explore.cases import ExploreCase, run_case


def _fresh_artifact(tmp_path):
    case = ExploreCase(scheduler="hdd", clients=6, target_commits=30)
    report = run_case(case)
    path = tmp_path / "artifact.json"
    save_artifact(str(path), report, [])
    return path


def test_round_trip_replays_byte_identically(tmp_path):
    path = _fresh_artifact(tmp_path)
    outcome = replay_artifact(load_artifact(str(path)))
    assert outcome.ok, outcome.detail


def test_tampered_schedule_digest_diverges(tmp_path):
    path = _fresh_artifact(tmp_path)
    data = json.loads(path.read_text())
    data["schedule_sha256"] = "0" * 64
    outcome = replay_artifact(data)
    assert not outcome.ok
    assert "schedule diverged" in outcome.detail


def test_recorded_violation_must_reproduce(tmp_path):
    path = _fresh_artifact(tmp_path)
    data = json.loads(path.read_text())
    # claim a violation the clean run cannot show
    data["violations"] = [
        {"kind": "serializability", "detail": "fabricated"}
    ]
    outcome = replay_artifact(data)
    assert not outcome.ok
    assert "violation did not" in outcome.detail


def test_load_rejects_non_artifacts(tmp_path):
    path = tmp_path / "not-artifact.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ReproError, match="not an explore artifact"):
        load_artifact(str(path))


def test_artifact_from_another_version_is_refused(tmp_path):
    """A case recorded before the wire was chosen from the plan carries
    a ``batch_gossip`` field and an older version: refused by name, not
    replayed under different semantics."""
    path = _fresh_artifact(tmp_path)
    data = json.loads(path.read_text())
    data["case"]["version"] = 1
    data["case"]["batch_gossip"] = True
    with pytest.raises(ReproError, match="artifact version 1"):
        replay_artifact(data)
