"""Tier-1 static-analysis gates: the repo must satisfy its own contracts.

Three gates ride the regular test suite so a contract regression fails
``pytest`` directly, not just the CI ``analysis`` job:

* the lint self-run — all four rules over ``src/repro`` with the committed
  baseline must report **zero new findings** (the committed baseline is
  empty: everything is fixed or suppressed inline with a reason);
* ``mypy`` over the strict islands (``repro.verify``, ``repro.obs``,
  ``repro.cluster.control``, ``repro.gpu.engine``, ``repro.gpu.result``) — skipped when mypy is not installed locally
  (it is CI-only, see ``requirements-ci.txt``);
* the ``EVENT_SCHEMAS`` declaration tables and the runtime
  ``strict_payloads`` validator must agree with each other.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import default_rules
from repro.analysis.baseline import DEFAULT_BASELINE, load_baseline, subtract_baseline
from repro.analysis.engine import LintEngine
from repro.verify.events import (
    ALL_KINDS,
    EVENT_SCHEMAS,
    GLOBAL_CLOCK_KINDS,
    EventRecorder,
    validate_event_payload,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------- lint self-run


@pytest.fixture(scope="module")
def self_run():
    engine = LintEngine(default_rules())
    return engine.run([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)


class TestLintSelfRun:
    def test_zero_new_findings(self, self_run):
        baseline_path = REPO_ROOT / DEFAULT_BASELINE
        baseline = load_baseline(baseline_path)
        new, _ = subtract_baseline(self_run.findings, baseline)
        rendered = "\n".join(finding.render() for finding in new)
        assert not new, f"new lint findings against the baseline:\n{rendered}"

    def test_committed_baseline_is_empty(self):
        payload = json.loads((REPO_ROOT / DEFAULT_BASELINE).read_text())
        assert payload == {"version": 1, "findings": []}

    def test_every_suppression_carries_a_reason(self, self_run):
        bare = [reason for _, reason in self_run.suppressed if reason is None]
        assert not bare  # enforced by the bare-suppression engine rule

    def test_suppressions_are_the_known_dispatch_seams(self, self_run):
        # The unchecked-emission surface stays enumerable: every suppression
        # in src/repro is one of the documented dynamic-kind dispatch seams.
        paths = sorted({finding.path for finding, _ in self_run.suppressed})
        assert paths == [
            "src/repro/obs/telemetry.py",
            "src/repro/serving/replica.py",
            "src/repro/verify/events.py",
            "src/repro/verify/stateful.py",
        ]


# ------------------------------------------------------------------ mypy gate


class TestMypyStrictIslands:
    def test_strict_islands_pass(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, f"mypy failed:\n{proc.stdout}\n{proc.stderr}"


# -------------------------------------------------------- event-schema tables


class TestEventSchemaTables:
    def test_schema_covers_exactly_all_kinds(self):
        assert set(EVENT_SCHEMAS) == set(ALL_KINDS)

    def test_all_kinds_has_no_duplicates(self):
        assert len(ALL_KINDS) == len(set(ALL_KINDS))

    def test_global_clock_kinds_are_declared(self):
        assert GLOBAL_CLOCK_KINDS <= set(ALL_KINDS)

    def test_payload_keys_never_shadow_envelope_fields(self):
        envelope = {"kind", "time", "replica_id", "request_id"}
        for kind, schema in EVENT_SCHEMAS.items():
            assert not (schema & envelope), kind


# -------------------------------------------------------- strict_payloads


class TestStrictPayloads:
    def test_declared_subset_payload_is_accepted(self):
        recorder = EventRecorder(strict_payloads=True)
        recorder.emit("arrival", time=0.0, request_id=1)
        recorder.emit("chunk_executed", time=1.0, request_id=1, tokens=8)
        assert len(recorder) == 2

    def test_unknown_kind_raises(self):
        recorder = EventRecorder(strict_payloads=True)
        with pytest.raises(ValueError, match="unknown event kind"):
            recorder.emit("not_a_kind", time=0.0)

    def test_undeclared_payload_key_raises(self):
        recorder = EventRecorder(strict_payloads=True)
        with pytest.raises(ValueError, match="bogus"):
            recorder.emit("arrival", time=0.0, request_id=1, bogus=3)

    def test_default_recorder_stays_permissive(self):
        recorder = EventRecorder()
        recorder.emit("arrival", time=0.0, request_id=1, bogus=3)
        assert recorder.events[0].data["bogus"] == 3

    def test_validator_checks_every_declared_kind(self):
        for kind, schema in EVENT_SCHEMAS.items():
            validate_event_payload(kind, {key: None for key in schema})
            with pytest.raises(ValueError):
                validate_event_payload(kind, {"definitely_undeclared_key": 1})
