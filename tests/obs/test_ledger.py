"""The persistent run ledger and the repro-obs CLI over it."""

import json

import pytest

from repro import obs
from repro.obs.cli import main as obs_cli
from repro.obs.ledger import (
    MANIFEST_NAME,
    RunLedger,
    diff_runs,
    suspects_checksum,
)


def record_run(ledger, kind="detect", suspects=(), funnel=None, config=None):
    with ledger.record(kind, config=config, command=["test"]) as rec:
        rec.set_suspects(suspects)
        if funnel is not None:
            rec.set_funnel(funnel)
    return rec.run_id


FUNNEL_A = [
    {"stage": "reduction", "input_hosts": 40, "surviving_hosts": 20, "threshold": 0.1},
    {"stage": "theta_hm", "input_hosts": 12, "surviving_hosts": 3, "threshold": 0.8},
]
FUNNEL_B = [
    {"stage": "reduction", "input_hosts": 40, "surviving_hosts": 18, "threshold": 0.2},
    {"stage": "theta_hm", "input_hosts": 11, "surviving_hosts": 5, "threshold": 0.8},
]


class TestRecording:
    def test_manifest_round_trip(self, tmp_path, enabled_obs):
        ledger = RunLedger(tmp_path)
        with ledger.record(
            "detect", config={"vol_percentile": 50.0}, command=["test"]
        ) as rec:
            with obs.span("stage_one"):
                pass
            rec.set_suspects(["10.0.0.2", "10.0.0.1"])
            rec.set_funnel(FUNNEL_A)
        run_id = rec.run_id
        manifest = ledger.load(run_id)
        assert manifest["run_id"] == run_id
        assert manifest["status"] == "ok"
        assert manifest["error"] is None
        assert manifest["suspects"] == ["10.0.0.1", "10.0.0.2"]
        assert manifest["n_suspects"] == 2
        assert manifest["suspects_sha256"] == suspects_checksum(
            ["10.0.0.1", "10.0.0.2"]
        )
        assert manifest["funnel"] == FUNNEL_A
        assert manifest["config"] == {"vol_percentile": 50.0}
        assert manifest["environment"]["pid"] > 0
        # Spans recorded while the run was open are persisted.
        spans = ledger.load_spans(run_id)
        assert [s["name"] for s in spans] == ["stage_one"]
        assert ledger.load_metrics(run_id) is not None

    def test_failure_records_error_then_propagates(self, tmp_path, clean_obs):
        ledger = RunLedger(tmp_path)
        with pytest.raises(ValueError, match="boom"):
            with ledger.record("detect"):
                raise ValueError("boom")
        manifest = ledger.load("-1")
        assert manifest["status"] == "error"
        assert manifest["error"] == "ValueError: boom"

    def test_publication_is_atomic(self, tmp_path, clean_obs):
        """No final run directory ever lacks its manifest: the staging
        dir is renamed only after every file is written, and crashed
        staging dirs are swept on the next open."""
        ledger = RunLedger(tmp_path)
        record_run(ledger)
        for entry in tmp_path.iterdir():
            assert (entry / MANIFEST_NAME).is_file()
        # Simulate a crashed writer: a leftover staging directory.
        staging = tmp_path / ".staging-19700101T000000-dead-1"
        staging.mkdir()
        (staging / "partial.json").write_text("{")
        RunLedger(tmp_path)  # reopening sweeps it
        assert not staging.exists()
        assert len(RunLedger(tmp_path).run_ids()) == 1

    def test_same_second_runs_get_distinct_ids(self, tmp_path, clean_obs):
        ledger = RunLedger(tmp_path)
        first = record_run(ledger)
        second = record_run(ledger)
        assert first != second
        assert len(ledger.run_ids()) == 2

    def test_funnel_falls_back_to_stage_gauges(self, tmp_path, enabled_obs):
        obs.gauge(
            "repro_stage_input_hosts", "", labels=("stage",)
        ).set(9, stage="theta_churn")
        obs.gauge(
            "repro_stage_surviving_hosts", "", labels=("stage",)
        ).set(2, stage="theta_churn")
        ledger = RunLedger(tmp_path)
        with ledger.record("detect"):
            pass
        manifest = ledger.load("-1")
        assert manifest["funnel"] == [
            {"stage": "theta_churn", "input_hosts": 9.0, "surviving_hosts": 2.0}
        ]

    def test_pipeline_result_recording(self, tmp_path, clean_obs):
        from repro.detection.pipeline import find_plotters
        from tests.flows.test_parallel import random_store

        store = random_store(n_hosts=20, seed=2)
        result = find_plotters(store)
        ledger = RunLedger(tmp_path)
        with ledger.record("detect") as rec:
            rec.record_pipeline_result(result)
        manifest = ledger.load("-1")
        assert manifest["suspects"] == sorted(result.suspects)
        stages = [s["stage"] for s in manifest["funnel"]]
        assert stages == ["reduction", "theta_vol", "theta_churn", "theta_hm"]
        assert manifest["funnel"][0]["input_hosts"] == len(result.input_hosts)


class TestResolve:
    def test_prefix_index_and_errors(self, tmp_path, clean_obs):
        ledger = RunLedger(tmp_path)
        a = record_run(ledger, kind="alpha")
        b = record_run(ledger, kind="beta")
        assert ledger.resolve(a) == a
        assert ledger.resolve(b[:20]) == b
        assert ledger.resolve("-1") == ledger.run_ids()[-1]
        assert ledger.resolve("0") == ledger.run_ids()[0]
        with pytest.raises(KeyError, match="no run matches"):
            ledger.resolve("zzz")
        with pytest.raises(KeyError, match="out of range"):
            ledger.resolve("7")


class TestDiff:
    def test_diff_reports_suspect_and_funnel_deltas(self, tmp_path, clean_obs):
        ledger = RunLedger(tmp_path)
        a = record_run(
            ledger, suspects=["h1", "h2"], funnel=FUNNEL_A, config={"p": 50}
        )
        b = record_run(
            ledger, suspects=["h2", "h3"], funnel=FUNNEL_B, config={"p": 70}
        )
        delta = diff_runs(ledger.load(a), ledger.load(b))
        assert delta["suspects"] == {
            "added": ["h3"],
            "removed": ["h1"],
            "common": 1,
            "checksum_equal": False,
        }
        reduction = delta["funnel"][0]
        assert reduction["surviving_hosts"]["delta"] == -2
        assert reduction["threshold"]["delta"] == pytest.approx(0.1)
        assert delta["config_changes"] == {"p": [50, 70]}

    def test_identical_runs_checksum_equal(self, tmp_path, clean_obs):
        ledger = RunLedger(tmp_path)
        a = record_run(ledger, suspects=["h1"])
        b = record_run(ledger, suspects=["h1"])
        delta = diff_runs(ledger.load(a), ledger.load(b))
        assert delta["suspects"]["checksum_equal"] is True
        assert delta["config_changes"] == {}


class TestCli:
    @pytest.fixture
    def populated(self, tmp_path, clean_obs):
        ledger = RunLedger(tmp_path)
        a = record_run(ledger, suspects=["h1", "h2"], funnel=FUNNEL_A)
        b = record_run(ledger, suspects=["h2", "h3"], funnel=FUNNEL_B)
        return tmp_path, a, b

    def test_list(self, populated, capsys):
        root, a, b = populated
        assert obs_cli(["--ledger-dir", str(root), "list"]) == 0
        out = capsys.readouterr().out
        assert a in out and b in out

    def test_list_json(self, populated, capsys):
        root, a, b = populated
        assert obs_cli(["--ledger-dir", str(root), "--json", "list"]) == 0
        runs = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in runs] == [a, b]

    def test_show(self, populated, capsys):
        root, a, _ = populated
        assert obs_cli(["--ledger-dir", str(root), "show", a]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["suspects"] == ["h1", "h2"]

    def test_diff_text_and_json(self, populated, capsys):
        root, a, b = populated
        assert obs_cli(["--ledger-dir", str(root), "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "+ h3" in out and "- h1" in out
        assert obs_cli(["--ledger-dir", str(root), "--json", "diff", a, b]) == 0
        delta = json.loads(capsys.readouterr().out)
        assert delta["suspects"]["added"] == ["h3"]

    def test_funnel(self, populated, capsys):
        root, a, _ = populated
        assert obs_cli(["--ledger-dir", str(root), "funnel", a]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out and "theta_hm" in out

    def test_env_fallback_and_missing_dir(self, populated, monkeypatch, capsys):
        root, a, _ = populated
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(root))
        assert obs_cli(["list"]) == 0
        monkeypatch.delenv("REPRO_LEDGER_DIR")
        with pytest.raises(SystemExit):
            obs_cli(["list"])

    def test_unknown_run_is_error(self, populated, capsys):
        root, _, _ = populated
        assert obs_cli(["--ledger-dir", str(root), "show", "zzz"]) == 1
        assert "no run matches" in capsys.readouterr().err
