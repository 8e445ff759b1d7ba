"""Scenario documents: validation and execution."""

import json

import numpy as np
import pytest

from repro.sim import ScenarioError, load_scenario, run_scenario


def minimal_scenario(**overrides):
    scenario = {
        "name": "test",
        "population": {"num_chips": 1, "seed": 5},
        "config": {
            "lifetime_years": 0.5,
            "epoch_years": 0.5,
            "dark_fraction_min": 0.5,
            "window_s": 5.0,
            "seed": 3,
        },
        "policies": [{"type": "vaa"}, {"type": "hayat"}],
    }
    scenario.update(overrides)
    return scenario


class TestRunScenario:
    def test_runs_minimal(self, aging_table):
        campaign = run_scenario(minimal_scenario(), table=aging_table)
        assert campaign.policies() == ["vaa", "hayat"]
        assert len(campaign.results["hayat"]) == 1

    def test_policy_kwargs_forwarded(self, aging_table):
        scenario = minimal_scenario(
            policies=[{"type": "hayat", "comm_weight": 2.0}]
        )
        campaign = run_scenario(scenario, table=aging_table)
        assert campaign.policies() == ["hayat"]

    def test_config_defaults_when_omitted(self, aging_table):
        scenario = minimal_scenario()
        del scenario["config"]
        scenario["population"] = {"num_chips": 1, "seed": 5}
        # Default config is a full 10-year run; just validate it builds
        # the right object without running (use a policies error to
        # bail out early is fragile — instead run a tiny explicit one).
        scenario["config"] = {"lifetime_years": 0.5, "window_s": 5.0}
        campaign = run_scenario(scenario, table=aging_table)
        assert campaign.config.lifetime_years == 0.5


class TestValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            run_scenario(minimal_scenario(extra=1))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("typo_knob", 1),
            ("walk_dedup", False),
            ("segment_cache", False),
            ("approx_table_walk", 0.5),
            ("fused_window", False),
            ("batch_decision", False),
        ],
    )
    def test_unknown_config_key(self, key, value):
        scenario = minimal_scenario()
        scenario["config"][key] = value
        with pytest.raises(ScenarioError, match=key):
            run_scenario(scenario)

    def test_unknown_policy_type(self):
        with pytest.raises(ScenarioError, match="unknown policy type"):
            run_scenario(minimal_scenario(policies=[{"type": "magic"}]))

    def test_bad_policy_kwargs(self):
        with pytest.raises(ScenarioError, match="bad arguments"):
            run_scenario(
                minimal_scenario(policies=[{"type": "hayat", "nope": 1}])
            )

    def test_missing_policies(self):
        scenario = minimal_scenario()
        del scenario["policies"]
        with pytest.raises(ScenarioError, match="policies"):
            run_scenario(scenario)

    def test_duplicate_policies(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            run_scenario(
                minimal_scenario(policies=[{"type": "vaa"}, {"type": "vaa"}])
            )

    def test_bad_population_key(self):
        with pytest.raises(ScenarioError, match="population"):
            run_scenario(minimal_scenario(population={"chips": 3}))


class TestLoadScenario:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        loaded = load_scenario(str(path))
        assert loaded["name"] == "test"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(path))
