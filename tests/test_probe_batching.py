"""Round-batched probing and the off-grid planner.

Three layers, one contract — batching is an optimization, never a
semantic:

* the search driver's ``prefetch`` hook is verdict-neutral: speculative
  candidate sets never change the returned boundary or probe count
  (hypothesis pins this over arbitrary predicates);
* :class:`~repro.experiments.plan.ProbePlan` drains declared specs
  through the batch engine with results identical to the serial engine,
  falling back whole-group on engine rejection;
* the E10–E13 experiment tables are render-equal between a
  serial-pinned pass and the auto-batched planner pass — the
  ``bit_identical`` gate CI's probe-batching smoke enforces.

Plus the spec ledger: every commit records its RunSpec, so
``resolve_cache_key`` (and ``adassure explain <key>``) reverse-maps grid,
E10–E14 and probe entries from the ledger alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.counterfactual import (
    bisect_intensity,
    ddmin_interval,
    ddmin_subset,
    run_search,
)
from repro.experiments.runner import choose_sim_engine, clear_cache
from repro.experiments.spec import RunSpec
from repro.experiments.stats import STATS


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path))
    clear_cache()
    yield
    clear_cache()


# ---------------------------------------------------------------------------
# Speculation is verdict-neutral (property over arbitrary predicates)
# ---------------------------------------------------------------------------

class TestPrefetchNeutrality:
    """The driver's prefetch hook observes candidates; it must never
    steer: a recording prefetch leaves results and probe counts
    identical — and sees every probe before its verdict is asked."""

    @staticmethod
    def _both(make_search, violates, budget=10_000):
        issued = set()

        def offered_first(candidate):
            assert candidate in issued, "probed before it was offered"
            return violates(candidate)

        plain = run_search(make_search, violates, budget)
        probed = run_search(make_search, offered_first, budget,
                            prefetch=issued.update)
        return plain, probed

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 48), bad=st.sets(st.integers(0, 47)),
           budget=st.integers(1, 64))
    def test_interval_boundary_unchanged(self, n, bad, budget):
        def violates(window):
            lo, hi = window
            return any(lo <= b < hi for b in bad)

        plain, probed = self._both(lambda: ddmin_interval(n), violates,
                                   budget)
        assert plain == probed  # (lo, hi), probes, exhausted

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 8), data=st.data())
    def test_subset_boundary_unchanged(self, k, data):
        items = tuple(range(k))
        needed = data.draw(st.sets(st.sampled_from(items)))

        def violates(subset):
            return needed <= set(subset)

        plain, probed = self._both(lambda: ddmin_subset(items), violates)
        assert plain == probed  # kept, probes, exhausted

    @settings(max_examples=200, deadline=None)
    @given(hi=st.floats(0.25, 64.0, allow_nan=False),
           frac=st.floats(0.0, 1.0, allow_nan=False))
    def test_intensity_boundary_unchanged(self, hi, frac):
        threshold = hi * frac

        def violates(x):
            return x >= threshold

        plain, probed = self._both(lambda: bisect_intensity(hi), violates)
        assert plain == probed  # (minimal, lower), probes, exhausted


class TestSpeculativeAccounting:
    """Issued/wasted bookkeeping on the live probe engine."""

    def test_wasted_is_issued_minus_consumed(self, fresh_cache):
        from repro.experiments.counterfactual import (
            Intervention,
            ProbeEngine,
            Subject,
        )
        subject = Subject(scenario="straight", controller="pure_pursuit",
                          seed=1, duration=8.0)
        engine = ProbeEngine(subject, sim_engine="batch")
        original = Intervention.from_labels("gps_bias", onset=2.0)
        fleet = [original.with_intensity(v) for v in (0.25, 0.5, 0.75)]
        issued = engine.prefetch(fleet)
        assert issued == 3
        assert engine.stats.speculative_issued == 3
        assert engine.stats.speculative_wasted == 3

        engine.outcome(fleet[0])
        engine.outcome(fleet[2])
        # 3 issued - 2 consumed = 1 speculative lane wasted.
        assert engine.stats.speculative_wasted == 1
        assert len(engine._speculative) == 1
        # Consumed lanes were cache hits, not fresh simulations.
        assert engine.stats.memo_hits == 2
        assert engine.stats.executed == 3  # the batched fleet itself

    def test_cached_grid_point_is_not_a_warm_explanation(self, fresh_cache):
        # An unedited probe IS the grid point, so a campaign caches the
        # explanation's baseline; that alone must not switch speculation
        # off — only a previous explanation's probes do.
        from repro.experiments.counterfactual import explain
        from repro.experiments.runner import run_grid
        subject = dict(scenario="straight", controller="pure_pursuit",
                       attack="gps_bias", seed=1, onset=2.0, duration=8.0,
                       resolution=2.0, sim_engine="batch")
        run_grid(("straight",), ("pure_pursuit",), ("none", "gps_bias"),
                 (1,), onset=2.0, duration=8.0)
        first = explain(**subject)
        assert STATS.last.speculative_issued > 0
        again = explain(**subject)
        assert STATS.last.speculative_issued == 0
        assert STATS.last.executed == 0
        assert again.render() == first.render()

    @pytest.mark.parametrize("resolution,budget", [
        (0.5, 4),  # exhausted inside the window search
        (2.0, 5),  # exhausted inside the magnitude search
    ])
    def test_axis_probes_sum_to_report_probes_when_exhausted(
            self, fresh_cache, resolution, budget):
        # A search whose budget runs out counts only the probes it ran:
        # baseline + clean run + per-axis probes (+ no tail probes, the
        # budget being spent) add up to the explanation's total.
        from repro.experiments.counterfactual import explain
        report = explain("straight", "pure_pursuit", attack="gps_bias",
                         seed=1, onset=2.0, duration=8.0,
                         resolution=resolution, budget=budget,
                         sim_engine="serial")
        assert report.necessary and report.budget_exhausted
        axes = [s for s in (report.window, report.channels,
                            report.magnitude) if s is not None]
        assert (not report.window.minimal
                or report.magnitude.exhausted)
        assert 2 + sum(s.probes for s in axes) == report.probes == budget

    def test_prefetch_noop_on_serial_engine(self, fresh_cache):
        from repro.experiments.counterfactual import (
            Intervention,
            ProbeEngine,
            Subject,
        )
        subject = Subject(scenario="straight", controller="pure_pursuit",
                          seed=1, duration=8.0)
        engine = ProbeEngine(subject, sim_engine="serial")
        original = Intervention.from_labels("gps_bias", onset=2.0)
        assert engine.prefetch([original.with_intensity(v)
                                for v in (0.25, 0.5)]) == 0
        assert engine.stats.speculative_issued == 0
        assert engine.stats.executed == 0


# ---------------------------------------------------------------------------
# Engine auto-selection
# ---------------------------------------------------------------------------

class TestChooseSimEngine:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_SIM", "batch")
        engine, reason = choose_sim_engine("serial", pending=100)
        assert engine == "serial"
        assert reason == "engine argument"

    def test_env_wins_over_auto(self, monkeypatch):
        monkeypatch.setenv("ADASSURE_SIM", "serial")
        engine, reason = choose_sim_engine(None, pending=100)
        assert engine == "serial"
        assert reason == "ADASSURE_SIM"

    def test_auto_batches_two_or_more(self, monkeypatch):
        monkeypatch.delenv("ADASSURE_SIM", raising=False)
        assert choose_sim_engine(None, pending=2)[0] == "batch"
        assert choose_sim_engine(None, pending=1)[0] == "serial"
        assert choose_sim_engine(None, pending=0)[0] == "serial"

    def test_invalid_engine_rejected(self, monkeypatch):
        monkeypatch.delenv("ADASSURE_SIM", raising=False)
        with pytest.raises(ValueError):
            choose_sim_engine("warp", pending=2)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

def _gps_spec(seed, duration=8.0, **kwargs):
    return RunSpec.from_labels("straight", attack="gps_bias", seed=seed,
                               onset=2.0, duration=duration, **kwargs)


def _plan_gps_sweep(plan, seeds, duration=8.0):
    """Declare a tiny straight-road gps_bias sweep on ``plan``."""
    return {seed: plan.add(_gps_spec(seed, duration)) for seed in seeds}


class TestProbePlan:
    def test_drain_batches_and_matches_serial(self, fresh_cache):
        from repro.experiments.plan import ProbePlan
        serial = ProbePlan(sim_engine="serial")
        oracle = {seed: run.result()
                  for seed, run in _plan_gps_sweep(serial, (1, 2, 3)).items()}

        clear_cache(disk=True)
        batched = ProbePlan(sim_engine="batch")
        handles = _plan_gps_sweep(batched, (1, 2, 3))
        stats = batched.drain()
        assert stats.grid_points == 3
        assert stats.batch_points == 3
        assert stats.batch_fallbacks == 0
        assert stats.batch_groups == 1
        for seed, (result, report) in oracle.items():
            b_result, b_report = handles[seed].result()
            assert b_result.metrics == result.metrics
            assert b_report.fired_ids == report.fired_ids
            assert b_report.evidence() == report.evidence()

    def test_first_result_read_triggers_drain(self, fresh_cache):
        from repro.experiments.plan import ProbePlan
        plan = ProbePlan(sim_engine="batch")
        handles = _plan_gps_sweep(plan, (1, 2))
        assert plan.pending == 2
        assert not handles[1].done
        handles[1].result()  # implicit drain
        assert plan.pending == 0
        assert handles[2].done

    def test_second_drain_hits_cache(self, fresh_cache):
        from repro.experiments.plan import ProbePlan
        plan = ProbePlan(sim_engine="batch")
        _plan_gps_sweep(plan, (1, 2))
        plan.drain()
        _plan_gps_sweep(plan, (1, 2))
        stats = plan.drain()
        assert stats.executed == 0
        assert stats.memo_hits == 2
        assert stats.batch_points == 0

    def test_rejected_group_falls_back_whole(self, fresh_cache, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.plan import ProbePlan

        def explode(specs):
            raise RuntimeError("batch engine down")

        monkeypatch.setattr(runner, "run_batch", explode)
        plan = ProbePlan(sim_engine="batch")
        handles = _plan_gps_sweep(plan, (1, 2, 3))
        stats = plan.drain()
        assert stats.batch_fallbacks == 1
        assert stats.batch_points == 0
        assert stats.executed == 3  # whole group re-ran serially
        assert all(run.done for run in handles.values())

    def test_serial_engine_forces_serial(self, fresh_cache):
        from repro.experiments.plan import ProbePlan
        plan = ProbePlan(sim_engine="serial")
        for seed in (1, 2):
            plan.add(RunSpec("straight", seed=seed, onset=2.0,
                             duration=8.0))
        stats = plan.drain()
        assert stats.executed == 2
        assert stats.batch_points == 0
        assert stats.batch_fallbacks == 0

    def test_auto_engine_selected_per_drain(self, fresh_cache, monkeypatch):
        from repro.experiments.plan import ProbePlan
        monkeypatch.delenv("ADASSURE_SIM", raising=False)
        plan = ProbePlan()
        _plan_gps_sweep(plan, (1, 2))
        stats = plan.drain()
        assert plan.sim_engine == "batch"
        assert stats.sim_engine == "batch"
        assert stats.sim_engine_reason == "auto: 2 pending run(s)"

        monkeypatch.setenv("ADASSURE_SIM", "serial")
        _plan_gps_sweep(plan, (4,))
        stats = plan.drain()
        assert plan.sim_engine == "serial"
        assert stats.sim_engine_reason == "ADASSURE_SIM"


# ---------------------------------------------------------------------------
# Params ledger + cache-key reverse mapping
# ---------------------------------------------------------------------------

class TestParamsLedger:
    def test_record_and_load_roundtrip(self, tmp_path):
        from repro.experiments.cache import RunCache
        cache = RunCache(tmp_path)
        params = RunSpec.from_labels("acc_follow", attack="radar_ghost",
                                     seed=3, onset=10.0).to_dict()
        cache.record_params("ab" * 20, params)
        assert cache.load_params("ab" * 20) == params
        assert cache.load_params("cd" * 20) is None

    def test_corrupt_ledger_entry_is_a_miss(self, tmp_path):
        from repro.experiments.cache import RunCache
        cache = RunCache(tmp_path)
        cache.record_params("ab" * 20, RunSpec("s_curve").to_dict())
        cache._params_path("ab" * 20).write_text("{not json",
                                                 encoding="utf-8")
        assert cache.load_params("ab" * 20) is None

    @pytest.mark.parametrize("params,expected", [
        # E10: gated estimator
        (dict(scenario="urban_loop", attack="gps_drift", seed=7,
              onset=15.0, duration=40.0, gate=13.8),
         {"scenario": "urban_loop", "controller": "pure_pursuit",
          "attack": "gps_drift", "seed": 7, "onset": 15.0,
          "duration": 40.0, "gate": 13.8}),
        # E11: concurrent attack pair
        (dict(scenario="s_curve", attack="gps_bias+imu_gyro_bias", seed=3,
              onset=12.0),
         {"scenario": "s_curve", "controller": "pure_pursuit",
          "attack": "gps_bias+imu_gyro_bias", "seed": 3, "onset": 12.0}),
        # E12: car following
        (dict(scenario="acc_follow", attack="radar_scale", seed=5,
              onset=10.0),
         {"scenario": "acc_follow", "controller": "pure_pursuit",
          "attack": "radar_scale", "seed": 5, "onset": 10.0}),
        # E13: injected controller defect
        (dict(scenario="s_curve", seed=2, defect="ctrl_deadband",
              defect_args={"threshold": 0.12}),
         {"scenario": "s_curve", "controller": "pure_pursuit", "seed": 2,
          "defect": "ctrl_deadband", "defect_args": {"threshold": 0.12}}),
        # E14: supervised stack under a fault
        (dict(scenario="urban_loop", fault="gps_freeze", seed=4,
              onset=15.0, duration=40.0, supervised=True),
         {"scenario": "urban_loop", "controller": "pure_pursuit",
          "fault": "gps_freeze", "seed": 4, "onset": 15.0,
          "duration": 40.0, "supervised": True}),
    ])
    def test_resolve_maps_off_grid_kinds(self, fresh_cache, params,
                                         expected):
        from repro.experiments.cache import RunCache
        from repro.experiments.counterfactual import resolve_cache_key
        from repro.experiments.runner import run_scored
        spec = RunSpec.from_labels(**params)
        run_scored(spec)
        assert not (RunCache.from_env().root / "checkpoints").exists()
        resolved = resolve_cache_key(spec.key())
        assert resolved == spec
        for field, value in expected.items():
            got = getattr(resolved, field)
            assert (dict(got) if field == "defect_args" else got) == value

    def test_resolve_maps_grid_point(self, fresh_cache):
        import shutil

        from repro.experiments.cache import RunCache
        from repro.experiments.counterfactual import resolve_cache_key
        from repro.experiments.runner import run_grid
        (run,) = run_grid(("straight",), ("stanley",), ("gps_bias",), (5,),
                          onset=2.0, duration=8.0)
        # The ledger alone resolves it: no manifest needed.
        shutil.rmtree(RunCache.from_env().root / "checkpoints")
        assert resolve_cache_key(run.spec.key()) == run.spec

    def test_resolve_maps_probe_kind(self, fresh_cache):
        from repro.experiments.counterfactual import (
            Intervention,
            ProbeEngine,
            Subject,
            probe_params,
            resolve_cache_key,
        )
        subject = Subject(scenario="straight", controller="stanley", seed=9,
                          duration=8.0)
        intervention = Intervention.from_labels(
            "gps_bias", "gps_dropout", intensity=0.5, onset=2.0)
        ProbeEngine(subject, sim_engine="serial").outcome(intervention)
        spec = resolve_cache_key(probe_params(subject, intervention).key())
        assert spec == probe_params(subject, intervention)
        assert (spec.scenario, spec.controller, spec.attack, spec.fault,
                spec.intensity, spec.onset, spec.seed, spec.duration) == (
            "straight", "stanley", "gps_bias", "gps_dropout", 0.5, 2.0, 9,
            8.0)

    def test_unknown_kind_and_unknown_key_resolve_to_none(self, fresh_cache):
        from repro.experiments.cache import RunCache
        from repro.experiments.counterfactual import resolve_cache_key
        cache = RunCache.from_env()
        cache.record_params("ab" * 20, {"kind": "mystery", "x": 1})
        assert resolve_cache_key("ab" * 20) is None
        assert resolve_cache_key("0" * 40) is None

    def test_commit_records_ledger_entry(self, fresh_cache):
        from repro.experiments.cache import RunCache
        from repro.experiments.plan import ProbePlan
        plan = ProbePlan(sim_engine="serial")
        _plan_gps_sweep(plan, (1,))
        plan.drain()
        cache = RunCache.from_env()
        ledger = list((cache.root / "params").rglob("*.params.json"))
        assert len(ledger) == 1


# ---------------------------------------------------------------------------
# E10–E13 differential: planner pass render-equal to serial (CI gate)
# ---------------------------------------------------------------------------

class TestExperimentDifferential:
    """The ``bit_identical`` check CI's probe-batching smoke enforces."""

    def _build_all(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.e10_mitigation import build_mitigation_table
        from repro.experiments.e11_multi_attack import build_multi_attack_table
        from repro.experiments.e12_acc import build_acc_debugging
        from repro.experiments.e13_defects import build_defect_debugging
        cfg = ExperimentConfig.quick()
        return [table.render() for table in (
            build_mitigation_table(cfg), build_multi_attack_table(cfg),
            build_acc_debugging(cfg), build_defect_debugging(cfg))]

    def test_batched_tables_match_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path / "serial"))
        monkeypatch.setenv("ADASSURE_SIM", "serial")
        clear_cache()
        serial = self._build_all()

        monkeypatch.setenv("ADASSURE_CACHE_DIR", str(tmp_path / "batch"))
        monkeypatch.delenv("ADASSURE_SIM", raising=False)
        clear_cache()
        STATS.reset()
        batched = self._build_all()
        clear_cache()

        assert batched == serial
        # The batch pass really batched: every planned run drained
        # through the lockstep engine, no group fell back.
        assert STATS.total.grid_points > 0
        assert STATS.total.batch_points == STATS.total.grid_points
        assert STATS.total.batch_fallbacks == 0
