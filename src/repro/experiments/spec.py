"""One description of a run: :class:`RunSpec`.

Every closed-loop run the experiments execute — a campaign grid point,
an E10–E14 extension configuration, a counterfactual probe — is a
:class:`RunSpec`: scenario, controller, seed and duration, the
attack/fault edit (channels, intensity, injection window), the estimator
gate, an injected controller defect and the degradation supervisor.  A
spec is frozen and hashable (it keys the in-process memo), canonically
serializable (:meth:`RunSpec.to_dict` is the params ledger entry behind
``adassure explain <key>``) and content-addressed (:meth:`RunSpec.key`
is the disk-cache key).

:meth:`RunSpec.build` is the only place a run's object graph is built —
scenario, follower (ACC iff the scenario has a lead, defect wrapper,
supervisor), campaigns and estimator config — so the serial engine
(:meth:`RunSpec.run`) and the lockstep batch engine
(:func:`~repro.sim.batch.run_batch`) consume the same objects, and an
unchanged counterfactual probe of a grid point *is* that grid point.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields

import repro
from repro.attacks.campaign import campaign_classes, reparameterized_attack
from repro.core.diagnosis import DiagnosisResult
from repro.core.verdicts import CheckReport
from repro.faults.campaign import fault_classes, reparameterized_fault
from repro.sim.engine import RunResult

__all__ = ["GridRun", "RunSpec", "build_grid", "build_scenario",
           "make_campaigns"]


@functools.lru_cache(maxsize=16)
def build_scenario(name: str, seed: int, duration: float | None):
    """The named standard scenario (or ``acc_follow``), exactly as every
    run builds it.  Scenarios are immutable inputs, so runs that share
    ``(name, seed, duration)`` share one object — lanes of a batch group
    then share one route too."""
    from repro.sim.scenario import acc_scenario, standard_scenarios
    if name == "acc_follow":
        if duration is None:
            return acc_scenario(seed=seed)
        return acc_scenario(seed=seed, duration=duration)
    scenarios = standard_scenarios(seed=seed, duration=duration)
    if name not in scenarios:
        raise ValueError(
            f"unknown scenario {name!r}; "
            f"expected one of {sorted(scenarios)} or 'acc_follow'")
    return scenarios[name]


def make_campaigns(attacks, faults, intensity: float, onset: float,
                   end: float):
    """The ``(AttackCampaign, FaultCampaign)`` pair for one edit.

    With an edit's original labels and parameters this reconstructs the
    ``standard_*`` / ``combined_*`` campaigns object-for-object."""
    attack = reparameterized_attack("+".join(attacks) or "none",
                                    intensity=intensity, onset=onset, end=end)
    fault = reparameterized_fault("+".join(faults) or "none",
                                  intensity=intensity, onset=onset, end=end)
    return attack, fault


@dataclass(frozen=True, slots=True)
class RunSpec:
    """Everything one closed-loop run is a pure function of."""

    scenario: str
    controller: str = "pure_pursuit"
    seed: int = 7
    duration: float | None = None
    attacks: tuple[str, ...] = ()
    faults: tuple[str, ...] = ()
    intensity: float = 1.0
    onset: float = 15.0
    end: float = math.inf
    gate: float | None = None
    """Innovation gate of the estimator (``EkfConfig(gate_nis=gate)``)."""
    defect: str | None = None
    """Injected lateral-controller defect (:mod:`repro.control.defects`)."""
    defect_args: tuple = ()
    """Defect constructor kwargs as sorted ``((key, value), ...)``."""
    supervised: bool = False
    """Wrap the follower in the degradation supervisor."""

    def __post_init__(self) -> None:
        # Canonical field types: equal runs must hash, compare and
        # serialize equal however they were spelled (7 vs 7.0, lists).
        def fix(name, value):
            object.__setattr__(self, name, value)

        def maybe_float(value):
            return None if value is None else float(value)
        fix("seed", int(self.seed))
        fix("duration", maybe_float(self.duration))
        fix("attacks", tuple(self.attacks))
        fix("faults", tuple(self.faults))
        fix("intensity", float(self.intensity))
        fix("onset", float(self.onset))
        fix("end", float(self.end))
        fix("gate", maybe_float(self.gate))
        fix("defect", self.defect or None)
        fix("defect_args", tuple(sorted(
            (str(k), v) for k, v in dict(self.defect_args).items())))
        fix("supervised", bool(self.supervised))

    # -- labels ---------------------------------------------------------
    @staticmethod
    def from_labels(scenario: str, controller: str = "pure_pursuit",
                    attack: str = "none", fault: str = "none",
                    **kwargs) -> "RunSpec":
        """Decode ``+``-joined campaign labels into a spec."""
        return RunSpec(scenario=scenario, controller=controller,
                       attacks=campaign_classes(attack),
                       faults=fault_classes(fault), **kwargs)

    @property
    def attack(self) -> str:
        return "+".join(self.attacks) or "none"

    @property
    def fault(self) -> str:
        return "+".join(self.faults) or "none"

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON form (an unbounded window's end is ``None``)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["attacks"] = list(self.attacks)
        data["faults"] = list(self.faults)
        data["end"] = None if math.isinf(self.end) else self.end
        data["defect_args"] = [list(pair) for pair in self.defect_args]
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunSpec":
        data = dict(data)
        if data.get("end") is None:
            data["end"] = math.inf
        return RunSpec(**data)

    def key(self, catalog: str | None = None) -> str:
        """40-hex content address: this spec salted with the cache format,
        the code version and the assertion-catalog fingerprint."""
        from repro.core.spec import catalog_fingerprint
        from repro.experiments.cache import CACHE_FORMAT_VERSION
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "code": repro.__version__,
            "catalog": catalog if catalog is not None else catalog_fingerprint(),
            "spec": self.to_dict(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]

    # -- the object graph -----------------------------------------------
    def build_scenario(self):
        return build_scenario(self.scenario, self.seed, self.duration)

    def ekf_config(self):
        if self.gate is None:
            return None
        from repro.control.estimator import EkfConfig
        return EkfConfig(gate_nis=self.gate)

    def campaigns(self):
        return make_campaigns(self.attacks, self.faults, self.intensity,
                              self.onset, self.end)

    def build(self):
        """The run's :class:`~repro.sim.batch.LaneSpec` — fresh follower
        and campaigns (they carry per-run state), shared scenario."""
        from repro.control.base import make_lateral_controller
        from repro.sim.batch import LaneSpec
        from repro.sim.engine import make_follower
        scenario = self.build_scenario()
        lateral = make_lateral_controller(self.controller)
        if self.defect:
            from repro.control.defects import DefectiveController, make_defect
            lateral = DefectiveController(
                lateral, make_defect(self.defect, **dict(self.defect_args)))
        attack, faults = self.campaigns()
        return LaneSpec(
            scenario=scenario,
            follower=make_follower(scenario, lateral,
                                   supervised=self.supervised),
            campaign=attack, ekf_config=self.ekf_config(), faults=faults)

    def run(self) -> RunResult:
        """Simulate the built object graph on the serial engine."""
        from repro.sim.engine import SimulationRunner
        lane = self.build()
        return SimulationRunner(lane.scenario, lane.follower, lane.campaign,
                                lane.ekf_config, faults=lane.faults).run()


def build_grid(scenarios, controllers, attacks, seeds,
               intensity: float = 1.0, onset: float = 15.0,
               duration: float | None = None) -> list[RunSpec]:
    """The canonical campaign spec list (scenario-major, seed-minor).

    Shared by :func:`~repro.experiments.runner.run_grid` and the
    distributed :class:`~repro.experiments.distributed.GridSpec`, so
    every host enumerates the same specs and therefore the same keys.
    """
    return [
        RunSpec.from_labels(scenario, controller, attack, seed=seed,
                            duration=duration, intensity=intensity,
                            onset=onset)
        for scenario in scenarios
        for controller in controllers
        for attack in attacks
        for seed in seeds
    ]


@dataclass(slots=True)
class GridRun:
    """One scored run: its spec, result, verdicts and diagnosis.

    The single value type of the result store.  It unpacks as the
    ``(result, report)`` pair off-grid callers read; ``diagnosis`` is the
    default knowledge-base ranking (callers with another knowledge base
    re-diagnose the report).
    """

    spec: RunSpec
    result: RunResult
    report: CheckReport
    diagnosis: DiagnosisResult

    def __iter__(self):
        return iter((self.result, self.report))

    @property
    def scenario(self) -> str:
        return self.spec.scenario

    @property
    def controller(self) -> str:
        return self.spec.controller

    @property
    def attack(self) -> str:
        return self.spec.attack

    @property
    def intensity(self) -> float:
        return self.spec.intensity

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def onset_latency(self) -> float | None:
        onset = self.result.trace.attack_onset()
        if onset is None:
            return None
        return self.report.detection_latency(onset)
