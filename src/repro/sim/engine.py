"""The fixed-step closed-loop simulation engine.

One engine step reproduces the data flow of the vehicle under test:

    ground truth --sensors--> readings --faults--> --attacks-->
        [supervisor watchdog] --> estimator --> controller
        ^                                                |
        |                                        command |
        +-- dynamics <-- actuators <--attacks (command channel) <--+

and appends one fully populated :class:`~repro.trace.schema.TraceRecord`.
The engine is the *only* place fault/attack hooks are invoked, so the
trace's injection ground-truth labels are exact.  Benign faults
(:mod:`repro.faults`) are applied before attacks on each channel —
hardware degrades before an adversary touches the message — and both
compose in one run.  A :class:`~repro.control.supervisor.SupervisedController`
follower additionally gets its staleness/NaN watchdog interposed between
injection and the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.control.acc import AccController
from repro.control.estimator import Ekf, EkfConfig
from repro.control.follower import SpeedProfile, WaypointFollower
from repro.control.base import make_lateral_controller
from repro.control.supervisor import SupervisedController, SupervisorConfig
from repro.geom.angles import angle_diff
from repro.geom.polyline import Polyline
from repro.geom.vec import Vec2
from repro.sim.dynamics import VehicleState
from repro.sim.lead import LeadVehicle
from repro.sim.rng import RngStreams
from repro.sim.scenario import Scenario, ScenarioOutcome
from repro.sim.sensors.radar import Radar, RadarConfig
from repro.sim.sensors.suite import SensorSuite
from repro.sim.vehicle import Vehicle
from repro.trace.metrics import TraceMetrics, compute_metrics
from repro.trace.recorder import TraceRecorder
from repro.trace.schema import Trace, TraceMeta

if TYPE_CHECKING:  # annotation-only import; repro.attacks imports repro.sim
    from repro.attacks.campaign import AttackCampaign
    from repro.faults.campaign import FaultCampaign

__all__ = ["RunResult", "SimulationRunner", "make_follower", "run_scenario"]

_DIVERGENCE_CTE = 30.0  # meters; beyond this the run is flagged diverged


@dataclass(slots=True)
class RunResult:
    """Everything a single run produced."""

    trace: Trace
    metrics: TraceMetrics
    outcome: ScenarioOutcome
    scenario: Scenario
    controller_name: str
    attack_label: str


class SimulationRunner:
    """Runs one scenario with one controller under one attack campaign."""

    def __init__(
        self,
        scenario: Scenario,
        follower: "WaypointFollower | SupervisedController",
        campaign: "AttackCampaign | None" = None,
        ekf_config: EkfConfig | None = None,
        faults: "FaultCampaign | None" = None,
    ):
        from repro.attacks.campaign import AttackCampaign
        from repro.faults.campaign import FaultCampaign

        self.scenario = scenario
        self.follower = follower
        self.campaign = campaign or AttackCampaign.none()
        self.faults = faults or FaultCampaign.none()
        self.ekf_config = ekf_config
        self._rngs = RngStreams(scenario.seed)
        self._injectors: list = []

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the scenario to completion and score it."""
        scenario = self.scenario
        route = scenario.route
        dt = scenario.dt

        vehicle = self._spawn_vehicle(route)
        sensors = SensorSuite(scenario.sensors, self._rngs)
        ekf = Ekf(self.ekf_config)
        ekf.reset(vehicle.state.x, vehicle.state.y, vehicle.state.yaw,
                  scenario.initial_speed)

        self.follower.reset()
        self.campaign.reset()
        self.faults.reset()
        for index, attack in enumerate(self.campaign.attacks):
            attack.bind_rng(self._rngs.stream(f"attack.{index}.{attack.name}"))
        for index, fault in enumerate(self.faults.faults):
            fault.bind_rng(self._rngs.stream(f"fault.{index}.{fault.name}"))
        # Faults fire before attacks on every channel: hardware degrades
        # upstream of any adversary in the message path.
        injectors = list(self.faults.faults) + list(self.campaign.attacks)
        supervisor = (self.follower
                      if isinstance(self.follower, SupervisedController)
                      else None)

        lead: LeadVehicle | None = None
        radar: Radar | None = None
        if scenario.lead is not None:
            lead = LeadVehicle(scenario.lead, start_station=0.0)
            radar = Radar(RadarConfig(), self._rngs.stream("sensor.radar"))

        self._injectors = injectors
        meta = TraceMeta(
            scenario=scenario.name,
            controller=self.follower.name,
            attack=self.campaign.label,
            seed=scenario.seed,
            dt=dt,
            route_length=route.length,
        )
        if self.faults.faults:
            meta.extra["fault"] = self.faults.label
        recorder = TraceRecorder(meta)

        last_predict_t: float | None = None
        station_hint: float | None = None
        diverged = False
        divergence_time: float | None = None

        for step in range(scenario.num_steps):
            t = step * dt
            state = vehicle.state

            # --- ground truth at time t --------------------------------
            proj = route.project(state.position, hint_station=station_hint)
            station_hint = proj.station

            # --- sensing + fault/attack injection ----------------------
            readings = sensors.poll(t, state)
            gps_fix = readings.gps
            if gps_fix is not None:
                for attack in self.campaign.attacks:
                    attack.observe_gps(t, gps_fix)
                gps_fix = self._apply_channel(
                    "gps", t, gps_fix, lambda a, v: a.on_gps(t, v)
                )
            imu = self._apply_channel(
                "imu", t, readings.imu, lambda a, v: a.on_imu(t, v)
            )
            odom = self._apply_channel(
                "odometry", t, readings.odometry, lambda a, v: a.on_odometry(t, v)
            )
            compass = self._apply_channel(
                "compass", t, readings.compass, lambda a, v: a.on_compass(t, v)
            )
            radar_reading = None
            gap_true = 0.0
            if lead is not None and radar is not None:
                # Line-of-sight range/closing-rate, as a real radar sees it.
                lead_pos = lead.position_on(route)
                los = lead_pos - state.position
                gap_true = los.norm()
                if gap_true > 1e-6:
                    ego_vel = Vec2(
                        state.v * math.cos(state.yaw),
                        state.v * math.sin(state.yaw),
                    )
                    rel_vel = lead.velocity_on(route) - ego_vel
                    closing = rel_vel.dot(los) / gap_true
                else:
                    closing = 0.0
                radar_reading = radar.poll_gap(t, gap_true, closing)
                radar_reading = self._apply_channel(
                    "radar", t, radar_reading, lambda a, v: a.on_radar(t, v)
                )

            # --- degradation supervisor (staleness/NaN watchdog) -------
            if supervisor is not None:
                gps_fix, imu, odom, compass, radar_reading = (
                    supervisor.filter_readings(
                        t, gps=gps_fix, imu=imu, odom=odom,
                        compass=compass, radar=radar_reading,
                    )
                )

            # --- state estimation --------------------------------------
            if imu is not None:
                predict_dt = dt if last_predict_t is None else max(t - last_predict_t, 1e-6)
                ekf.predict(imu.yaw_rate, imu.accel, predict_dt)
                last_predict_t = t
            if gps_fix is not None:
                ekf.update_gps(gps_fix.x, gps_fix.y)
            if compass is not None:
                ekf.update_compass(compass.yaw)
            if odom is not None:
                ekf.update_speed(odom.speed)
            estimate = ekf.estimate

            # --- control -----------------------------------------------
            decision = self.follower.decide(estimate, route, dt,
                                            radar=radar_reading)

            # --- command channel attacks -------------------------------
            command = (decision.steer_cmd, decision.accel_cmd)
            command = self._apply_channel(
                "command", t, command,
                lambda a, v: a.on_command(t, v[0], v[1]),
            )
            if command is not None:
                vehicle.apply_control(command[0], command[1])
            # A dropped command leaves the previous setpoint latched.

            # --- physics ------------------------------------------------
            vehicle.step(dt)
            if lead is not None:
                lead.step(t, dt)

            # --- ground truth scoring ----------------------------------
            if route.closed:
                dist_to_goal = -1.0  # sentinel: no goal on a loop route
            else:
                dist_to_goal = state.position.distance_to(route.end_point())
            cte_true = proj.cross_track
            if not diverged and abs(cte_true) > _DIVERGENCE_CTE:
                diverged = True
                divergence_time = t

            active_attack = self._active_attack(t)
            active_fault = self._active_fault(t)
            recorder.record(
                step=step,
                t=t,
                truth={
                    "x": state.x,
                    "y": state.y,
                    "yaw": state.yaw,
                    "v": state.v,
                    "yaw_rate": state.yaw_rate,
                    "accel": state.accel,
                    "lat_accel": state.lateral_accel,
                    "cte": cte_true,
                    "heading_err": angle_diff(state.yaw, proj.heading),
                    "station": proj.station,
                    "dist_to_goal": dist_to_goal,
                },
                gps=(gps_fix.x, gps_fix.y) if gps_fix is not None else None,
                imu=(imu.yaw_rate, imu.accel) if imu is not None else None,
                odom=odom.speed if odom is not None else None,
                compass=compass.yaw if compass is not None else None,
                estimate={
                    "x": estimate.x,
                    "y": estimate.y,
                    "yaw": estimate.yaw,
                    "v": estimate.v,
                    "cov_trace": estimate.cov_trace,
                    "nis_gps": estimate.nis_gps,
                    "nis_speed": estimate.nis_speed,
                    "nis_compass": estimate.nis_compass,
                },
                control={
                    "cte": decision.cte,
                    "heading_err": decision.heading_err,
                    "station": decision.station,
                    "target_speed": decision.target_speed,
                    "steer_cmd": decision.steer_cmd,
                    "accel_cmd": decision.accel_cmd,
                },
                actuation={
                    "steer": vehicle.actuators.steer,
                    "accel": vehicle.actuators.accel,
                },
                attack={
                    "active": active_attack is not None,
                    "name": active_attack.name if active_attack else "",
                    "channel": active_attack.channel if active_attack else "",
                },
                radar=(radar_reading.range_m, radar_reading.range_rate)
                if radar_reading is not None else None,
                lead={"gap": gap_true, "speed": lead.speed}
                if lead is not None else None,
                fault={
                    "active": active_fault is not None,
                    "name": active_fault.name if active_fault else "",
                    "channel": active_fault.channel if active_fault else "",
                },
                supervisor={
                    "mode": supervisor.mode,
                    "lost": len(supervisor.lost_channels),
                } if supervisor is not None else None,
            )

        trace = recorder.trace
        metrics = compute_metrics(trace)
        outcome = ScenarioOutcome(
            completed=True,
            diverged=diverged,
            divergence_time=divergence_time,
        )
        return RunResult(
            trace=trace,
            metrics=metrics,
            outcome=outcome,
            scenario=self.scenario,
            controller_name=self.follower.name,
            attack_label=self.campaign.label,
        )

    # ------------------------------------------------------------------
    def _spawn_vehicle(self, route: Polyline) -> Vehicle:
        start_point, start_heading = route.start_pose()
        offset = self.scenario.initial_lateral_offset
        if offset != 0.0:
            left = Vec2(-math.sin(start_heading), math.cos(start_heading))
            start_point = start_point + left * offset
        state = VehicleState(
            x=start_point.x,
            y=start_point.y,
            yaw=start_heading,
            v=self.scenario.initial_speed,
        )
        return Vehicle(model=self.scenario.model, initial_state=state)

    def _apply_channel(self, channel: str, t: float, value, hook):
        """Run every active injector (faults first, then attacks) of
        ``channel`` over the message.

        Every matching injector additionally gets the generic
        :meth:`~repro.attacks.base.Attack.observe` call on the message
        as it stands when the injector's turn comes — active or not —
        so freeze/replay models can capture healthy traffic.
        """
        if value is None:
            return None
        for injector in self._injectors:
            if injector.channel != channel:
                continue
            injector.observe(t, value)
            if injector.active(t):
                value = hook(injector, value)
                if value is None:
                    return None
        return value

    def _active_attack(self, t: float):
        for attack in self.campaign.attacks:
            if attack.active(t):
                return attack
        return None

    def _active_fault(self, t: float):
        for fault in self.faults.faults:
            if fault.active(t):
                return fault
        return None


def make_follower(
    scenario: Scenario,
    lateral,
    profile: SpeedProfile | None = None,
    supervised: bool = False,
    supervisor_config: SupervisorConfig | None = None,
) -> "WaypointFollower | SupervisedController":
    """The follower every run drives with: ``lateral`` steering, the
    scenario's cruise profile (unless ``profile`` overrides it), ACC iff
    the scenario has a lead, optionally wrapped in the
    :class:`~repro.control.supervisor.SupervisedController` watchdog
    (``supervisor_config`` implies ``supervised``)."""
    if profile is None:
        profile = SpeedProfile(cruise_speed=scenario.cruise_speed)
    follower = WaypointFollower(
        lateral,
        profile=profile,
        acc=AccController() if scenario.lead is not None else None,
    )
    if supervised or supervisor_config is not None:
        return SupervisedController(follower, config=supervisor_config)
    return follower


def run_scenario(
    scenario: Scenario,
    controller: str = "pure_pursuit",
    campaign: AttackCampaign | None = None,
    profile: SpeedProfile | None = None,
    ekf_config: EkfConfig | None = None,
    faults: "FaultCampaign | None" = None,
    supervised: bool = False,
    supervisor_config: SupervisorConfig | None = None,
) -> RunResult:
    """Convenience one-call runner used throughout examples and tests.

    Args:
        scenario: the driving task.
        controller: lateral controller name (``pure_pursuit``, ``stanley``,
            ``lqr`` or ``mpc``).
        campaign: attack campaign (default: none).
        profile: speed profile override (default: scenario cruise speed).
        ekf_config: estimator configuration override (e.g. innovation
            gating for the E10 mitigation experiment).
        faults: benign fault campaign (default: none) — composes with
            ``campaign``; faults are applied first on each channel.
        supervised: wrap the follower in a
            :class:`~repro.control.supervisor.SupervisedController`
            (graceful degradation under sensor faults — experiment E14).
        supervisor_config: watchdog/degradation policy override (implies
            ``supervised``).
    """
    follower = make_follower(scenario, make_lateral_controller(controller),
                             profile=profile, supervised=supervised,
                             supervisor_config=supervisor_config)
    return SimulationRunner(scenario, follower, campaign, ekf_config,
                            faults=faults).run()
