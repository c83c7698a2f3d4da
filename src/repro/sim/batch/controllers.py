"""Vectorized controller implementations for batch lanes.

Each ``_Batch*`` class mirrors one serial controller whose
``supports_batch`` capability flag is set, holding its per-lane parameters
and state as arrays.  Parameters are read off the *actual* controller
instances supplied per lane, so heterogeneous gains vectorize too; the LQR
gain lookup delegates to each instance's own DARE cache so the solved
gains are the very same objects the serial controller would use.

:class:`BatchFollower` is the vectorized ``WaypointFollower.decide``:
goal latch, curvature-limited speed profile, PID with conditional
integration, and ACC min-arbitration, all masked so that latched lanes
freeze their longitudinal state exactly like the serial early return.
"""

from __future__ import annotations

import math

import numpy as np

from repro.control.acc import AccController
from repro.control.follower import WaypointFollower
from repro.control.lqr import LqrController
from repro.control.pid import PidSpeedController
from repro.control.pure_pursuit import PurePursuitController
from repro.control.stanley import StanleyController
from repro.sim.batch import ops
from repro.sim.batch.route import BatchRoute

__all__ = ["BatchFollower", "is_vectorizable"]


def is_vectorizable(follower) -> bool:
    """True if the follower can run on the fully vectorized batch path.

    Requires the plain follower/PID/ACC classes (subclasses may override
    behaviour the vector path cannot see) and a lateral controller that
    both declares ``supports_batch`` and has a registered implementation.
    """
    return (
        type(follower) is WaypointFollower
        and type(follower.speed_controller) is PidSpeedController
        and (follower.acc is None or type(follower.acc) is AccController)
        and getattr(follower.lateral, "supports_batch", False)
        and type(follower.lateral) in _LATERAL_IMPLS
    )


class _BatchPurePursuit:
    def __init__(self, controllers: list[PurePursuitController], route: BatchRoute):
        self.route = route
        self.wheelbase = np.array([c.wheelbase for c in controllers])
        self.gain = np.array([c.lookahead_gain for c in controllers])
        self.min_la = np.array([c.min_lookahead for c in controllers])
        self.max_la = np.array([c.max_lookahead for c in controllers])
        self.max_steer = np.array([c.max_steer for c in controllers])
        n = len(controllers)
        self.hint = np.zeros(n)
        self.has_hint = np.zeros(n, dtype=bool)
        self._all = np.ones(n, dtype=bool)

    def compute(self, x, y, yaw, v, dt):
        proj = self.route.project(x, y, self.hint, self.has_hint)
        self.hint = proj.station
        self.has_hint = self._all

        lookahead = ops.pymin(
            ops.pymax(self.gain * v, self.min_la), self.max_la
        )
        target = self.route.sample(proj.station + lookahead)
        dx = target.point_x - x
        dy = target.point_y - y
        c = np.cos(-yaw)
        s = np.sin(-yaw)
        local_x = c * dx - s * dy
        local_y = s * dx + c * dy
        alpha = ops.map2(math.atan2, local_y, ops.pymax(local_x, 1e-6))
        dist = ops.pymax(ops.map2(math.hypot, local_x, local_y), 1e-3)
        steer = ops.map2(
            math.atan2, 2.0 * self.wheelbase * np.sin(alpha), dist
        )
        steer = ops.clamp(steer, -self.max_steer, self.max_steer)
        return steer, proj.cross_track, ops.angle_diff(yaw, proj.heading), proj.station


class _BatchStanley:
    def __init__(self, controllers: list[StanleyController], route: BatchRoute):
        self.route = route
        self.wheelbase = np.array([c.wheelbase for c in controllers])
        self.k_cte = np.array([c.k_cte for c in controllers])
        self.v_soft = np.array([c.v_soft for c in controllers])
        self.k_damp = np.array([c.k_damp for c in controllers])
        self.max_steer = np.array([c.max_steer for c in controllers])
        n = len(controllers)
        self.hint = np.zeros(n)
        self.has_hint = np.zeros(n, dtype=bool)
        self._all = np.ones(n, dtype=bool)
        self.prev_steer = np.zeros(n)

    def compute(self, x, y, yaw, v, dt):
        front_x = x + np.cos(yaw) * self.wheelbase
        front_y = y + np.sin(yaw) * self.wheelbase
        proj_front = self.route.project(front_x, front_y, self.hint, self.has_hint)
        self.hint = proj_front.station
        self.has_hint = self._all

        heading_err = ops.angle_diff(proj_front.heading, yaw)
        cross_term = ops.map2(
            math.atan2, -self.k_cte * proj_front.cross_track, v + self.v_soft
        )
        steer = heading_err + cross_term
        damped = (1.0 - self.k_damp) * steer + self.k_damp * self.prev_steer
        steer = np.where(self.k_damp > 0.0, damped, steer)
        steer = ops.clamp(steer, -self.max_steer, self.max_steer)
        self.prev_steer = steer

        proj_rear = self.route.project(
            x, y, proj_front.station, self._all
        )
        return (
            steer,
            proj_rear.cross_track,
            ops.angle_diff(yaw, proj_rear.heading),
            proj_rear.station,
        )


_SHARED_DARE_GAINS: dict[tuple, np.ndarray] = {}
"""Process-wide LQR DARE gain memo.  The gain is a deterministic pure
function of (weights, wheelbase, quantized speed, dt), so lanes — and
whole successive batch calls — with identical controller parameters can
share one solve and still match each serial instance's private cache bit
for bit.  Module scope (rather than per-``_BatchLqr``) makes the memo
survive across batch groups within a campaign."""

_DARE_MEMO = {"hits": 0, "solves": 0}
"""Process-lifetime reuse counters for :data:`_SHARED_DARE_GAINS`
(``--stats`` snapshots deltas into ``GridStats.dare_memo_*``)."""


def dare_memo_counters() -> dict[str, int]:
    """Snapshot of the DARE memo's process-lifetime hit/solve counters."""
    return dict(_DARE_MEMO)


def clear_dare_memo() -> None:
    """Forget every shared DARE gain and zero the hit/solve counters."""
    _SHARED_DARE_GAINS.clear()
    _DARE_MEMO.update(hits=0, solves=0)


class _BatchLqr:
    def __init__(self, controllers: list[LqrController], route: BatchRoute):
        self.route = route
        self.controllers = controllers
        self.wheelbase = np.array([c.wheelbase for c in controllers])
        self.preview = np.array([c.preview for c in controllers])
        self.max_steer = np.array([c.max_steer for c in controllers])
        n = len(controllers)
        self.hint = np.zeros(n)
        self.has_hint = np.zeros(n, dtype=bool)
        self._all = np.ones(n, dtype=bool)

    def _lane_gain(self, controller: LqrController, speed: float,
                   dt: float) -> np.ndarray:
        quantum = controller._SPEED_QUANTUM  # noqa: SLF001
        v = speed if speed > 0.5 else 0.5  # mirrors _gain's floor
        key = (
            int(round(v / quantum)), int(round(dt * 1e4)),
            controller.wheelbase,
            controller.q.tobytes(), controller.r.tobytes(),
        )
        gain = _SHARED_DARE_GAINS.get(key)
        if gain is None:
            gain = controller._gain(speed, dt)  # noqa: SLF001
            _SHARED_DARE_GAINS[key] = gain
            _DARE_MEMO["solves"] += 1
        else:
            _DARE_MEMO["hits"] += 1
        return gain

    def compute(self, x, y, yaw, v, dt):
        proj = self.route.project(x, y, self.hint, self.has_hint)
        self.hint = proj.station
        self.has_hint = self._all

        cte = proj.cross_track
        heading_err = ops.angle_diff(yaw, proj.heading)
        kmat = np.empty((len(x), 1, 2))
        v_list = v.tolist()
        for i, controller in enumerate(self.controllers):
            kmat[i] = self._lane_gain(controller, v_list[i], dt)
        e = np.stack([cte, heading_err], axis=1)
        feedback = -(np.matmul(kmat, e[:, :, None])[:, 0, 0])

        kappa = self.route.sample(proj.station + self.preview).curvature
        feedforward = ops.map1(math.atan, self.wheelbase * kappa)
        steer = ops.clamp(feedback + feedforward, -self.max_steer, self.max_steer)
        return steer, cte, heading_err, proj.station


_LATERAL_IMPLS = {
    PurePursuitController: _BatchPurePursuit,
    StanleyController: _BatchStanley,
    LqrController: _BatchLqr,
}


class BatchFollower:
    """Vectorized ``WaypointFollower`` over a subset of batch lanes.

    Args:
        followers: one (vectorizable) follower per lane of the subset.
        route: the shared batched route.
    """

    def __init__(self, followers: list[WaypointFollower], route: BatchRoute):
        self.n = n = len(followers)
        self.route = route

        # Lateral controllers, grouped by concrete type.
        self._groups: list[tuple[np.ndarray, object]] = []
        by_type: dict[type, list[int]] = {}
        for i, follower in enumerate(followers):
            by_type.setdefault(type(follower.lateral), []).append(i)
        for lateral_type, lane_ids in by_type.items():
            impl = _LATERAL_IMPLS[lateral_type](
                [followers[i].lateral for i in lane_ids], route
            )
            self._groups.append((np.array(lane_ids), impl))

        profiles = [f.profile for f in followers]
        self.cruise = np.array([p.cruise_speed for p in profiles])
        self.budget = np.array([p.lat_accel_budget for p in profiles])
        self.preview = np.array([p.preview for p in profiles])
        self.brake_decel = np.array([p.brake_decel for p in profiles])
        self.stop_at_goal = np.array([p.stop_at_goal for p in profiles])

        pids = [f.speed_controller for f in followers]
        self.kp = np.array([p.kp for p in pids])
        self.ki = np.array([p.ki for p in pids])
        self.kd = np.array([p.kd for p in pids])
        self.pid_accel_max = np.array([p.accel_max for p in pids])
        self.pid_brake_max = np.array([p.brake_max for p in pids])
        self.int_limit = np.array([p.integral_limit for p in pids])
        self.integral = np.zeros(n)
        self.prev_error = np.zeros(n)
        self.has_prev = np.zeros(n, dtype=bool)

        self.has_acc = np.array([f.acc is not None for f in followers])
        acc_cfg = [
            (f.acc.config if f.acc is not None else AccController().config)
            for f in followers
        ]
        self.acc_time_gap = np.array([c.time_gap for c in acc_cfg])
        self.acc_d0 = np.array([c.standstill_gap for c in acc_cfg])
        self.acc_k_gap = np.array([c.k_gap for c in acc_cfg])
        self.acc_k_rate = np.array([c.k_rate for c in acc_cfg])
        self.acc_accel_max = np.array([c.accel_max for c in acc_cfg])
        self.acc_brake_max = np.array([c.brake_max for c in acc_cfg])
        self.last_radar_range = np.zeros(n)
        self.last_radar_rate = np.zeros(n)
        self.has_last_radar = np.zeros(n, dtype=bool)

        self.goal_latched = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    def _target_speed(self, station: np.ndarray) -> np.ndarray:
        """Vectorized ``SpeedProfile.target_speed``."""
        target = self.cruise.copy()
        samples = 4
        for i in range(samples + 1):
            sample = self.route.sample(station + self.preview * i / samples)
            kappa = np.abs(sample.curvature)
            with np.errstate(divide="ignore"):
                cand = np.sqrt(self.budget / kappa)
            target = np.where(
                kappa > 1e-6, ops.pymin(target, cand), target
            )
        if not self.route.closed:
            remaining = self.route.remaining(station)
            v_stop = np.sqrt(ops.pymax(2.0 * self.brake_decel * remaining, 0.0))
            target = np.where(
                self.stop_at_goal, ops.pymin(target, v_stop), target
            )
        return ops.pymax(target, 0.0)

    # ------------------------------------------------------------------
    def decide(
        self,
        est_x: np.ndarray,
        est_y: np.ndarray,
        est_yaw: np.ndarray,
        est_v: np.ndarray,
        dt: float,
        radar_range: np.ndarray,
        radar_rate: np.ndarray,
        radar_fresh: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """One control step for every lane of the subset.

        Returns ``(steer_cmd, accel_cmd, cte, heading_err, station,
        target_speed)`` arrays.
        """
        n = self.n
        steer = np.empty(n)
        cte = np.empty(n)
        heading_err = np.empty(n)
        station = np.empty(n)
        for lane_ids, impl in self._groups:
            g_steer, g_cte, g_he, g_station = impl.compute(
                est_x[lane_ids], est_y[lane_ids], est_yaw[lane_ids],
                est_v[lane_ids], dt,
            )
            steer[lane_ids] = g_steer
            cte[lane_ids] = g_cte
            heading_err[lane_ids] = g_he
            station[lane_ids] = g_station

        if not self.route.closed:
            remaining = self.route.remaining(station)
            hit_goal = (remaining < 3.0) | ((remaining < 8.0) & (est_v < 2.0))
            self.goal_latched |= self.stop_at_goal & hit_goal
        latched = self.goal_latched
        active = ~latched

        target_speed = self._target_speed(station)

        # --- PID with conditional integration (state frozen on latch) --
        error = target_speed - est_v
        derivative = np.where(
            self.has_prev, (error - self.prev_error) / dt, 0.0
        )
        self.prev_error = np.where(active, error, self.prev_error)
        self.has_prev |= active
        unsat = self.kp * error + self.ki * self.integral + self.kd * derivative
        saturated_hi = unsat > self.pid_accel_max
        saturated_lo = unsat < -self.pid_brake_max
        allow = ~((saturated_hi & (error > 0)) | (saturated_lo & (error < 0)))
        new_integral = ops.clamp(
            self.integral + error * dt, -self.int_limit, self.int_limit
        )
        self.integral = np.where(active & allow, new_integral, self.integral)
        output = self.kp * error + self.ki * self.integral + self.kd * derivative
        accel_cmd = ops.clamp(output, -self.pid_brake_max, self.pid_accel_max)

        # --- ACC min-arbitration ---------------------------------------
        if self.has_acc.any():
            take = active & self.has_acc & radar_fresh
            self.last_radar_range = np.where(
                take, radar_range, self.last_radar_range
            )
            self.last_radar_rate = np.where(take, radar_rate, self.last_radar_rate)
            self.has_last_radar |= take
            gap_error = self.last_radar_range - (
                self.acc_d0 + self.acc_time_gap * est_v
            )
            acc_accel = ops.clamp(
                self.acc_k_gap * gap_error + self.acc_k_rate * self.last_radar_rate,
                -self.acc_brake_max,
                self.acc_accel_max,
            )
            use = self.has_acc & self.has_last_radar
            accel_cmd = np.where(use, ops.pymin(accel_cmd, acc_accel), accel_cmd)

        steer_cmd = np.where(latched, 0.0, steer)
        accel_cmd = np.where(latched, -self.brake_decel, accel_cmd)
        target_speed = np.where(latched, 0.0, target_speed)
        return steer_cmd, accel_cmd, cte, heading_err, station, target_speed
