"""Pre-generated sensor schedules and noise tapes for batch lanes.

The serial engine draws sensor noise step by step from per-sensor named
streams.  Two facts make pre-generation exact:

* The sampling schedule (``Sensor.sample_due``) is a pure function of
  time — it never looks at vehicle state — so the set of due steps can be
  replayed once per ``(period, dt, n_steps)``.
* numpy ``Generator`` streams consume values sequentially across call
  boundaries: one ``standard_normal(k)`` call yields the same values as
  ``k`` scalar calls, and ``normal(0, s, ...)`` equals
  ``0.0 + s * standard_normal(...)`` bitwise.  So each lane's full noise
  sequence can be drawn in one call per sensor and spread over the due
  steps.

With ``dropout_prob > 0`` the dropout uniform draw interleaves with the
noise draws on the *same* stream, so the tape generator falls back to a
per-step replay issuing the identical RNG calls the serial sensor issues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import RngStreams
from repro.sim.sensors.suite import SensorSuiteConfig

__all__ = ["LaneSensorTapes", "due_steps", "build_lane_tapes"]

_SCHEDULE_CACHE: dict[tuple[float, float, int], np.ndarray] = {}


def clear_schedule_cache() -> None:
    """Forget every memoized sensor due-step schedule."""
    _SCHEDULE_CACHE.clear()


def due_steps(period: float, dt: float, n_steps: int) -> np.ndarray:
    """Boolean per-step due mask, replaying ``Sensor.sample_due`` exactly."""
    key = (period, dt, n_steps)
    if key not in _SCHEDULE_CACHE:
        due = np.zeros(n_steps, dtype=bool)
        next_sample = 0.0
        for step in range(n_steps):
            t = step * dt
            if t + 1e-9 < next_sample:
                continue
            next_sample += period
            if next_sample <= t:
                next_sample = t + period
            due[step] = True
        _SCHEDULE_CACHE[key] = due
    return _SCHEDULE_CACHE[key]


@dataclass(slots=True)
class LaneSensorTapes:
    """One lane's per-step sensor freshness and noise components.

    All arrays are length ``n_steps``; noise entries are only meaningful
    where the matching ``*_fresh`` flag is set.  The measurement model is
    linear in the state, so state-dependent parts are added at run time:
    ``gps_x = state.x + walk_x + noise_x`` etc., with the exact serial
    association order.
    """

    gps_fresh: np.ndarray
    gps_walk_x: np.ndarray
    gps_walk_y: np.ndarray
    gps_noise_x: np.ndarray
    gps_noise_y: np.ndarray
    imu_fresh: np.ndarray
    imu_gyro_bias: float
    imu_accel_bias: float
    imu_gyro_noise: np.ndarray
    imu_accel_noise: np.ndarray
    odom_fresh: np.ndarray
    odom_scale: float
    odom_noise: np.ndarray
    compass_fresh: np.ndarray
    compass_noise: np.ndarray


def _scalar_normals(rng: np.random.Generator, std: float, count: int) -> np.ndarray:
    """``count`` draws matching ``float(rng.normal(0.0, std))`` each."""
    if count == 0:
        return np.zeros(0)
    return 0.0 + std * rng.standard_normal(count)


def build_lane_tapes(
    config: SensorSuiteConfig, rngs: RngStreams, dt: float, n_steps: int
) -> LaneSensorTapes:
    """Generate one lane's tapes from its own seed-rooted stream family.

    Draw order per stream matches the serial ``SensorSuite`` exactly:
    constructor draws (IMU biases, odometry scale) first, then the
    per-fresh-step measurement draws in poll order.
    """
    # --- GPS ----------------------------------------------------------
    gps_cfg = config.gps
    gps_rng = rngs.stream("sensor.gps")
    gps_due = due_steps(gps_cfg.period, dt, n_steps)
    n = n_steps
    walk_x = np.zeros(n)
    walk_y = np.zeros(n)
    noise_x = np.zeros(n)
    noise_y = np.zeros(n)
    if gps_cfg.dropout_prob > 0.0:
        gps_fresh = np.zeros(n, dtype=bool)
        walk = np.zeros(2)
        for step in np.flatnonzero(gps_due):
            if gps_rng.random() < gps_cfg.dropout_prob:
                continue
            gps_fresh[step] = True
            if gps_cfg.walk_std > 0:
                walk = walk + gps_rng.normal(0.0, gps_cfg.walk_std, size=2)
            noise = (
                gps_rng.normal(0.0, gps_cfg.noise_std, size=2)
                if gps_cfg.noise_std > 0 else np.zeros(2)
            )
            walk_x[step] = walk[0]
            walk_y[step] = walk[1]
            noise_x[step] = noise[0]
            noise_y[step] = noise[1]
    else:
        gps_fresh = gps_due
        k = int(gps_fresh.sum())
        draws_per_step = (2 if gps_cfg.walk_std > 0 else 0) + (
            2 if gps_cfg.noise_std > 0 else 0
        )
        if k and draws_per_step:
            z = gps_rng.standard_normal(k * draws_per_step).reshape(k, draws_per_step)
            col = 0
            if gps_cfg.walk_std > 0:
                inc = 0.0 + gps_cfg.walk_std * z[:, col:col + 2]
                col += 2
                walk = np.cumsum(inc, axis=0)
                walk_x[gps_fresh] = walk[:, 0]
                walk_y[gps_fresh] = walk[:, 1]
            if gps_cfg.noise_std > 0:
                noise = 0.0 + gps_cfg.noise_std * z[:, col:col + 2]
                noise_x[gps_fresh] = noise[:, 0]
                noise_y[gps_fresh] = noise[:, 1]

    # --- IMU ----------------------------------------------------------
    imu_cfg = config.imu
    imu_rng = rngs.stream("sensor.imu")
    # Constructor draws happen before any measurement, even at zero std.
    gyro_bias = float(imu_rng.normal(0.0, imu_cfg.gyro_bias_std))
    accel_bias = float(imu_rng.normal(0.0, imu_cfg.accel_bias_std))
    imu_due = due_steps(imu_cfg.period, dt, n_steps)
    gyro_noise = np.zeros(n)
    accel_noise = np.zeros(n)
    if imu_cfg.dropout_prob > 0.0:
        # Dropout uniforms interleave with the noise normals on the same
        # stream, so replay the serial per-step call sequence verbatim.
        imu_fresh = np.zeros(n, dtype=bool)
        for step in np.flatnonzero(imu_due):
            if imu_rng.random() < imu_cfg.dropout_prob:
                continue
            imu_fresh[step] = True
            gyro_noise[step] = float(imu_rng.normal(0.0, imu_cfg.gyro_noise_std))
            accel_noise[step] = float(imu_rng.normal(0.0, imu_cfg.accel_noise_std))
    else:
        imu_fresh = imu_due
        k = int(imu_fresh.sum())
        if k:
            z = imu_rng.standard_normal(2 * k).reshape(k, 2)
            gyro_noise[imu_fresh] = 0.0 + imu_cfg.gyro_noise_std * z[:, 0]
            accel_noise[imu_fresh] = 0.0 + imu_cfg.accel_noise_std * z[:, 1]

    # --- Odometry -----------------------------------------------------
    odo_cfg = config.odometry
    odo_rng = rngs.stream("sensor.odometry")
    scale = 1.0 + float(odo_rng.normal(0.0, odo_cfg.scale_error_std))
    odo_due = due_steps(odo_cfg.period, dt, n_steps)
    odo_noise = np.zeros(n)
    if odo_cfg.dropout_prob > 0.0:
        odo_fresh = np.zeros(n, dtype=bool)
        for step in np.flatnonzero(odo_due):
            if odo_rng.random() < odo_cfg.dropout_prob:
                continue
            odo_fresh[step] = True
            odo_noise[step] = float(odo_rng.normal(0.0, odo_cfg.noise_std))
    else:
        odo_fresh = odo_due
        odo_noise[odo_fresh] = _scalar_normals(
            odo_rng, odo_cfg.noise_std, int(odo_fresh.sum())
        )

    # --- Compass ------------------------------------------------------
    cmp_cfg = config.compass
    cmp_rng = rngs.stream("sensor.compass")
    cmp_due = due_steps(cmp_cfg.period, dt, n_steps)
    cmp_noise = np.zeros(n)
    if cmp_cfg.dropout_prob > 0.0:
        cmp_fresh = np.zeros(n, dtype=bool)
        for step in np.flatnonzero(cmp_due):
            if cmp_rng.random() < cmp_cfg.dropout_prob:
                continue
            cmp_fresh[step] = True
            cmp_noise[step] = float(cmp_rng.normal(0.0, cmp_cfg.noise_std))
    else:
        cmp_fresh = cmp_due
        cmp_noise[cmp_fresh] = _scalar_normals(
            cmp_rng, cmp_cfg.noise_std, int(cmp_fresh.sum())
        )

    return LaneSensorTapes(
        gps_fresh=gps_fresh,
        gps_walk_x=walk_x,
        gps_walk_y=walk_y,
        gps_noise_x=noise_x,
        gps_noise_y=noise_y,
        imu_fresh=imu_fresh,
        imu_gyro_bias=gyro_bias,
        imu_accel_bias=accel_bias,
        imu_gyro_noise=gyro_noise,
        imu_accel_noise=accel_noise,
        odom_fresh=odo_fresh,
        odom_scale=scale,
        odom_noise=odo_noise,
        compass_fresh=cmp_fresh,
        compass_noise=cmp_noise,
    )
