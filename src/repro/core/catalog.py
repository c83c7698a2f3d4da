"""The built-in assertion catalog.

Each assertion encodes one domain-expert expectation about a healthy AD
control loop.  The catalog deliberately mixes four families (the E8
ablation quantifies their complementary value):

* **behaviour** (A1-A3, A12-A15) — the vehicle's actual motion stays within
  lane/comfort/progress envelopes.  These use ground-truth channels where
  available (we are debugging in simulation, as the paper does in CARLA)
  and detect that *something* is wrong, slowly.
* **consistency** (A4-A9) — redundant observable channels must agree:
  GPS vs. dead reckoning, GPS-derived speed vs. wheel speed, gyro vs.
  compass, EKF innovations vs. their chi-square envelope.  These localize
  *which channel* lies, and they fire before the vehicle visibly deviates.
* **stability** (A10-A11, A13) — the control loop itself behaves: progress
  is made, steering does not limit-cycle or saturate persistently.
* **actuation** (A16) — the plant executes what the controller commanded.

A sixth, later-authored group scores *graceful degradation* under benign
sensor faults (:mod:`repro.faults`): A21 bounds tracking error inside
fault windows, A22 demands a safe-stop response to multi-sensor loss.
Both read only trace channels, so they judge supervised and unsupervised
stacks alike — experiment E14 is built on that symmetry.

Every assertion documents its rationale, its threshold provenance, and the
attack/fault signatures it is designed to catch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque

import numpy as np

from repro.core.dsl import BoundAssertion, TraceAssertion, WindowMeanBoundAssertion
from repro.geom.angles import angle_diff
from repro.trace.schema import TraceColumns, TraceRecord

__all__ = [
    "default_catalog",
    "make_assertion",
    "CATALOG_IDS",
    "CATALOG_STAGES",
]

_SETTLE = 8.0  # seconds of launch transient excluded from behaviour checks


def _divisor(values: np.ndarray) -> np.ndarray:
    """``values``, after raising what a Python float division by any of
    them would: array division turns ``x / 0.0`` into inf or NaN."""
    if (values == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    return values


def _at_rows(
    n: int, rows: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A ``margin_array`` result applicable only at ``rows``."""
    margins = np.zeros(n, dtype=np.float64)
    applicable = np.zeros(n, dtype=bool)
    margins[rows] = values
    applicable[rows] = True
    return margins, applicable


# ---------------------------------------------------------------------------
# Consistency assertions (custom state machines)
# ---------------------------------------------------------------------------
class GpsDeadReckoningAssertion(TraceAssertion):
    """A4 — GPS fixes must agree with wheel/compass dead reckoning.

    The monitor integrates wheel speed along compass heading from a
    periodically re-anchored origin; every fresh GPS fix is compared to
    the dead-reckoned position.  The allowed divergence grows slowly with
    distance travelled (odometry scale error + heading noise) from a base
    of ~3x GPS noise.

    Signatures: a *bias/jump* spoof violates at onset only (offset is
    consistent afterwards); a *drift* spoof re-violates every anchor
    window; *freeze* and *replay* diverge as the vehicle moves.
    """

    def __init__(self, anchor_window: float = 8.0, base_bound: float = 1.4,
                 per_meter: float = 0.015, min_travel: float = 3.0):
        super().__init__(
            "A4", "GPS / dead-reckoning consistency", "consistency",
            settle_time=2.0, debounce_on=2, debounce_off=10,
        )
        self.anchor_window = anchor_window
        self.base_bound = base_bound
        self.per_meter = per_meter
        self.min_travel = min_travel
        self.on_reset()

    def on_reset(self) -> None:
        self._anchor: tuple[float, float, float] | None = None  # (t, x, y)
        self._dr_x = 0.0
        self._dr_y = 0.0
        self._dist = 0.0
        self._heading: float | None = None
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        # Heading for dead reckoning: compass-anchored, gyro-propagated
        # between compass samples (removes the staleness error a raw
        # zero-order-held compass would add in corners).
        if record.compass_fresh or self._heading is None:
            self._heading = record.compass_yaw
        if self._last_t is not None:
            dt = record.t - self._last_t
            if not record.compass_fresh:
                self._heading += record.imu_yaw_rate * dt
            mid_heading = self._heading - 0.5 * record.imu_yaw_rate * dt
            step = record.odom_speed * dt
            self._dr_x += step * math.cos(mid_heading)
            self._dr_y += step * math.sin(mid_heading)
            self._dist += abs(step)
        self._last_t = record.t

        if not record.gps_fresh:
            return None
        if self._anchor is None or (record.t - self._anchor[0]) >= self.anchor_window:
            self._anchor = (record.t, record.gps_x, record.gps_y)
            self._dr_x = record.gps_x
            self._dr_y = record.gps_y
            self._dist = 0.0
            return None
        if self._dist < self.min_travel:
            # A stationary (or barely moved) vehicle gives the comparison
            # no leverage: the residual is pure receiver noise/walk.
            return None
        error = math.hypot(record.gps_x - self._dr_x, record.gps_y - self._dr_y)
        bound = self.base_bound + self.per_meter * self._dist
        return 1.0 - error / bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Dead reckoning is a sequential trig recurrence: run margin()'s
        # exact scalar steps over the eight channels it reads.
        n = cols.n
        margins = [0.0] * n
        applicable = [False] * n
        anchor_t = heading = last_t = None
        dr_x = dr_y = dist = 0.0
        rows = zip(*(cols.get(name).tolist() for name in (
            "t", "compass_fresh", "compass_yaw", "imu_yaw_rate",
            "odom_speed", "gps_fresh", "gps_x", "gps_y")))
        for i, (t, compass_fresh, compass_yaw, yaw_rate, speed, gps_fresh,
                gps_x, gps_y) in enumerate(rows):
            if compass_fresh or heading is None:
                heading = compass_yaw
            if last_t is not None:
                dt = t - last_t
                if not compass_fresh:
                    heading += yaw_rate * dt
                mid_heading = heading - 0.5 * yaw_rate * dt
                step = speed * dt
                dr_x += step * math.cos(mid_heading)
                dr_y += step * math.sin(mid_heading)
                dist += abs(step)
            last_t = t
            if not gps_fresh:
                continue
            if anchor_t is None or (t - anchor_t) >= self.anchor_window:
                anchor_t = t
                dr_x = gps_x
                dr_y = gps_y
                dist = 0.0
                continue
            if dist < self.min_travel:
                continue
            error = math.hypot(gps_x - dr_x, gps_y - dr_y)
            bound = self.base_bound + self.per_meter * dist
            margins[i] = 1.0 - error / bound
            applicable[i] = True
        return np.array(margins), np.array(applicable, dtype=bool)


class GpsJumpAssertion(TraceAssertion):
    """A5 — consecutive GPS fixes must be kinematically plausible.

    The distance between consecutive fixes is bounded by the wheel-speed
    envelope over the fix interval plus a noise allowance.  Catches
    jump-and-hold spoofs, replay onsets, and jamming-grade noise; a slow
    drift is (by design) invisible to this assertion.
    """

    def __init__(self, speed_margin: float = 3.0, base_allowance: float = 2.2):
        super().__init__(
            "A5", "GPS jump plausibility", "consistency",
            settle_time=1.0, debounce_on=1, debounce_off=3,
        )
        self.speed_margin = speed_margin
        self.base_allowance = base_allowance
        self.on_reset()

    def on_reset(self) -> None:
        self._prev_fix: tuple[float, float, float] | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if not record.gps_fresh:
            return None
        prev = self._prev_fix
        self._prev_fix = (record.t, record.gps_x, record.gps_y)
        if prev is None:
            return None
        dt_fix = record.t - prev[0]
        if dt_fix <= 0:
            return None
        dist = math.hypot(record.gps_x - prev[1], record.gps_y - prev[2])
        bound = (record.odom_speed + self.speed_margin) * dt_fix + self.base_allowance
        return 1.0 - dist / bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Each fix is compared with the previous fix: pair consecutive
        # fresh samples, keep math.hypot scalar.
        fixes = np.flatnonzero(cols.get("gps_fresh"))
        cur, prev = fixes[1:], fixes[:-1]
        t = cols.get("t")
        x = cols.get("gps_x")
        y = cols.get("gps_y")
        with np.errstate(all="ignore"):
            dt_fix = t[cur] - t[prev]
            ok = ~(dt_fix <= 0)
            cur, prev, dt_fix = cur[ok], prev[ok], dt_fix[ok]
            dist = np.array([math.hypot(dx, dy) for dx, dy in zip(
                (x[cur] - x[prev]).tolist(), (y[cur] - y[prev]).tolist())])
            bound = ((cols.get("odom_speed")[cur] + self.speed_margin) * dt_fix
                     + self.base_allowance)
            return _at_rows(cols.n, cur, 1.0 - dist / _divisor(bound))


class GpsFreezeAssertion(TraceAssertion):
    """A6 — a moving vehicle must see moving GPS fixes.

    Tracks wheel-odometry distance accumulated since the last material GPS
    position change; a frozen receiver lets that distance grow without
    bound.  Noise cannot fake movement out of a literally frozen fix, and
    genuine fixes at driving speed move far more than the change
    threshold per fix interval.
    """

    def __init__(self, move_threshold: float = 0.25, allowed_distance: float = 6.0):
        super().__init__(
            "A6", "GPS freeze detection", "consistency",
            settle_time=2.0, debounce_on=3, debounce_off=5,
        )
        self.move_threshold = move_threshold
        self.allowed_distance = allowed_distance
        self.on_reset()

    def on_reset(self) -> None:
        self._last_fix: tuple[float, float] | None = None
        self._odom_since_move = 0.0
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_t is not None:
            self._odom_since_move += record.odom_speed * (record.t - self._last_t)
        self._last_t = record.t
        if record.gps_fresh:
            fix = (record.gps_x, record.gps_y)
            if self._last_fix is None or (
                math.hypot(fix[0] - self._last_fix[0], fix[1] - self._last_fix[1])
                > self.move_threshold
            ):
                self._last_fix = fix
                self._odom_since_move = 0.0
        return 1.0 - self._odom_since_move / self.allowed_distance

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, None]:
        # The odometry accumulator restarts whenever a fix moves: keep the
        # sequential sum and the hypot test scalar, divide as an array.
        t = cols.get("t")
        with np.errstate(all="ignore"):
            travel = (cols.get("odom_speed")[1:] * (t[1:] - t[:-1])).tolist()
        since_move = [0.0] * cols.n
        odom = 0.0
        last_fix = None
        for i, (fresh, x, y) in enumerate(zip(
                cols.get("gps_fresh").tolist(), cols.get("gps_x").tolist(),
                cols.get("gps_y").tolist())):
            if i:
                odom += travel[i - 1]
            if fresh and (last_fix is None or math.hypot(
                    x - last_fix[0], y - last_fix[1]) > self.move_threshold):
                last_fix = (x, y)
                odom = 0.0
            since_move[i] = odom
        with np.errstate(all="ignore"):
            return 1.0 - np.array(since_move) / self.allowed_distance, None


class SpeedConsistencyAssertion(TraceAssertion):
    """A7 — GPS-derived ground speed must match wheel speed.

    Positions of fixes ~1 s apart give an independent speed estimate; a
    scaled wheel-speed message (or a frozen/replayed GPS) breaks the
    agreement.  The bound absorbs GPS noise differentiated over the
    baseline (~0.7 m/s) with 3x headroom.
    """

    def __init__(self, baseline: float = 1.0, bound: float = 2.2):
        super().__init__(
            "A7", "GPS / wheel-speed consistency", "consistency",
            settle_time=3.0, debounce_on=2, debounce_off=8,
        )
        self.baseline = baseline
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._fixes: list[tuple[float, float, float]] = []
        self._odom: list[tuple[float, float]] = []

    def margin(self, record: TraceRecord) -> float | None:
        self._odom.append((record.t, record.odom_speed))
        cutoff = record.t - 2.0 * self.baseline
        while self._odom and self._odom[0][0] < cutoff:
            self._odom.pop(0)
        if not record.gps_fresh:
            return None
        self._fixes.append((record.t, record.gps_x, record.gps_y))
        while self._fixes and self._fixes[0][0] < cutoff:
            self._fixes.pop(0)
        old = None
        for fix in self._fixes:
            if record.t - fix[0] >= self.baseline:
                old = fix
        if old is None:
            return None
        span = record.t - old[0]
        v_gps = math.hypot(record.gps_x - old[1], record.gps_y - old[2]) / span
        odom_in_span = [v for (tt, v) in self._odom if tt >= old[0]]
        if not odom_in_span:
            return None
        v_odom = sum(odom_in_span) / len(odom_in_span)
        return 1.0 - abs(v_gps - v_odom) / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # margin()'s odometry buffer always holds a contiguous run of
        # steps (one append per step, pops from the front), so it is
        # the index window [head, i]; with sorted timestamps its samples
        # at or after the baseline fix are a suffix, found by bisection.
        # The fix buffer is a deque, scanned from the newest fix.
        n = cols.n
        margins = [0.0] * n
        applicable = [False] * n
        t_arr = cols.get("t")
        sorted_t = bool((t_arr[1:] >= t_arr[:-1]).all())
        times = t_arr.tolist()
        speeds = cols.get("odom_speed").tolist()
        head = 0
        fixes: deque[tuple[float, float, float]] = deque()
        for i, (t, fresh, x, y) in enumerate(zip(
                times, cols.get("gps_fresh").tolist(),
                cols.get("gps_x").tolist(), cols.get("gps_y").tolist())):
            cutoff = t - 2.0 * self.baseline
            while head <= i and times[head] < cutoff:
                head += 1
            if not fresh:
                continue
            fixes.append((t, x, y))
            while fixes and fixes[0][0] < cutoff:
                fixes.popleft()
            old = None
            for fix in reversed(fixes):
                if t - fix[0] >= self.baseline:
                    old = fix
                    break
            if old is None:
                continue
            span = t - old[0]
            v_gps = math.hypot(x - old[1], y - old[2]) / span
            if sorted_t:
                odom_in_span = speeds[bisect_left(times, old[0], head, i + 1):
                                      i + 1]
            else:
                odom_in_span = [speeds[j] for j in range(head, i + 1)
                                if times[j] >= old[0]]
            if not odom_in_span:
                continue
            v_odom = sum(odom_in_span) / len(odom_in_span)
            margins[i] = 1.0 - abs(v_gps - v_odom) / self.bound
            applicable[i] = True
        return np.array(margins), np.array(applicable, dtype=bool)


class ImuCompassConsistencyAssertion(TraceAssertion):
    """A8 — integrated gyro rate must match the compass heading change.

    Over a sliding window, the heading change implied by integrating the
    gyro is compared with the absolute heading change reported by the
    compass.  An injected gyro bias accumulates linearly in the window; a
    compass spoof appears as a step while the window spans its onset.
    """

    def __init__(self, window: float = 4.0, bound: float = 0.15):
        super().__init__(
            "A8", "IMU / compass consistency", "consistency",
            settle_time=2.0, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._gyro_integral = 0.0
        self._compass_unwrapped: float | None = None
        self._buffer: list[tuple[float, float, float]] = []  # (t, gyro_int, compass)
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_t is not None:
            self._gyro_integral += record.imu_yaw_rate * (record.t - self._last_t)
        self._last_t = record.t

        if self._compass_unwrapped is None:
            self._compass_unwrapped = record.compass_yaw
        else:
            self._compass_unwrapped += angle_diff(
                record.compass_yaw, self._compass_unwrapped
            )
        self._buffer.append((record.t, self._gyro_integral, self._compass_unwrapped))
        cutoff = record.t - self.window
        while self._buffer and self._buffer[0][0] < cutoff:
            self._buffer.pop(0)
        if self._buffer[-1][0] - self._buffer[0][0] < 0.75 * self.window:
            return None
        gyro_delta = self._buffer[-1][1] - self._buffer[0][1]
        compass_delta = self._buffer[-1][2] - self._buffer[0][2]
        return 1.0 - abs(gyro_delta - compass_delta) / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # The gyro integral is a running sum and the compass unwrap a
        # scalar fmod chain; both run in margin()'s order.
        n = cols.n
        margins = [0.0] * n
        applicable = [False] * n
        t = cols.get("t")
        with np.errstate(all="ignore"):
            turn = (cols.get("imu_yaw_rate")[1:] * (t[1:] - t[:-1])).tolist()
        gyro = 0.0
        compass = None
        buffer: deque[tuple[float, float, float]] = deque()
        for i, (ti, yaw) in enumerate(zip(
                t.tolist(), cols.get("compass_yaw").tolist())):
            if i:
                gyro += turn[i - 1]
            if compass is None:
                compass = yaw
            else:
                compass += angle_diff(yaw, compass)
            buffer.append((ti, gyro, compass))
            cutoff = ti - self.window
            while buffer and buffer[0][0] < cutoff:
                buffer.popleft()
            first, last = buffer[0], buffer[-1]
            if last[0] - first[0] < 0.75 * self.window:
                continue
            margins[i] = 1.0 - abs(
                (last[1] - first[1]) - (last[2] - first[2])) / self.bound
            applicable[i] = True
        return np.array(margins), np.array(applicable, dtype=bool)


# ---------------------------------------------------------------------------
# Stability / progress assertions
# ---------------------------------------------------------------------------
class RouteProgressAssertion(TraceAssertion):
    """A10 — when commanded to move, the (estimated) route station advances.

    Over each sliding window with a meaningful commanded speed, the
    station must advance at least a fraction of the commanded distance.
    A frozen estimate, a stopped vehicle, or a controller chasing a
    spoofed position all stall the station.
    """

    def __init__(self, window: float = 5.0, min_fraction: float = 0.3,
                 min_target: float = 1.5):
        super().__init__(
            "A10", "route progress", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.min_fraction = min_fraction
        self.min_target = min_target
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float, float]] = []  # (t, station, target_v)
        # Prefix sums over target speed (reset on station wrap): the
        # window mean is (cum - prev_cum) / len(buffer), which the
        # vectorized path reproduces bit-for-bit via np.cumsum.
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        if buf and record.station_est < buf[-1][1] - 10.0:
            # Station wrapped (closed route) or projection snapped; restart.
            buf.clear()
            self._cum = 0.0
            self._prev_cum = 0.0
        buf.append((record.t, record.station_est, record.target_speed))
        self._cum = self._cum + record.target_speed
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = self._prev_cum + buf.pop(0)[2]
        span = buf[-1][0] - buf[0][0]
        if span < 0.75 * self.window:
            return None
        mean_target = (self._cum - self._prev_cum) / len(buf)
        if mean_target < self.min_target:
            return None
        expected = mean_target * span * self.min_fraction
        actual = buf[-1][1] - buf[0][1]
        return actual / expected - 1.0

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        n = t.size
        station = np.asarray(cols.station_est, dtype=np.float64)
        target = np.asarray(cols.target_speed, dtype=np.float64)
        margins = np.zeros(n, dtype=np.float64)
        applicable = np.zeros(n, dtype=bool)
        # Segment boundaries: the per-step path clears its buffer when
        # the station drops by more than 10 m between consecutive steps.
        wraps = np.flatnonzero(station[1:] < station[:-1] - 10.0) + 1
        seg_starts = np.concatenate(([0], wraps, [n]))
        idx = np.arange(n)
        win_lo = np.searchsorted(t, t - self.window, side="left")
        for a, b in zip(seg_starts[:-1].tolist(), seg_starts[1:].tolist()):
            lo = np.maximum(win_lo[a:b], a)
            cum = np.cumsum(target[a:b])
            prev = np.where(lo > a, cum[lo - a - 1], 0.0)
            count = idx[a:b] - lo + 1
            span = t[a:b] - t[lo]
            mean_target = (cum - prev) / count
            ok = ~(span < 0.75 * self.window) & ~(mean_target < self.min_target)
            expected = mean_target * span * self.min_fraction
            actual = station[a:b] - station[lo]
            with np.errstate(divide="ignore", invalid="ignore"):
                margins[a:b] = np.where(ok, actual / expected - 1.0, 0.0)
            applicable[a:b] = ok
        return margins, applicable


class SteeringOscillationAssertion(TraceAssertion):
    """A11 — the steering command must not limit-cycle.

    Counts deadband-filtered sign changes of the steering command's
    deviation from its window mean; a healthy tuned loop produces well
    under 1 Hz, while added actuation latency or excessive gain produces a
    sustained multi-hertz oscillation.
    """

    def __init__(self, window: float = 4.0, max_rate_hz: float = 0.4,
                 deadband: float = 0.15, min_speed: float = 2.0):
        super().__init__(
            "A11", "steering oscillation", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=20,
        )
        self.window = window
        self.max_rate_hz = max_rate_hz
        self.deadband = deadband
        self.min_speed = min_speed
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float]] = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        buf.append((record.t, record.steer_cmd))
        self._cum = self._cum + record.steer_cmd
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = self._prev_cum + buf.pop(0)[1]
        span = buf[-1][0] - buf[0][0]
        if span < 0.75 * self.window or record.est_v < self.min_speed:
            return None
        mean = (self._cum - self._prev_cum) / len(buf)
        last_sign = 0
        changes = 0
        for _, s in buf:
            dev = s - mean
            sign = 1 if dev > self.deadband else -1 if dev < -self.deadband else 0
            if sign != 0:
                if last_sign != 0 and sign != last_sign:
                    changes += 1
                last_sign = sign
        rate = changes / span
        return 1.0 - rate / self.max_rate_hz

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        n = t.size
        steer = np.asarray(cols.steer_cmd, dtype=np.float64)
        margins = np.zeros(n, dtype=np.float64)
        lo = np.searchsorted(t, t - self.window, side="left")
        span = t - t[lo]
        applicable = (~(span < 0.75 * self.window)
                      & ~(cols.est_v < self.min_speed))
        cum = np.cumsum(steer)
        prev = np.where(lo > 0, cum[lo - 1], 0.0)
        count = np.arange(1, n + 1) - lo
        means = (cum - prev) / count
        rows = np.flatnonzero(applicable)
        if rows.size == 0:
            return margins, applicable
        # The sign-change count depends on the window *mean*, which moves
        # every step — no shared prefix structure — so build one
        # right-aligned 2D view of all applicable windows and count
        # alternations along the rows.  Out-of-window cells are forced to
        # sign 0, which the skip-zeros semantics ignores, exactly like
        # the per-step deadband does; NaN deviations compare False on
        # both sides -> sign 0 there too.
        width = int(count[rows].max())
        padded = np.concatenate((np.zeros(width - 1), steer))
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, width)[rows]
        dev = windows - means[rows, None]
        signs = ((dev > self.deadband).astype(np.int8)
                 - (dev < -self.deadband).astype(np.int8))
        cols_idx = np.arange(width)
        in_window = cols_idx[None, :] >= (lo[rows] - rows + width - 1)[:, None]
        signs[~in_window] = 0
        nonzero = signs != 0
        # Index of the last nonzero sign strictly before each cell.
        last_nz = np.maximum.accumulate(
            np.where(nonzero, cols_idx[None, :], -1), axis=1)
        prev_nz = np.concatenate(
            (np.full((rows.size, 1), -1, dtype=last_nz.dtype),
             last_nz[:, :-1]), axis=1)
        prev_sign = np.take_along_axis(
            signs, np.maximum(prev_nz, 0), axis=1)
        prev_sign[prev_nz < 0] = 0
        flips = nonzero & (prev_sign != 0) & (signs != prev_sign)
        changes = np.count_nonzero(flips, axis=1)
        rate = changes / span[rows]
        margins[rows] = 1.0 - rate / self.max_rate_hz
        return margins, applicable


class SteeringSaturationAssertion(TraceAssertion):
    """A13 — the steering command must not sit at its limit for long.

    Persistent saturation means the controller has lost authority
    (divergence, an unreachable spoofed target, or a hard fault).
    """

    def __init__(self, window: float = 3.0, max_fraction: float = 0.6,
                 steer_limit: float = 0.61):
        super().__init__(
            "A13", "steering saturation", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.max_fraction = max_fraction
        self.threshold = 0.95 * steer_limit
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, bool]] = []

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        buf.append((record.t, abs(record.steer_cmd) >= self.threshold))
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            buf.pop(0)
        if buf[-1][0] - buf[0][0] < 0.75 * self.window:
            return None
        fraction = sum(1 for _, sat in buf if sat) / len(buf)
        return 1.0 - fraction / self.max_fraction

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Saturated-sample fractions are integer-count ratios, so the
        # prefix-sum-of-counts form is exact (int64 counts, one division).
        t = cols.get("t")
        sat = np.abs(cols.get("steer_cmd")) >= self.threshold
        cum = np.cumsum(sat.astype(np.int64))
        lo = np.searchsorted(t, t - self.window, side="left")
        count = np.arange(1, t.size + 1) - lo
        prev = np.where(lo > 0, cum[lo - 1], 0)
        fraction = (cum - prev) / count
        margins = 1.0 - fraction / self.max_fraction
        applicable = (t - t[lo]) >= 0.75 * self.window
        return margins, applicable


class SpeedTrackingAssertion(TraceAssertion):
    """A14 — estimated speed tracks the commanded target speed.

    Window-mean of the absolute tracking error; sustained error means the
    longitudinal loop is broken (actuation fault, gross estimator error,
    or an infeasible speed profile).
    """

    def __init__(self, window: float = 3.0, bound: float = 2.0):
        super().__init__(
            "A14", "speed tracking", "behaviour",
            settle_time=10.0, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float]] = []
        self._cum = 0.0
        self._prev_cum = 0.0

    def _clear(self) -> None:
        self._buffer.clear()
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        if record.target_speed < 1.0:
            # Stopping / stopped: tracking error is dominated by the
            # deliberate braking profile, not by a fault.
            self._clear()
            return None
        if record.lead_present and record.radar_range < (
            5.0 + 2.5 * record.est_v
        ):
            # ACC is (apparently) constraining the speed below the cruise
            # profile: tracking error against the profile is expected.
            self._clear()
            return None
        # Window mean as a prefix-sum difference (the running sum restarts
        # at every clear), matching the vectorized per-segment cumsum.
        self._cum = self._cum + abs(record.est_v - record.target_speed)
        buf = self._buffer
        buf.append((record.t, self._cum))
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = buf.pop(0)[1]
        if buf[-1][0] - buf[0][0] < 0.75 * self.window:
            return None
        mean = (self._cum - self._prev_cum) / len(buf)
        return 1.0 - mean / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.get("t")
        clear = (cols.get("target_speed") < 1.0) | (
            cols.get("lead_present")
            & (cols.get("radar_range") < (5.0 + 2.5 * cols.get("est_v")))
        )
        margins = np.zeros(t.size, dtype=np.float64)
        applicable = np.zeros(t.size, dtype=bool)
        keep = ~clear
        if not keep.any():
            return margins, applicable
        errors = np.abs(cols.get("est_v") - cols.get("target_speed"))
        # Maximal runs of non-cleared samples; the window state restarts
        # at each clear, so every run is an independent prefix-sum world.
        flips = np.flatnonzero(keep[1:] != keep[:-1]) + 1
        starts = np.concatenate(([0], flips))
        ends = np.concatenate((flips, [keep.size]))
        for s, e in zip(starts.tolist(), ends.tolist()):
            if not keep[s]:
                continue
            tt = t[s:e]
            cum = np.cumsum(errors[s:e])
            lo = np.searchsorted(tt, tt - self.window, side="left")
            count = np.arange(1, tt.size + 1) - lo
            prev = np.where(lo > 0, cum[lo - 1], 0.0)
            margins[s:e] = 1.0 - ((cum - prev) / count) / self.bound
            applicable[s:e] = (tt - tt[lo]) >= 0.75 * self.window
        return margins, applicable


class GoalReachedAssertion(TraceAssertion):
    """A15 — the vehicle eventually reaches the route goal (liveness).

    Evaluated once at end of trace: the minimum distance-to-goal seen must
    be below the goal radius.  Not applicable to closed (loop) routes,
    which the engine marks with a negative ``dist_to_goal``.
    """

    def __init__(self, goal_radius: float = 3.0):
        super().__init__(
            "A15", "goal reached", "liveness",
            settle_time=0.0, debounce_on=1, debounce_off=1,
        )
        self.goal_radius = goal_radius
        self.on_reset()

    def on_reset(self) -> None:
        self._min_dist = math.inf
        self._applicable = False

    def margin(self, record: TraceRecord) -> float | None:
        if record.dist_to_goal >= 0.0:
            self._applicable = True
            self._min_dist = min(self._min_dist, record.dist_to_goal)
        return None

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Never applicable per step; record the minimum for end_margin()
        # as margin() does (NaN distances fail the >= test on both paths).
        dist = cols.get("dist_to_goal")
        on_route = dist[dist >= 0.0]
        if on_route.size:
            self._applicable = True
            self._min_dist = float(on_route.min())
        return np.zeros(cols.n), np.zeros(cols.n, dtype=bool)

    def end_margin(self, last_record: TraceRecord | None) -> float | None:
        if not self._applicable:
            return None
        return 1.0 - self._min_dist / self.goal_radius


class SafeHeadwayAssertion(TraceAssertion):
    """A17 — keep a minimum time gap to the lead vehicle.

    The fundamental car-following safety envelope: ground-truth gap over
    ego speed must stay above a minimum headway.  Only applicable while a
    lead vehicle is present and the ego is actually moving.
    """

    def __init__(self, min_headway: float = 1.0, min_speed: float = 2.0):
        super().__init__(
            "A17", "safe headway", "behaviour",
            settle_time=_SETTLE, debounce_on=3, debounce_off=15,
        )
        self.min_headway = min_headway
        self.min_speed = min_speed

    def margin(self, record: TraceRecord) -> float | None:
        if not record.lead_present or record.true_v < self.min_speed:
            return None
        headway = record.gap_true / record.true_v
        return headway / self.min_headway - 1.0

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Negated-comparison mask mirrors the per-step guard exactly
        # (including how a NaN speed compares).
        applicable = cols.get("lead_present") & ~(
            cols.get("true_v") < self.min_speed
        )
        margins = np.zeros(applicable.size, dtype=np.float64)
        idx = np.flatnonzero(applicable)
        if idx.size:
            headway = cols.get("gap_true")[idx] / cols.get("true_v")[idx]
            margins[idx] = headway / self.min_headway - 1.0
        return margins, applicable


class RadarJumpAssertion(TraceAssertion):
    """A18 — consecutive radar ranges must be kinematically plausible.

    The range to a real vehicle changes at most at the closing-speed
    envelope; a ghost-target injection appears as a step.  The direct
    radar analogue of the A5 GPS jump check.
    """

    def __init__(self, closing_margin: float = 10.0, base_allowance: float = 1.5):
        super().__init__(
            "A18", "radar range plausibility", "consistency",
            settle_time=2.0, debounce_on=1, debounce_off=5,
        )
        self.closing_margin = closing_margin
        self.base_allowance = base_allowance
        self.on_reset()

    def on_reset(self) -> None:
        self._prev: tuple[float, float] | None = None  # (t, range)

    def margin(self, record: TraceRecord) -> float | None:
        if not record.lead_present or not record.radar_fresh:
            return None
        prev = self._prev
        self._prev = (record.t, record.radar_range)
        if prev is None:
            return None
        dt_track = record.t - prev[0]
        if dt_track <= 0 or dt_track > 1.0:
            # Track was lost for a while; a re-acquire jump is legitimate.
            return None
        delta = abs(record.radar_range - prev[1])
        bound = ((record.odom_speed + self.closing_margin) * dt_track
                 + self.base_allowance)
        return 1.0 - delta / bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Pure elementwise arithmetic over consecutive tracked samples.
        tracked = np.flatnonzero(cols.get("lead_present")
                                 & cols.get("radar_fresh"))
        cur, prev = tracked[1:], tracked[:-1]
        t = cols.get("t")
        radar = cols.get("radar_range")
        with np.errstate(all="ignore"):
            dt_track = t[cur] - t[prev]
            ok = ~((dt_track <= 0) | (dt_track > 1.0))
            cur, prev, dt_track = cur[ok], prev[ok], dt_track[ok]
            delta = np.abs(radar[cur] - radar[prev])
            bound = ((cols.get("odom_speed")[cur] + self.closing_margin)
                     * dt_track + self.base_allowance)
            return _at_rows(cols.n, cur, 1.0 - delta / _divisor(bound))


class RadarRateConsistencyAssertion(TraceAssertion):
    """A19 — the radar's range derivative must match its range-rate.

    A radar track carries redundant information: differentiating the
    range over a short window must reproduce the reported Doppler
    range-rate.  Scaling attacks break exactly this self-consistency
    whenever the relative speed is non-zero.
    """

    def __init__(self, window: float = 1.5, bound: float = 0.9):
        super().__init__(
            "A19", "radar range-rate consistency", "consistency",
            settle_time=2.0, debounce_on=3, debounce_off=10,
        )
        self.window = window
        self.bound = bound
        self.on_reset()

    def on_reset(self) -> None:
        self._tracks: list[tuple[float, float, float]] = []  # (t, range, rate)

    def margin(self, record: TraceRecord) -> float | None:
        if not record.lead_present or not record.radar_fresh:
            return None
        tracks = self._tracks
        if tracks and record.t - tracks[-1][0] > 1.0:
            tracks.clear()  # track dropout: restart the window
        tracks.append((record.t, record.radar_range, record.radar_range_rate))
        cutoff = record.t - self.window
        while tracks and tracks[0][0] < cutoff:
            tracks.pop(0)
        span = tracks[-1][0] - tracks[0][0]
        if span < 0.75 * self.window:
            return None
        slope = (tracks[-1][1] - tracks[0][1]) / span
        mean_rate = sum(rate for _, _, rate in tracks) / len(tracks)
        return 1.0 - abs(slope - mean_rate) / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # Only tracked samples touch the window; keep it as three deques
        # and the mean as builtin sum() over the same values in order.
        tracked = np.flatnonzero(cols.get("lead_present")
                                 & cols.get("radar_fresh"))
        times: deque[float] = deque()
        ranges: deque[float] = deque()
        rates: deque[float] = deque()
        rows, values = [], []
        for i, t, r, rate in zip(
                tracked.tolist(), cols.get("t")[tracked].tolist(),
                cols.get("radar_range")[tracked].tolist(),
                cols.get("radar_range_rate")[tracked].tolist()):
            if times and t - times[-1] > 1.0:
                times.clear()
                ranges.clear()
                rates.clear()
            times.append(t)
            ranges.append(r)
            rates.append(rate)
            cutoff = t - self.window
            while times and times[0] < cutoff:
                times.popleft()
                ranges.popleft()
                rates.popleft()
            span = times[-1] - times[0]
            if span < 0.75 * self.window:
                continue
            slope = (ranges[-1] - ranges[0]) / span
            mean_rate = sum(rates) / len(rates)
            rows.append(i)
            values.append(1.0 - abs(slope - mean_rate) / self.bound)
        return _at_rows(cols.n, np.array(rows, dtype=np.intp),
                        np.array(values, dtype=np.float64))


class ControlResponsivenessAssertion(TraceAssertion):
    """A20 — a persistent tracking error must provoke a steering response.

    Authored during the E13 refinement round: a deadband/truncation defect
    leaves the vehicle riding a steady sub-meter offset that every other
    assertion tolerates.  The signature is *silence where action is due*:
    the estimated cross-track error stays elevated over a window while the
    steering command remains (near) zero.
    """

    def __init__(self, window: float = 3.0, cte_threshold: float = 0.55,
                 min_response: float = 0.02, min_speed: float = 2.0):
        super().__init__(
            "A20", "control responsiveness", "stability",
            settle_time=_SETTLE, debounce_on=3, debounce_off=15,
        )
        self.window = window
        self.cte_threshold = cte_threshold
        self.min_response = min_response
        self.min_speed = min_speed
        self.on_reset()

    def on_reset(self) -> None:
        self._buffer: list[tuple[float, float, float]] = []  # (t, |cte|, |steer|)
        self._cum = 0.0
        self._prev_cum = 0.0

    def margin(self, record: TraceRecord) -> float | None:
        buf = self._buffer
        buf.append((record.t, abs(record.cte_est), abs(record.steer_cmd)))
        self._cum = self._cum + abs(record.cte_est)
        cutoff = record.t - self.window
        while buf and buf[0][0] < cutoff:
            self._prev_cum = self._prev_cum + buf.pop(0)[1]
        if buf[-1][0] - buf[0][0] < 0.75 * self.window:
            return None
        if record.est_v < self.min_speed:
            return None
        mean_cte = (self._cum - self._prev_cum) / len(buf)
        if mean_cte < self.cte_threshold:
            return None
        max_response = max(s for _, _, s in buf)
        return max_response / self.min_response - 1.0

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        n = t.size
        cte_abs = np.abs(np.asarray(cols.cte_est, dtype=np.float64))
        steer_abs = np.abs(np.asarray(cols.steer_cmd, dtype=np.float64))
        margins = np.zeros(n, dtype=np.float64)
        lo = np.searchsorted(t, t - self.window, side="left")
        span = t - t[lo]
        cum = np.cumsum(cte_abs)
        prev = np.where(lo > 0, cum[lo - 1], 0.0)
        count = np.arange(1, n + 1) - lo
        mean_cte = (cum - prev) / count
        applicable = (~(span < 0.75 * self.window)
                      & ~(cols.est_v < self.min_speed)
                      & ~(mean_cte < self.cte_threshold))
        # The window max has no prefix structure; scan only the (rare)
        # applicable windows.  fmax skips NaN like the per-step Python
        # max does — unless the window *starts* on NaN, which Python max
        # propagates, so mirror that case explicitly.
        for i in np.flatnonzero(applicable).tolist():
            seg = steer_abs[lo[i]:i + 1]
            mx = seg[0] if np.isnan(seg[0]) else np.fmax.reduce(seg)
            margins[i] = mx / self.min_response - 1.0
        return margins, applicable


class ActuationConsistencyAssertion(TraceAssertion):
    """A16 — the measured actuator state matches the commanded one.

    Runs a reference model of the steering actuator (first-order lag +
    rate limit + saturation, using the published actuator datasheet
    parameters) on the command stream and compares it with the measured
    steering angle.  Offsets, stuck actuators and in-path command
    tampering all break the match; the closed loop hides them from every
    behavioural assertion.
    """

    def __init__(self, tolerance: float = 0.03, steer_tau: float = 0.15,
                 rate_max: float = 0.8, steer_max: float = 0.61):
        super().__init__(
            "A16", "actuation consistency", "actuation",
            settle_time=2.0, debounce_on=4, debounce_off=10,
        )
        self.tolerance = tolerance
        self.steer_tau = steer_tau
        self.rate_max = rate_max
        self.steer_max = steer_max
        self.on_reset()

    def on_reset(self) -> None:
        self._model_steer = 0.0
        self._last_t: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_t is None:
            self._last_t = record.t
            self._model_steer = record.steer_applied
            return None
        dt = record.t - self._last_t
        self._last_t = record.t
        target = min(max(record.steer_cmd, -self.steer_max), self.steer_max)
        if self.steer_tau > 0:
            alpha = 1.0 - math.exp(-dt / self.steer_tau)
            desired = self._model_steer + alpha * (target - self._model_steer)
        else:
            desired = target
        delta = min(max(desired - self._model_steer, -self.rate_max * dt),
                    self.rate_max * dt)
        self._model_steer = min(max(self._model_steer + delta, -self.steer_max),
                                self.steer_max)
        error = abs(record.steer_applied - self._model_steer)
        return 1.0 - error / self.tolerance

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        # The actuator model is a sequential lag/rate/saturation chain
        # with a scalar math.exp.  Python's max(a, b) is exactly
        # ``b if b > a else a`` (min: ``b if b < a else a``), so the
        # command clamp and the per-step rate limits are arrays and the
        # loop clamps with conditional expressions.
        n = cols.n
        applicable = np.ones(n, dtype=bool)
        applicable[:1] = False
        if n == 0:
            return np.zeros(0), applicable
        t = cols.get("t")
        applied = cols.get("steer_applied")
        hi = self.steer_max
        lo = -self.steer_max
        with np.errstate(all="ignore"):
            dt = t[1:] - t[:-1]
            cmd = cols.get("steer_cmd")[1:]
            cmd = np.where(lo > cmd, lo, cmd)
            target = np.where(hi < cmd, hi, cmd).tolist()
            decay = (-dt / self.steer_tau).tolist() if self.steer_tau > 0 \
                else [None] * (n - 1)
            rate_lo = (-self.rate_max * dt).tolist()
            rate_hi = (self.rate_max * dt).tolist()
        model_steer = applied[0].item()
        model = [model_steer]
        for target_i, decay_i, rate_lo_i, rate_hi_i in zip(
                target, decay, rate_lo, rate_hi):
            if decay_i is None:
                desired = target_i
            else:
                alpha = 1.0 - math.exp(decay_i)
                desired = model_steer + alpha * (target_i - model_steer)
            delta = desired - model_steer
            delta = rate_lo_i if rate_lo_i > delta else delta
            delta = rate_hi_i if rate_hi_i < delta else delta
            steer = model_steer + delta
            steer = lo if lo > steer else steer
            model_steer = hi if hi < steer else steer
            model.append(model_steer)
        with np.errstate(all="ignore"):
            error = np.abs(applied - np.array(model))
            return 1.0 - error / self.tolerance, applicable


class DegradedTrackingAssertion(TraceAssertion):
    """A21 — cross-track error stays bounded inside sensor-fault windows.

    The graceful-degradation contract: a single-sensor fault may cost
    tracking precision but must not cost the lane.  Gated on the trace's
    fault ground truth (``fault_active``), so it is silent on nominal and
    attack-only runs; the bound is tighter than A1's because a degraded
    stack is expected to slow down rather than cut corners.  Stands down
    once a supervisor's safe stop owns the vehicle — the trace-schema
    ``supervisor_mode`` value ``"safe_stop"`` — because a parked vehicle's
    offset from the route is A22's business, not a tracking failure.
    """

    def __init__(self, bound: float = 2.0):
        super().__init__(
            "A21", "degraded-mode tracking", "behaviour",
            settle_time=_SETTLE, debounce_on=3, debounce_off=20,
        )
        self.bound = bound

    def margin(self, record: TraceRecord) -> float | None:
        if not record.fault_active:
            return None
        if record.supervisor_mode == "safe_stop":
            return None
        return 1.0 - abs(record.cte_true) / self.bound

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        applicable = cols.get("fault_active") & (
            cols.get("supervisor_mode") != "safe_stop"
        )
        return 1.0 - np.abs(cols.get("cte_true")) / self.bound, applicable


class SafeStopEngagementAssertion(TraceAssertion):
    """A22 — multi-sensor loss must provoke a stop within a grace period.

    Re-derives channel staleness from the ``*_fresh`` trace flags rather
    than trusting any supervisor state, so it scores the *vehicle's
    response* symmetrically for supervised and unsupervised stacks: once
    two or more channels have been stale past their per-channel budget
    for longer than the engagement grace, the vehicle must either be
    braking (``accel_cmd`` at or below the braking floor) or already
    at rest.  An unsupervised stack that keeps cruising on a coasting
    estimate fires this within ``grace`` seconds of the loss.

    Staleness budgets mirror the supervisor defaults (a few nominal
    sample intervals per channel), and the grace covers the watchdog
    timeout plus one control-loop reaction.
    """

    _STALE_AFTER = {"gps": 1.0, "compass": 1.0, "odometry": 0.6, "imu": 0.4}

    def __init__(self, lost_channels: int = 2, grace: float = 1.5,
                 stop_speed: float = 0.5, brake_floor: float = 0.5):
        super().__init__(
            "A22", "safe-stop engagement", "liveness",
            settle_time=_SETTLE, debounce_on=3, debounce_off=10,
        )
        self.lost_channels = lost_channels
        self.grace = grace
        self.stop_speed = stop_speed
        self.brake_floor = brake_floor
        self.on_reset()

    def on_reset(self) -> None:
        self._last_fresh: dict[str, float] | None = None
        self._stale_since: float | None = None

    def margin(self, record: TraceRecord) -> float | None:
        if self._last_fresh is None:
            self._last_fresh = {ch: record.t for ch in self._STALE_AFTER}
        fresh = {
            "gps": record.gps_fresh,
            "compass": record.compass_fresh,
            "odometry": record.odom_fresh,
            "imu": record.imu_fresh,
        }
        for channel, is_fresh in fresh.items():
            if is_fresh:
                self._last_fresh[channel] = record.t
        stale = sum(
            record.t - self._last_fresh[ch] > budget
            for ch, budget in self._STALE_AFTER.items()
        )
        if stale < self.lost_channels:
            self._stale_since = None
            return None
        if self._stale_since is None:
            self._stale_since = record.t
        if record.t - self._stale_since <= self.grace:
            return None  # engagement window: the stop may still be coming
        return max(
            1.0 - record.true_v / self.stop_speed,
            -record.accel_cmd / self.brake_floor - 1.0,
        )

    _FLAG_CHANNELS = (("gps", "gps_fresh"), ("compass", "compass_fresh"),
                      ("odometry", "odom_fresh"), ("imu", "imu_fresh"))

    def margin_array(
        self, cols: TraceColumns
    ) -> tuple[np.ndarray, np.ndarray]:
        t = cols.t
        n = t.size
        idx = np.arange(n)
        stale_cnt = np.zeros(n, dtype=np.int64)
        for channel, flag in self._FLAG_CHANNELS:
            # Time of the most recent fresh sample (the first record
            # seeds every channel, mirroring the per-step init).
            last = t[np.maximum.accumulate(
                np.where(cols.get(flag), idx, 0))]
            stale_cnt += (t - last) > self._STALE_AFTER[channel]
        active = stale_cnt >= self.lost_channels
        starts = active.copy()
        starts[1:] = active[1:] & ~active[:-1]
        since = t[np.maximum.accumulate(np.where(starts, idx, 0))]
        applicable = active & ~(t - since <= self.grace)
        stopping = 1.0 - cols.get("true_v") / self.stop_speed
        braking = -cols.get("accel_cmd") / self.brake_floor - 1.0
        # np.where(b > a, b, a) is Python's max(a, b) exactly, NaN
        # ordering included.
        margins = np.where(applicable,
                           np.where(braking > stopping, braking, stopping),
                           0.0)
        return margins, applicable


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------
def _make_a1() -> TraceAssertion:
    # 2.5 m keeps the vehicle inside a standard 3.5 m lane with margin.
    return BoundAssertion(
        "A1", "cross-track bound", channel="cte_true", bound=2.5,
        category="behaviour", settle_time=_SETTLE, debounce_on=3, debounce_off=20,
    )


def _make_a2() -> TraceAssertion:
    return BoundAssertion(
        "A2", "heading-error bound", channel="heading_err_true", bound=0.5,
        category="behaviour", settle_time=_SETTLE, debounce_on=3, debounce_off=20,
    )


def _make_a3() -> TraceAssertion:
    # Sustained tracking quality: 5 s mean |cte| stays under 1.2 m.
    return WindowMeanBoundAssertion(
        "A3", "cross-track convergence", channel="cte_true", bound=1.2,
        window=5.0, category="behaviour", settle_time=_SETTLE + 2.0,
        debounce_on=2, debounce_off=20,
    )


def _make_a9g() -> TraceAssertion:
    # 2-dof chi-square mean is 2; a 1.5 s mean above 7 is far outside the
    # nominal envelope while tolerating individual spikes.
    return WindowMeanBoundAssertion(
        "A9G", "EKF GPS innovation bound", channel="nis_gps", bound=7.0,
        window=1.5, category="consistency", settle_time=3.0,
        debounce_on=2, debounce_off=10,
    )


def _make_a9s() -> TraceAssertion:
    return WindowMeanBoundAssertion(
        "A9S", "EKF speed innovation bound", channel="nis_speed", bound=5.0,
        window=1.5, category="consistency", settle_time=3.0,
        debounce_on=2, debounce_off=10,
    )


def _make_a9c() -> TraceAssertion:
    return WindowMeanBoundAssertion(
        "A9C", "EKF heading innovation bound", channel="nis_compass", bound=5.0,
        window=1.5, category="consistency", settle_time=3.0,
        debounce_on=2, debounce_off=10,
    )


def _make_a12() -> TraceAssertion:
    """Lateral-acceleration comfort/safety envelope from observables."""

    class LateralAccelAssertion(TraceAssertion):
        def __init__(self) -> None:
            super().__init__(
                "A12", "lateral acceleration bound", "behaviour",
                settle_time=_SETTLE, debounce_on=3, debounce_off=15,
            )

        def margin(self, record: TraceRecord) -> float:
            lat = abs(record.est_v * record.imu_yaw_rate)
            return 1.0 - lat / 4.5

        def margin_array(
            self, cols: TraceColumns
        ) -> tuple[np.ndarray, None]:
            lat = np.abs(cols.get("est_v") * cols.get("imu_yaw_rate"))
            return 1.0 - lat / 4.5, None

    return LateralAccelAssertion()


_FACTORIES: dict[str, object] = {
    "A1": _make_a1,
    "A2": _make_a2,
    "A3": _make_a3,
    "A4": GpsDeadReckoningAssertion,
    "A5": GpsJumpAssertion,
    "A6": GpsFreezeAssertion,
    "A7": SpeedConsistencyAssertion,
    "A8": ImuCompassConsistencyAssertion,
    "A9G": _make_a9g,
    "A9S": _make_a9s,
    "A9C": _make_a9c,
    "A10": RouteProgressAssertion,
    "A11": SteeringOscillationAssertion,
    "A12": _make_a12,
    "A13": SteeringSaturationAssertion,
    "A14": SpeedTrackingAssertion,
    "A15": GoalReachedAssertion,
    "A16": ActuationConsistencyAssertion,
    "A17": SafeHeadwayAssertion,
    "A18": RadarJumpAssertion,
    "A19": RadarRateConsistencyAssertion,
    "A20": ControlResponsivenessAssertion,
    "A21": DegradedTrackingAssertion,
    "A22": SafeStopEngagementAssertion,
}

CATALOG_IDS: tuple[str, ...] = tuple(_FACTORIES)
"""All assertion ids, in catalog order."""

CATALOG_STAGES: dict[str, tuple[str, ...]] = {
    "behavioural": ("A1", "A2", "A3", "A12", "A14", "A15"),
    "gps_consistency": ("A4", "A5", "A6", "A7"),
    "inertial_innovation": ("A8", "A9G", "A9S", "A9C"),
    "stability_actuation": ("A10", "A11", "A13", "A16", "A20"),
    "radar_acc": ("A17", "A18", "A19"),
    "degradation": ("A21", "A22"),
}
"""The methodology's staged catalog growth (E9 refinement loop order)."""


def make_assertion(assertion_id: str) -> TraceAssertion:
    """A fresh instance of one catalog assertion by id."""
    if assertion_id not in _FACTORIES:
        raise ValueError(
            f"unknown assertion id {assertion_id!r}; "
            f"expected one of {list(CATALOG_IDS)}"
        )
    return _FACTORIES[assertion_id]()


def default_catalog(ids: tuple[str, ...] | list[str] | None = None) -> list[TraceAssertion]:
    """Fresh instances of the full catalog (or a subset by id)."""
    selected = CATALOG_IDS if ids is None else tuple(ids)
    return [make_assertion(aid) for aid in selected]
