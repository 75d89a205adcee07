//! Periodic activity helper.
//!
//! The paper's schedulers invoke the preemption routine "periodically
//! (after every minute)". Keeping an event in the queue for every future
//! minute of a months-long trace would be wasteful, so [`Ticker`] schedules
//! exactly one pending tick at a time and re-arms itself whenever the
//! simulation still has work outstanding.

use crate::time::{Secs, SimTime};

/// Generates an unbounded series of aligned periodic instants, one at a
/// time. The caller pushes the returned instant into its event queue and
/// calls [`Ticker::fired`] when it is delivered.
#[derive(Clone, Debug)]
pub struct Ticker {
    period: Secs,
    /// The single outstanding tick, if armed.
    pending: Option<SimTime>,
}

impl Ticker {
    /// A ticker firing every `period` seconds. `period` must be positive.
    pub fn new(period: Secs) -> Self {
        assert!(period > 0, "tick period must be positive, got {period}");
        Ticker {
            period,
            pending: None,
        }
    }

    /// The tick period in seconds.
    pub fn period(&self) -> Secs {
        self.period
    }

    /// Arm the ticker if idle: returns the next tick instant strictly after
    /// `now`, aligned to multiples of the period, or `None` when a tick is
    /// already outstanding (so callers can arm opportunistically from any
    /// event handler without flooding the queue).
    pub fn arm(&mut self, now: SimTime) -> Option<SimTime> {
        if self.pending.is_some() {
            return None;
        }
        let next = self.next_after(now);
        self.pending = Some(next);
        Some(next)
    }

    /// Arm the ticker at its first tick at or after `from` seconds (any
    /// real instant, `+∞` included) and strictly after `now`, provided that
    /// tick falls before `before`; returns the armed instant. Returns
    /// `None`, leaving the ticker as it was, when a tick is already
    /// outstanding or none falls in that window. A tick is never armed
    /// later than the first multiple of the period at or after `from`.
    pub fn arm_from(&mut self, now: SimTime, from: f64, before: SimTime) -> Option<SimTime> {
        if self.pending.is_some() {
            return None;
        }
        let next = self.next_after(now);
        let at = if from <= next.secs() as f64 {
            next
        } else if from < before.secs() as f64 {
            let p = self.period as f64;
            SimTime::new((from / p).ceil() as i64 * self.period)
        } else {
            return None;
        };
        if at >= before {
            return None;
        }
        self.pending = Some(at);
        Some(at)
    }

    /// Record that the tick scheduled for `at` was delivered, disarming the
    /// ticker. Stale ticks (not matching the outstanding one) return
    /// `false` and should be ignored by the caller.
    pub fn fired(&mut self, at: SimTime) -> bool {
        if self.pending == Some(at) {
            self.pending = None;
            true
        } else {
            false
        }
    }

    /// Whether a tick is outstanding.
    pub fn is_armed(&self) -> bool {
        self.pending.is_some()
    }

    /// First multiple of the period strictly after `now`: the instant
    /// [`Ticker::arm`] would schedule from `now`.
    pub fn next_after(&self, now: SimTime) -> SimTime {
        let p = self.period;
        let s = now.secs();
        let next = (s.div_euclid(p) + 1) * p;
        SimTime::new(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn ticks_align_to_period_multiples() {
        let mut k = Ticker::new(60);
        assert_eq!(k.arm(t(0)), Some(t(60)));
        assert!(k.fired(t(60)));
        assert_eq!(k.arm(t(60)), Some(t(120)));
        assert!(k.fired(t(120)));
        assert_eq!(k.arm(t(121)), Some(t(180)));
    }

    #[test]
    fn only_one_outstanding_tick() {
        let mut k = Ticker::new(60);
        assert!(k.arm(t(0)).is_some());
        assert!(k.arm(t(0)).is_none());
        assert!(k.arm(t(30)).is_none());
        assert!(k.is_armed());
        assert!(k.fired(t(60)));
        assert!(!k.is_armed());
        assert!(k.arm(t(60)).is_some());
    }

    #[test]
    fn stale_fires_are_rejected() {
        let mut k = Ticker::new(60);
        k.arm(t(0));
        assert!(!k.fired(t(30)));
        assert!(k.is_armed());
        assert!(k.fired(t(60)));
        assert!(!k.fired(t(60)), "double fire must be rejected");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = Ticker::new(0);
    }

    #[test]
    fn mid_period_arm_rounds_up() {
        let mut k = Ticker::new(100);
        assert_eq!(k.arm(t(250)), Some(t(300)));
    }

    #[test]
    fn arm_from_takes_the_first_tick_in_the_window() {
        let mut k = Ticker::new(60);
        // Never at or before `now`, however early `from` is.
        assert_eq!(k.arm_from(t(100), 30.0, t(1_000)), Some(t(120)));
        assert!(k.fired(t(120)));
        // A tick at `from` itself, and the next one past a fraction.
        assert_eq!(k.arm_from(t(120), 600.0, t(1_000)), Some(t(600)));
        assert!(k.fired(t(600)));
        assert_eq!(k.arm_from(t(600), 9_940.000_001, t(20_000)), Some(t(9_960)));
        assert!(k.fired(t(9_960)));
        // Nothing before `before`: the ticker stays idle.
        assert_eq!(k.arm_from(t(0), 900.0, t(900)), None);
        assert_eq!(k.arm_from(t(0), 850.0, t(890)), None);
        assert_eq!(k.arm_from(t(0), f64::INFINITY, SimTime::MAX), None);
        assert!(!k.is_armed());
        // An outstanding tick is never moved.
        assert_eq!(k.arm(t(0)), Some(t(60)));
        assert_eq!(k.arm_from(t(0), 300.0, t(1_000)), None);
        assert!(k.fired(t(60)));
    }
}
