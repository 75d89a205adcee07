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
}
