//! Bounded exponential backoff shared by the TCP dialer and the courier.

use std::time::Duration;

/// Retry schedule: `max_attempts` tries, waiting `base · 2^attempt` between
/// them, clamped to `cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts as attempt 0).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl RetryPolicy {
    /// Builds a policy.
    pub fn new(max_attempts: u32, base: Duration, cap: Duration) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        RetryPolicy {
            max_attempts,
            base,
            cap,
        }
    }

    /// Tight schedule for in-process loopback tests.
    pub fn fast_local() -> Self {
        RetryPolicy::new(6, Duration::from_millis(2), Duration::from_millis(50))
    }

    /// Default schedule for localhost TCP: six attempts spanning ≈ 3 s.
    /// Meant for the [courier's](crate::Courier) end-to-end ARQ loop.
    pub fn tcp_default() -> Self {
        RetryPolicy::new(6, Duration::from_millis(50), Duration::from_secs(1))
    }

    /// Link-level dial schedule for [`crate::EventTransport`]: a short
    /// connection-establishment window, not an ARQ. The courier already
    /// retransmits end to end, and its schedule multiplies with this one
    /// (every courier attempt re-enters the transport's internal retry),
    /// so a long link schedule turns one dead peer into a multi-second
    /// stall of the whole broadcast — long enough for healthy peers to
    /// exhaust their own patience. Keep the link snappy and let the
    /// courier own persistence.
    pub fn tcp_link() -> Self {
        RetryPolicy::new(3, Duration::from_millis(50), Duration::from_millis(250))
    }

    /// Backoff to sleep after attempt number `attempt` (0-based) fails.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy::new(8, Duration::from_millis(10), Duration::from_millis(45));
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(45));
        assert_eq!(p.backoff(30), Duration::from_millis(45));
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::new(0, Duration::ZERO, Duration::ZERO);
    }
}
