//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Checkpoint persistence and journal appends hit a real filesystem, and
//! real filesystems stall: a slow disk, a full volume, an NFS hiccup.
//! Killing the worker over a transient write failure would be exactly the
//! fragility the supervised runtime exists to avoid, so that I/O runs
//! under [`retry`] — three attempts with exponentially growing, jittered
//! sleeps. Jitter comes from a seeded xorshift generator, not the clock,
//! so every run sleeps the same schedule (within OS scheduling noise) and
//! tests stay deterministic.

use std::time::Duration;

/// Total attempts, including the first.
const MAX_ATTEMPTS: u32 = 3;
/// Sleep after the first failure; doubles after each subsequent one.
const BASE_DELAY: Duration = Duration::from_millis(2);
/// Upper bound on any single sleep, applied before jitter.
const MAX_DELAY: Duration = Duration::from_millis(50);
/// Seed for the jitter generator.
const SEED: u64 = 0x5eed_cafe;

/// Splitmix-style step used to derive jitter; pure function of the
/// previous state, so the schedule is reproducible from the seed.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    *state = x;
    x
}

/// The sleep before retry number `attempt` (1-based: attempt 1 is the
/// first *retry*): `BASE_DELAY * 2^(attempt-1)`, capped at `MAX_DELAY`,
/// then scaled by a jitter factor in `[0.5, 1.0]` drawn from `rng_state`.
fn backoff(attempt: u32, rng_state: &mut u64) -> Duration {
    let exp = attempt.saturating_sub(1).min(20);
    let raw = BASE_DELAY.saturating_mul(1u32 << exp).min(MAX_DELAY);
    let jitter = 0.5 + (xorshift(rng_state) >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
    Duration::from_secs_f64(raw.as_secs_f64() * jitter)
}

/// Runs `op` until it succeeds or the attempt budget is spent, sleeping
/// the jittered backoff between attempts. Returns the first success, or
/// the error from the final attempt.
///
/// # Errors
/// Whatever `op` returned on its last attempt.
pub(crate) fn retry<T, E>(mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    let mut rng_state = SEED;
    let mut attempt = 0;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) => {
                attempt += 1;
                if attempt >= MAX_ATTEMPTS {
                    return Err(err);
                }
                std::thread::sleep(backoff(attempt, &mut rng_state));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_first_try_without_sleeping() {
        let calls = std::cell::Cell::new(0u32);
        let out: Result<u32, ()> = retry(|| {
            calls.set(calls.get() + 1);
            Ok(7)
        });
        assert_eq!(out, Ok(7));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn retries_until_the_budget_then_returns_the_last_error() {
        let calls = std::cell::Cell::new(0u32);
        let out: Result<(), u32> = retry(|| {
            calls.set(calls.get() + 1);
            Err(calls.get())
        });
        assert_eq!(out, Err(MAX_ATTEMPTS));
        assert_eq!(calls.get(), MAX_ATTEMPTS);
    }

    #[test]
    fn recovers_after_transient_failures() {
        let calls = std::cell::Cell::new(0u32);
        let out: Result<&str, &str> = retry(|| {
            calls.set(calls.get() + 1);
            if calls.get() < MAX_ATTEMPTS {
                Err("transient")
            } else {
                Ok("recovered")
            }
        });
        assert_eq!(out, Ok("recovered"));
        assert_eq!(calls.get(), MAX_ATTEMPTS);
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let mut a = SEED;
        let mut b = SEED;
        let first: Vec<Duration> = (1..=7).map(|i| backoff(i, &mut a)).collect();
        let second: Vec<Duration> = (1..=7).map(|i| backoff(i, &mut b)).collect();
        assert_eq!(first, second, "same seed, same schedule");
        for (i, d) in first.iter().enumerate() {
            let raw = BASE_DELAY.saturating_mul(1 << i).min(MAX_DELAY);
            assert!(*d <= raw, "jitter only shrinks: {d:?} vs {raw:?}");
            assert!(d.as_secs_f64() >= raw.as_secs_f64() * 0.5 - 1e-12, "jitter floor is half");
        }
        // The cap binds from attempt 6 on (2ms * 32 = 64ms > 50ms).
        assert!(first[5] <= MAX_DELAY && first[6] <= MAX_DELAY);
    }
}
