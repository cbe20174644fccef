//! Rate-simulated stream source.
//!
//! FreewayML's rate-aware adjuster (§V-B) reacts to "real-time data flow
//! rate and window pressure". To exercise that logic deterministically,
//! [`SimulatedSource`] models arrival with a virtual clock: items
//! accumulate in a pending queue at a configurable (and changeable) rate,
//! and consumers drain whole mini-batches. Queue pressure is the fraction
//! of a configured capacity that is occupied.

use crate::batch::Batch;
use crate::generator::StreamGenerator;

/// A stream source with simulated arrival rate and bounded pending queue.
pub struct SimulatedSource {
    generator: Box<dyn StreamGenerator>,
    /// Items arriving per simulated second.
    rate: f64,
    /// Fractional items accumulated but not yet released.
    pending: f64,
    /// Maximum pending items before the queue saturates.
    capacity: f64,
    /// Items dropped due to overflow (a real system would backpressure;
    /// we count instead so experiments can report it).
    dropped: f64,
}

impl SimulatedSource {
    /// Wraps a generator with an arrival simulation.
    ///
    /// # Panics
    /// Panics unless `rate > 0` and `capacity > 0`.
    pub fn new(generator: Box<dyn StreamGenerator>, rate: f64, capacity: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(capacity > 0.0, "capacity must be positive");
        Self { generator, rate, pending: 0.0, capacity, dropped: 0.0 }
    }

    /// Advances the virtual clock by `dt` seconds, accruing arrivals.
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "time cannot flow backwards");
        self.pending += self.rate * dt;
        if self.pending > self.capacity {
            self.dropped += self.pending - self.capacity;
            self.pending = self.capacity;
        }
    }

    /// Changes the arrival rate (rate spikes drive the adjuster tests).
    pub fn set_rate(&mut self, rate: f64) {
        assert!(rate > 0.0, "rate must be positive");
        self.rate = rate;
    }

    /// Current arrival rate (items / simulated second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whole items currently pending.
    pub fn pending_items(&self) -> usize {
        self.pending as usize
    }

    /// Queue pressure in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        (self.pending / self.capacity).clamp(0.0, 1.0)
    }

    /// Total items lost to overflow so far.
    pub fn dropped_items(&self) -> f64 {
        self.dropped
    }

    /// Takes a batch of `size` if enough items are pending; returns `None`
    /// otherwise (the consumer should advance time and retry).
    pub fn try_take_batch(&mut self, size: usize) -> Option<Batch> {
        if (self.pending as usize) < size {
            return None;
        }
        self.pending -= size as f64;
        Some(self.generator.next_batch(size))
    }

    /// Advances exactly enough virtual time to release one batch of
    /// `size`, then takes it. Returns the batch and the simulated seconds
    /// that elapsed.
    pub fn take_batch_blocking(&mut self, size: usize) -> (Batch, f64) {
        let mut waited = 0.0;
        if (self.pending as usize) < size {
            let deficit = size as f64 - self.pending;
            let dt = deficit / self.rate;
            self.advance(dt);
            waited = dt;
        }
        let batch = self.try_take_batch(size).expect("advanced enough time for a batch");
        (batch, waited)
    }

    /// Underlying generator (for stream metadata).
    pub fn generator(&self) -> &dyn StreamGenerator {
        self.generator.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::Hyperplane;

    fn source(rate: f64, capacity: f64) -> SimulatedSource {
        SimulatedSource::new(Box::new(Hyperplane::new(4, 0.01, 0.0, 1)), rate, capacity)
    }

    #[test]
    fn no_batch_before_enough_arrivals() {
        let mut s = source(10.0, 1000.0);
        assert!(s.try_take_batch(16).is_none());
        s.advance(1.0); // 10 items
        assert!(s.try_take_batch(16).is_none());
        s.advance(1.0); // 20 items
        let b = s.try_take_batch(16).expect("20 >= 16");
        assert_eq!(b.len(), 16);
        assert_eq!(s.pending_items(), 4);
    }

    #[test]
    fn pressure_tracks_queue_occupancy() {
        let mut s = source(100.0, 200.0);
        assert_eq!(s.pressure(), 0.0);
        s.advance(1.0);
        assert!((s.pressure() - 0.5).abs() < 1e-9);
        s.advance(10.0);
        assert_eq!(s.pressure(), 1.0, "saturates at capacity");
        assert!(s.dropped_items() > 0.0);
    }

    #[test]
    fn blocking_take_reports_simulated_wait() {
        let mut s = source(32.0, 1000.0);
        let (b, waited) = s.take_batch_blocking(64);
        assert_eq!(b.len(), 64);
        assert!((waited - 2.0).abs() < 1e-9, "64 items at 32/s = 2 s, got {waited}");
        // Second batch also needs fresh arrivals.
        let (_, waited2) = s.take_batch_blocking(32);
        assert!(waited2 > 0.9);
    }

    #[test]
    fn rate_change_affects_wait() {
        let mut s = source(10.0, 1000.0);
        s.set_rate(1000.0);
        let (_, waited) = s.take_batch_blocking(100);
        assert!(waited < 0.2, "fast rate should mean short wait, got {waited}");
    }
}
