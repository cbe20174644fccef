//! Keyed multi-tenant ingest: interleaved per-key streams.
//!
//! The sharded runtime routes batches to shards by a stream key (tenant,
//! device, user cohort…). This module provides the ingest side of that
//! contract:
//!
//! * [`KeyedBatch`] — a [`Batch`] tagged with its routing key;
//! * [`InterleavedKeyed`] — a deterministic generator interleaving many
//!   per-key streams round-robin, each key with its own concept and its
//!   own RNG, stamping one **globally monotone** sequence number across
//!   all keys (any per-shard subsequence of a monotone sequence is still
//!   monotone, so the ingestion guard's sequence validation keeps
//!   working behind a hash router).
//!
//! Determinism contract: the emitted stream is a pure function of the
//! construction seed — per-key RNGs are derived as `seed ^ mix(key)`, so
//! neither the number of consumers nor the shard count can change what
//! any key observes.

use crate::batch::{Batch, DriftPhase};
use crate::concept::GmmConcept;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A mini-batch tagged with the stream key it belongs to.
#[derive(Clone, Debug)]
pub struct KeyedBatch {
    /// Routing key (tenant / stream identity).
    pub key: u64,
    /// The payload batch. Its `seq` is globally monotone across keys.
    pub batch: Batch,
}

/// SplitMix64 finalizer: a cheap, stable 64-bit mix used to derive
/// per-key RNG seeds (and by the shard router). Hand-rolled so the
/// mapping never depends on `std`'s unstable hasher internals.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct KeyStream {
    concept: GmmConcept,
    rng: StdRng,
}

/// Interleaves `keys` independent per-key streams round-robin: batch
/// `seq` carries key `seq % keys`. Every key's sample stream depends
/// only on `(seed, key)`.
pub struct InterleavedKeyed {
    streams: Vec<KeyStream>,
    seq: u64,
    phase: DriftPhase,
}

impl InterleavedKeyed {
    /// All keys share one randomly drawn concept (each with a private
    /// RNG): a statistically homogeneous tenant population, the workload
    /// shard-scaling benchmarks use.
    pub fn uniform(dim: usize, classes: usize, keys: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let concept = GmmConcept::random(dim, classes, 2, 4.0, 0.6, &mut rng);
        Self::with_concepts(vec![concept; keys.max(1)], seed)
    }

    /// One explicit concept per key (drills that need tenants to live on
    /// distinct distributions).
    ///
    /// # Panics
    /// Panics when `concepts` is empty or the concepts disagree on
    /// dimension/class count.
    pub fn with_concepts(concepts: Vec<GmmConcept>, seed: u64) -> Self {
        assert!(!concepts.is_empty(), "need at least one key");
        let (dim, classes) = (concepts[0].dim(), concepts[0].num_classes());
        for c in &concepts {
            assert_eq!(c.dim(), dim, "keyed concepts must share a dimension");
            assert_eq!(c.num_classes(), classes, "keyed concepts must share classes");
        }
        let streams = concepts
            .into_iter()
            .enumerate()
            .map(|(k, concept)| KeyStream {
                concept,
                rng: StdRng::seed_from_u64(seed ^ mix64(k as u64)),
            })
            .collect();
        Self { streams, seq: 0, phase: DriftPhase::Stable }
    }

    /// Feature dimension of every key's stream.
    pub fn num_features(&self) -> usize {
        self.streams[0].concept.dim()
    }

    /// Class count of every key's stream.
    pub fn num_classes(&self) -> usize {
        self.streams[0].concept.num_classes()
    }

    /// Drift phase stamped on subsequent batches (drills flip this when
    /// they mutate a key's concept).
    pub fn set_phase(&mut self, phase: DriftPhase) {
        self.phase = phase;
    }

    /// Mutable access to one key's concept (drills translate/replace it).
    pub fn concept_mut(&mut self, key: u64) -> &mut GmmConcept {
        let k = (key % self.streams.len() as u64) as usize;
        &mut self.streams[k].concept
    }

    /// The key the next emitted batch will carry.
    pub fn next_key(&self) -> u64 {
        self.seq % self.streams.len() as u64
    }

    /// Emits the next keyed batch of `size` rows (allocating path).
    pub fn next_keyed(&mut self, size: usize) -> KeyedBatch {
        let key = self.next_key();
        let stream = &mut self.streams[key as usize];
        let (x, labels) = stream.concept.sample_batch(size, &mut stream.rng);
        let batch = Batch::labeled(x, labels, self.seq, self.phase);
        self.seq += 1;
        KeyedBatch { key, batch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_stable_and_spreading() {
        // Pinned values: the router and seed derivation both depend on
        // this exact mapping staying put across releases.
        assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(mix64(1), 0x910a2dec89025cc1);
        let distinct: std::collections::HashSet<u64> = (0..1000).map(mix64).collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn seq_is_globally_monotone_and_keys_round_robin() {
        let mut g = InterleavedKeyed::uniform(4, 2, 3, 7);
        for i in 0..12u64 {
            let kb = g.next_keyed(16);
            assert_eq!(kb.batch.seq, i);
            assert_eq!(kb.key, i % 3);
            assert_eq!(kb.batch.len(), 16);
            assert_eq!(kb.batch.dim(), 4);
        }
    }

    #[test]
    fn per_key_streams_are_independent_of_interleaving() {
        // Key 1's samples must be identical whether 2 or 5 keys ride
        // along — per-key RNGs never touch each other's state.
        let mut narrow = InterleavedKeyed::uniform(4, 2, 2, 9);
        let mut wide = InterleavedKeyed::uniform(4, 2, 5, 9);
        let narrow_k1: Vec<_> =
            (0..6).map(|_| narrow.next_keyed(8)).filter(|kb| kb.key == 1).collect();
        let wide_k1: Vec<_> =
            (0..15).map(|_| wide.next_keyed(8)).filter(|kb| kb.key == 1).collect();
        assert_eq!(narrow_k1.len(), 3);
        assert_eq!(wide_k1.len(), 3);
        for (a, b) in narrow_k1.iter().zip(&wide_k1) {
            assert_eq!(a.batch.x, b.batch.x);
            assert_eq!(a.batch.labels, b.batch.labels);
        }
    }

    #[test]
    fn distinct_concepts_stay_on_their_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let near = GmmConcept::random(3, 2, 1, 1.0, 0.1, &mut rng);
        let mut far = near.clone();
        far.translate(&[50.0; 3]);
        let mut g = InterleavedKeyed::with_concepts(vec![near, far], 5);
        for _ in 0..4 {
            let kb = g.next_keyed(32);
            let mean = kb.batch.mean();
            if kb.key == 0 {
                assert!(mean.iter().all(|m| m.abs() < 10.0), "{mean:?}");
            } else {
                assert!(mean.iter().all(|m| *m > 30.0), "{mean:?}");
            }
        }
    }
}
