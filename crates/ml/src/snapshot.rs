//! Serializable model parameter snapshots.
//!
//! Historical knowledge reuse (§IV-D) stores `(d_i, k_i)` pairs where
//! `k_i` is "reusable model information" — here, a flat parameter vector
//! plus the spec needed to instantiate a model around it. Snapshots are
//! encodable to a compact binary layout via [`bytes`] so the space-overhead
//! study (Table IV) measures real byte counts rather than estimates.

use crate::model::Model;
use crate::spec::ModelSpec;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// A frozen copy of a model's parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// The architecture the parameters belong to.
    pub spec: ModelSpec,
    /// Flat parameter vector in the model's canonical layout.
    pub params: Vec<f64>,
}

/// Magic prefix guarding the binary encoding (`FWS1`).
const MAGIC: u32 = 0x4657_5331;

impl ModelSnapshot {
    /// Captures a snapshot from a live model.
    pub fn capture(spec: ModelSpec, model: &dyn Model) -> Self {
        let params = model.parameters();
        assert_eq!(
            params.len(),
            spec.num_parameters(),
            "model parameters do not match the declared spec"
        );
        Self { spec, params }
    }

    /// Rebuilds a live model (seed only affects structure that parameters
    /// then overwrite, so any seed yields the same model).
    pub fn restore(&self) -> Box<dyn Model> {
        let mut model = self.spec.build(0);
        model.set_parameters(&self.params);
        model
    }

    /// Compact binary encoding: magic, spec (JSON-in-length-prefixed
    /// bytes — specs are tiny), then raw little-endian `f64` parameters.
    pub fn to_bytes(&self) -> Bytes {
        let spec_json = serde_json::to_vec(&self.spec).expect("spec serialises");
        let mut buf = BytesMut::with_capacity(4 + 4 + spec_json.len() + 8 + self.params.len() * 8);
        buf.put_u32(MAGIC);
        buf.put_u32(spec_json.len() as u32);
        buf.put_slice(&spec_json);
        buf.put_u64(self.params.len() as u64);
        for &p in &self.params {
            buf.put_f64_le(p);
        }
        buf.freeze()
    }

    /// Decodes a snapshot previously produced by [`Self::to_bytes`].
    ///
    /// Returns `None` on any structural mismatch (bad magic, truncation,
    /// undecodable spec).
    pub fn from_bytes(mut data: Bytes) -> Option<Self> {
        if data.remaining() < 8 || data.get_u32() != MAGIC {
            return None;
        }
        let spec_len = data.get_u32() as usize;
        if data.remaining() < spec_len {
            return None;
        }
        let spec_bytes = data.copy_to_bytes(spec_len);
        let spec: ModelSpec = serde_json::from_slice(&spec_bytes).ok()?;
        if data.remaining() < 8 {
            return None;
        }
        let n = data.get_u64() as usize;
        if data.remaining() < n * 8 {
            return None;
        }
        let mut params = Vec::with_capacity(n);
        for _ in 0..n {
            params.push(data.get_f64_le());
        }
        Some(Self { spec, params })
    }

    /// Size of the binary encoding in bytes — the unit Table IV reports.
    pub fn size_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use freeway_linalg::Matrix;

    #[test]
    fn capture_restore_roundtrip_preserves_predictions() {
        let spec = ModelSpec::mlp(4, vec![8], 3);
        let mut model = spec.build(42);
        let x = Matrix::from_rows(&[vec![1.0, -0.5, 2.0, 0.0]]);
        let y = vec![1];
        let g = model.gradient(&x, &y, None);
        model.apply_update(&g.iter().map(|v| -0.1 * v).collect::<Vec<_>>());

        let snap = ModelSnapshot::capture(spec, model.as_ref());
        let restored = snap.restore();
        assert_eq!(model.predict(&x), restored.predict(&x));
        assert_eq!(model.parameters(), restored.parameters());
    }

    #[test]
    fn bytes_roundtrip() {
        let spec = ModelSpec::lr(6, 2);
        let model = spec.build(0);
        let snap = ModelSnapshot::capture(spec, model.as_ref());
        let encoded = snap.to_bytes();
        let decoded = ModelSnapshot::from_bytes(encoded).expect("valid encoding");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(ModelSnapshot::from_bytes(Bytes::from_static(b"nope")).is_none());
        assert!(ModelSnapshot::from_bytes(Bytes::new()).is_none());
        // Valid magic, truncated payload.
        let mut buf = BytesMut::new();
        buf.put_u32(MAGIC);
        buf.put_u32(1000);
        assert!(ModelSnapshot::from_bytes(buf.freeze()).is_none());
    }

    #[test]
    fn size_scales_with_parameter_count() {
        let small = ModelSpec::lr(4, 2);
        let big = ModelSpec::mlp(4, vec![64], 2);
        let s1 = ModelSnapshot::capture(small.clone(), small.build(0).as_ref()).size_bytes();
        let s2 = ModelSnapshot::capture(big.clone(), big.build(0).as_ref()).size_bytes();
        assert!(s2 > 4 * s1, "MLP snapshot must dwarf LR snapshot");
        // Parameters dominate: ~8 bytes per parameter.
        assert!(s1 >= small.num_parameters() * 8);
    }
}
