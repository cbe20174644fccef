//! Disorder of a distance ranking (Equation 11).
//!
//! When a new batch arrives, the ASW ranks existing window batches by
//! their shift distance to it. `order(τ) = |{(i, j) : i < j ∧ τ_i > τ_j}|`
//! counts inversions between *time order* and *distance order*:
//!
//! * **low disorder** — older batches are farther away, i.e. the stream
//!   is moving directionally (Pattern A1-like);
//! * **high disorder** — distance is uncorrelated with age, i.e. the
//!   stream wobbles around a region (Pattern A2-like).

/// Counts inversions in `ranks` by comparing every pair, `O(n²)` with
/// no allocation: `n` is a window's batch count, below the core crate's
/// `asw_max_batches × level` (four per level by default).
///
/// `ranks[i]` is the distance rank of the `i`-th oldest window batch.
pub fn inversion_count(ranks: &[usize]) -> usize {
    ranks
        .iter()
        .enumerate()
        .map(|(i, &rank)| ranks[i + 1..].iter().filter(|&&later| rank > later).count())
        .sum()
}

/// Disorder normalised to `[0, 1]` by the maximum possible inversion
/// count `n(n-1)/2`. Sequences shorter than 2 have disorder 0.
pub fn normalized_disorder(ranks: &[usize]) -> f64 {
    let n = ranks.len();
    if n < 2 {
        return 0.0;
    }
    let max = n * (n - 1) / 2;
    inversion_count(ranks) as f64 / max as f64
}

/// Converts distances (indexed by window age, oldest first) into ranks:
/// `ranks[i]` is the position of distance `i` in **descending** distance
/// order (rank 0 = farthest batch). Ties break by age, keeping the ranking
/// a permutation. `order` is scratch; both buffers are overwritten, so a
/// caller that keeps them ranks without allocating.
///
/// Descending order makes the disorder semantics match the paper: in a
/// directional stream the *oldest* batch is farthest from the incoming
/// one, so ranks come out already sorted (`[0, 1, 2, …]` by age) and the
/// inversion count — the disorder — is zero. A localized, wobbling stream
/// decorrelates distance from age and lands mid-range.
pub fn distance_ranks(distances: &[f64], order: &mut Vec<usize>, ranks: &mut Vec<usize>) {
    order.clear();
    order.extend(0..distances.len());
    // The age tie-break makes the order total, so an unstable sort (which
    // never allocates) yields the same permutation as a stable one.
    order.sort_unstable_by(|&a, &b| {
        distances[b].partial_cmp(&distances[a]).expect("finite distances").then(a.cmp(&b))
    });
    ranks.clear();
    ranks.resize(distances.len(), 0);
    for (rank, &idx) in order.iter().enumerate() {
        ranks[idx] = rank;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks_of(distances: &[f64]) -> Vec<usize> {
        let (mut order, mut ranks) = (Vec::new(), Vec::new());
        distance_ranks(distances, &mut order, &mut ranks);
        ranks
    }

    fn naive(ranks: &[usize]) -> usize {
        let mut c = 0;
        for i in 0..ranks.len() {
            for j in i + 1..ranks.len() {
                if ranks[i] > ranks[j] {
                    c += 1;
                }
            }
        }
        c
    }

    #[test]
    fn sorted_sequence_has_zero_inversions() {
        assert_eq!(inversion_count(&[0, 1, 2, 3, 4]), 0);
        assert_eq!(normalized_disorder(&[0, 1, 2, 3]), 0.0);
    }

    #[test]
    fn reversed_sequence_has_max_inversions() {
        assert_eq!(inversion_count(&[4, 3, 2, 1, 0]), 10);
        assert_eq!(normalized_disorder(&[3, 2, 1, 0]), 1.0);
    }

    #[test]
    fn matches_naive_on_assorted_permutations() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![1, 0],
            vec![2, 0, 1],
            vec![0, 2, 1, 3],
            vec![5, 1, 4, 0, 3, 2],
            vec![3, 3, 1, 2], // non-permutation input still well-defined
        ];
        for c in cases {
            assert_eq!(inversion_count(&c), naive(&c), "case {c:?}");
        }
    }

    #[test]
    fn distance_ranks_are_a_permutation() {
        let ranks = ranks_of(&[0.5, 0.1, 0.9, 0.1]);
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Largest distance (index 2) gets rank 0; tie between indices 1
        // and 3 breaks by age.
        assert_eq!(ranks, vec![1, 2, 0, 3]);
    }

    #[test]
    fn directional_stream_has_low_disorder() {
        // Directional stream: the oldest batch is farthest from the
        // incoming batch, so distances (oldest first) descend with age and
        // the descending-rank sequence is already sorted → zero disorder.
        let ranks = ranks_of(&[3.0, 2.0, 1.0, 0.5]);
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        assert_eq!(normalized_disorder(&ranks), 0.0);
        // A wobbling (localized) stream decorrelates distance from age
        // and sits strictly above zero.
        let wobble = ranks_of(&[1.0, 3.0, 0.5, 2.0]);
        let d = normalized_disorder(&wobble);
        assert!(d > 0.0, "wobble disorder {d} must exceed directional 0");
    }

    #[test]
    fn normalized_disorder_short_inputs() {
        assert_eq!(normalized_disorder(&[]), 0.0);
        assert_eq!(normalized_disorder(&[0]), 0.0);
    }
}
