//! Seed-agreed pairwise masking: the §V protocol in every deployment.
//!
//! The paper has each mapper send random masks to every other mapper
//! inside each iteration. A mapper-to-mapper channel inside an iteration
//! is awkward on a cluster and a wire, so the standard deployment trick
//! (as in secure-aggregation systems) is used instead, in process, on
//! the MapReduce cluster and over the wire alike (the `pairwise` backend
//! of [`crate::secagg`] wraps this masker):
//! every *pair* of learners agrees on a seed once, up front, and both
//! re-derive the pair's mask for iteration `t` locally. Learner `i` adds
//! the pair mask for every `j > i` and subtracts it for every `j < i`, so
//! summing all masked shares cancels every mask — the same algebra as the
//! paper's `Sedᵢ − Revᵢ`, with the network exchange replaced by a PRG.

use ppml_data::rng::Rng64;

use ppml_crypto::{CryptoError, FixedPointCodec};

use crate::Result;

/// One SplitMix64 finalization round (Steele et al.'s `mix64`): a bijective
/// nonlinear permutation of the state. Used by [`SeededMasker::pair_rng`] to
/// absorb seed components one at a time.
pub(crate) fn mix64(mut s: u64) -> u64 {
    s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    s ^ (s >> 31)
}

/// One learner's masking endpoint with pre-agreed pairwise seeds.
#[derive(Debug, Clone, Copy)]
pub struct SeededMasker {
    shared_seed: u64,
    party: usize,
    parties: usize,
    codec: FixedPointCodec,
}

impl SeededMasker {
    /// Creates the endpoint for `party` of `parties`. All parties must use
    /// the same `shared_seed` (it stands for the pairwise agreement
    /// handshake).
    ///
    /// # Panics
    ///
    /// Panics if `party >= parties` or `parties == 0`.
    pub fn new(shared_seed: u64, party: usize, parties: usize) -> Self {
        assert!(parties > 0, "at least one party");
        assert!(party < parties, "party {party} out of range {parties}");
        SeededMasker {
            shared_seed,
            party,
            parties,
            codec: FixedPointCodec::default(),
        }
    }

    /// The fixed-point codec in use.
    pub fn codec(&self) -> FixedPointCodec {
        self.codec
    }

    /// Deterministic pair mask stream for `(lo, hi)` at `iteration`.
    ///
    /// Each tuple component is absorbed through its own SplitMix64
    /// finalization round *sequentially*. The earlier XOR-of-three-products
    /// mix was linear over GF(2) before the single finalization, so distinct
    /// `(lo, hi, iteration)` tuples whose products XOR-collided produced the
    /// same seed — and therefore identical mask streams, which a curious
    /// reducer could cancel against each other. Chaining a full nonlinear
    /// round per component removes that structure.
    fn pair_rng(&self, lo: usize, hi: usize, iteration: u64) -> Rng64 {
        let mut s = mix64(self.shared_seed);
        s = mix64(s ^ lo as u64);
        s = mix64(s ^ hi as u64);
        s = mix64(s ^ iteration);
        Rng64::new(s)
    }

    /// Masks this learner's values for `iteration`: fixed-point encode, then
    /// add the pair mask for every higher-indexed peer and subtract it for
    /// every lower-indexed one.
    ///
    /// # Errors
    ///
    /// [`CryptoError::ValueOutOfRange`] when a value exceeds the fixed-point
    /// range.
    pub fn mask_share(&self, values: &[f64], iteration: u64) -> Result<Vec<u64>> {
        self.apply_pair_masks(values, iteration, &mut (0..self.parties))
    }

    /// Masks this learner's values for `iteration` against the peers in
    /// `present` only — the re-keyed variant used after a dropout.
    ///
    /// Pair seeds are derived from `(shared_seed, lo, hi)` alone, so
    /// shrinking the set is a pure recomputation: the pair masks between
    /// surviving parties are unchanged, and the masks this learner used to
    /// exchange with dropped parties simply stop being applied. Summing
    /// the shares of exactly the parties in `present` (all masked over the
    /// same set, for the same iteration) still cancels every mask.
    ///
    /// # Errors
    ///
    /// [`CryptoError::ProtocolMisuse`] when `present` does not contain this
    /// learner or names a party outside `0..parties`;
    /// [`CryptoError::ValueOutOfRange`] as [`SeededMasker::mask_share`].
    pub fn mask_share_among(
        &self,
        values: &[f64],
        iteration: u64,
        present: &[usize],
    ) -> Result<Vec<u64>> {
        if !present.contains(&self.party) {
            return Err(CryptoError::ProtocolMisuse {
                reason: "masking party not in the survivor set",
            }
            .into());
        }
        if present.iter().any(|&p| p >= self.parties) {
            return Err(CryptoError::ProtocolMisuse {
                reason: "survivor set names an unknown party",
            }
            .into());
        }
        self.apply_pair_masks(values, iteration, &mut present.iter().copied())
    }

    fn apply_pair_masks(
        &self,
        values: &[f64],
        iteration: u64,
        peers: &mut dyn Iterator<Item = usize>,
    ) -> Result<Vec<u64>> {
        let mut out = Vec::with_capacity(values.len());
        for &v in values {
            out.push(self.codec.encode_u64(v)?);
        }
        for peer in peers {
            if peer == self.party {
                continue;
            }
            let (lo, hi) = (self.party.min(peer), self.party.max(peer));
            let mut rng = self.pair_rng(lo, hi, iteration);
            let add = self.party == lo;
            for slot in out.iter_mut() {
                let m: u64 = rng.next_u64();
                *slot = if add {
                    slot.wrapping_add(m)
                } else {
                    slot.wrapping_sub(m)
                };
            }
        }
        Ok(out)
    }

    /// Reducer side: wrapping-sums the masked shares of **all** parties and
    /// decodes. Masks cancel if and only if every party contributed exactly
    /// once for the same iteration.
    ///
    /// # Errors
    ///
    /// [`CryptoError::ProtocolMisuse`] on missing or ragged shares.
    pub fn combine(
        shares: &[Vec<u64>],
        parties: usize,
        codec: FixedPointCodec,
    ) -> Result<Vec<f64>> {
        if shares.len() != parties {
            return Err(CryptoError::ProtocolMisuse {
                reason: "share count does not match party count",
            }
            .into());
        }
        // `parties == 0` with no shares passes the length check; reject it
        // before indexing rather than panicking on `shares[0]`.
        let Some(first) = shares.first() else {
            return Err(CryptoError::ProtocolMisuse {
                reason: "combine needs at least one party",
            }
            .into());
        };
        let len = first.len();
        if shares.iter().any(|s| s.len() != len) {
            return Err(CryptoError::ProtocolMisuse {
                reason: "shares have different lengths",
            }
            .into());
        }
        Ok((0..len)
            .map(|i| {
                let sum = shares.iter().fold(0u64, |acc, s| acc.wrapping_add(s[i]));
                codec.decode_u64(sum)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_cancel_in_the_sum() {
        let parties = 4;
        let values: Vec<Vec<f64>> = (0..parties)
            .map(|p| (0..5).map(|i| (p * 5 + i) as f64 * 0.25 - 2.0).collect())
            .collect();
        let maskers: Vec<SeededMasker> = (0..parties)
            .map(|p| SeededMasker::new(99, p, parties))
            .collect();
        let shares: Vec<Vec<u64>> = maskers
            .iter()
            .zip(&values)
            .map(|(m, v)| m.mask_share(v, 7).unwrap())
            .collect();
        let sum = SeededMasker::combine(&shares, parties, maskers[0].codec()).unwrap();
        for i in 0..5 {
            let want: f64 = values.iter().map(|v| v[i]).sum();
            assert!((sum[i] - want).abs() < 1e-6, "{} vs {}", sum[i], want);
        }
    }

    #[test]
    fn share_differs_from_raw_encoding() {
        let m = SeededMasker::new(1, 0, 3);
        let raw = m.codec().encode_u64(1.5).unwrap();
        let masked = m.mask_share(&[1.5], 0).unwrap();
        assert_ne!(masked[0], raw);
    }

    #[test]
    fn masks_differ_across_iterations() {
        let m = SeededMasker::new(1, 0, 2);
        let a = m.mask_share(&[0.0], 0).unwrap();
        let b = m.mask_share(&[0.0], 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn mixed_iteration_shares_do_not_cancel() {
        let parties = 2;
        let maskers: Vec<SeededMasker> = (0..parties)
            .map(|p| SeededMasker::new(5, p, parties))
            .collect();
        let s0 = maskers[0].mask_share(&[1.0], 0).unwrap();
        let s1 = maskers[1].mask_share(&[1.0], 1).unwrap(); // wrong iteration
        let sum = SeededMasker::combine(&[s0, s1], parties, maskers[0].codec()).unwrap();
        assert!((sum[0] - 2.0).abs() > 1.0, "stale masks must not cancel");
    }

    #[test]
    fn combine_validates_inputs() {
        let codec = FixedPointCodec::default();
        assert!(SeededMasker::combine(&[vec![0]], 2, codec).is_err());
        assert!(SeededMasker::combine(&[vec![0], vec![0, 1]], 2, codec).is_err());
    }

    #[test]
    fn combine_rejects_zero_parties_instead_of_panicking() {
        // `parties == 0` with no shares used to pass the length check and
        // then panic indexing `shares[0]`.
        let err = SeededMasker::combine(&[], 0, FixedPointCodec::default());
        assert!(err.is_err());
    }

    #[test]
    fn survivor_set_masks_still_cancel() {
        let parties = 4;
        let survivors = [0usize, 2, 3]; // party 1 dropped out
        let values: Vec<Vec<f64>> = (0..parties)
            .map(|p| (0..3).map(|i| (p * 3 + i) as f64 * 0.5 - 1.0).collect())
            .collect();
        let maskers: Vec<SeededMasker> = (0..parties)
            .map(|p| SeededMasker::new(99, p, parties))
            .collect();
        let shares: Vec<Vec<u64>> = survivors
            .iter()
            .map(|&p| {
                maskers[p]
                    .mask_share_among(&values[p], 7, &survivors)
                    .unwrap()
            })
            .collect();
        let sum = SeededMasker::combine(&shares, survivors.len(), maskers[0].codec()).unwrap();
        for i in 0..3 {
            let want: f64 = survivors.iter().map(|&p| values[p][i]).sum();
            assert!((sum[i] - want).abs() < 1e-6, "{} vs {}", sum[i], want);
        }
    }

    #[test]
    fn survivor_and_full_set_masks_agree_between_survivors() {
        // A full-set share minus a survivor-set share must equal exactly
        // the pair masks toward the dropped parties — i.e. re-keying only
        // removes dead pairs, it does not reshuffle surviving ones.
        let m = SeededMasker::new(42, 0, 3);
        let full = m.mask_share(&[1.25], 5).unwrap();
        let among = m.mask_share_among(&[1.25], 5, &[0, 2]).unwrap();
        assert_ne!(full, among, "dropping a pair must change the share");
        // Same survivor set, same iteration: deterministic recomputation.
        assert_eq!(among, m.mask_share_among(&[1.25], 5, &[0, 2]).unwrap());
    }

    #[test]
    fn mask_share_among_validates_the_survivor_set() {
        let m = SeededMasker::new(7, 0, 3);
        assert!(
            m.mask_share_among(&[0.0], 0, &[1, 2]).is_err(),
            "self missing"
        );
        assert!(
            m.mask_share_among(&[0.0], 0, &[0, 9]).is_err(),
            "unknown party"
        );
    }

    #[test]
    fn pair_streams_never_collide_across_pairs_and_iterations() {
        // Property: over a grid of pairs × iterations, no two distinct
        // (lo, hi, iteration) tuples may yield the same mask stream. The
        // old XOR-of-products seed derivation had GF(2)-linear collisions;
        // the sequential SplitMix absorb must not.
        let parties = 8;
        let iterations = 64u64;
        let m = SeededMasker::new(0xDEAD_BEEF, 0, parties);
        let mut seen = std::collections::HashMap::new();
        for lo in 0..parties {
            for hi in (lo + 1)..parties {
                for it in 0..iterations {
                    let mut rng = m.pair_rng(lo, hi, it);
                    // Two words of the stream: a 128-bit fingerprint.
                    let fp = (rng.next_u64(), rng.next_u64());
                    if let Some(prev) = seen.insert(fp, (lo, hi, it)) {
                        panic!("stream collision: {prev:?} vs {:?}", (lo, hi, it));
                    }
                }
            }
        }
        assert_eq!(
            seen.len(),
            parties * (parties - 1) / 2 * iterations as usize
        );
    }

    #[test]
    fn permuted_seed_components_do_not_alias() {
        // Regression for the absorb order: the sequential absorb must keep
        // component positions distinct — swapping values between slots (a
        // classic collision of commutative mixes) must change the stream.
        let m = SeededMasker::new(7, 0, 8);
        let word = |lo, hi, it| m.pair_rng(lo, hi, it).next_u64();
        assert_ne!(word(1, 2, 3), word(1, 3, 2));
        assert_ne!(word(1, 2, 3), word(2, 3, 1));
        assert_ne!(word(1, 2, 3), word(2, 1, 3));
    }

    #[test]
    fn single_survivor_share_is_unmasked_encoding() {
        // With every peer dropped, no pair masks remain: the survivor's
        // share must be exactly the fixed-point encoding, and combining the
        // singleton set must round-trip the values.
        let m = SeededMasker::new(11, 2, 4);
        let values = [0.75, -3.5, 0.0];
        let share = m.mask_share_among(&values, 9, &[2]).unwrap();
        for (slot, &v) in share.iter().zip(&values) {
            assert_eq!(*slot, m.codec().encode_u64(v).unwrap());
        }
        let sum = SeededMasker::combine(&[share], 1, m.codec()).unwrap();
        for (got, &want) in sum.iter().zip(&values) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn single_party_is_identity() {
        let m = SeededMasker::new(3, 0, 1);
        let shares = vec![m.mask_share(&[2.5, -1.0], 4).unwrap()];
        let sum = SeededMasker::combine(&shares, 1, m.codec()).unwrap();
        assert!((sum[0] - 2.5).abs() < 1e-6 && (sum[1] + 1.0).abs() < 1e-6);
    }
}
