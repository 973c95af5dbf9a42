//! Deterministic hashing utilities.
//!
//! The population is a *pure function* of `(seed, rank)`: every decision —
//! does site #4711 embed YouTube? is its header misconfigured? — is a
//! threshold test on a salted 64-bit hash. No RNG state, no ordering
//! dependence: the same seed always generates the same web, and any site
//! can be materialized in O(1) without generating the others.

/// SplitMix64 finalizer — good avalanche behaviour, cheap.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The name of one draw, hashed as the concatenation of its parts.
///
/// A salt such as `"incl-youtube"` or `"lazy-iframe-vimeo-0"` is passed
/// as its parts — string slices and `usize` integers, in order, e.g.
/// `("lazy-iframe-", w.key, "-", idx)` — so no draw formats a `String`.
/// [`h`] folds a salt one byte at a time and a part only feeds its bytes
/// on, so the parts hash exactly as their concatenation:
/// `h(s, r, ("count-", 3)) == h(s, r, "count-3")`.
pub trait Salt {
    /// Folds this salt's bytes, in order, into `acc`.
    fn fold(&self, acc: u64) -> u64;
}

fn fold_bytes(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |acc, &b| mix64(acc ^ u64::from(b)))
}

impl Salt for &str {
    fn fold(&self, acc: u64) -> u64 {
        fold_bytes(acc, self.as_bytes())
    }
}

/// An integer folds its decimal digits, as `to_string` writes them.
impl Salt for usize {
    fn fold(&self, acc: u64) -> u64 {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut n = *self;
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        fold_bytes(acc, &digits[start..])
    }
}

/// A tuple folds its parts left to right.
impl<A: Salt, B: Salt> Salt for (A, B) {
    fn fold(&self, acc: u64) -> u64 {
        self.1.fold(self.0.fold(acc))
    }
}

impl<A: Salt, B: Salt, C: Salt, D: Salt> Salt for (A, B, C, D) {
    fn fold(&self, acc: u64) -> u64 {
        let acc = self.1.fold(self.0.fold(acc));
        self.3.fold(self.2.fold(acc))
    }
}

/// Hashes `(seed, rank, salt)` into a u64.
pub fn h(seed: u64, rank: u64, salt: impl Salt) -> u64 {
    let acc = mix64(seed ^ 0xd6e8_feb8_6659_fd93);
    salt.fold(mix64(acc ^ rank))
}

/// A uniform draw in `[0, 1)` from a hash.
pub fn unit(seed: u64, rank: u64, salt: impl Salt) -> f64 {
    (h(seed, rank, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// Bernoulli draw with probability `p`.
pub fn chance(seed: u64, rank: u64, salt: impl Salt, p: f64) -> bool {
    unit(seed, rank, salt) < p
}

/// Picks an index by cumulative weights.
pub fn pick_weighted(seed: u64, rank: u64, salt: impl Salt, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut x = unit(seed, rank, salt) * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Uniform integer in `[0, n)`.
pub fn pick(seed: u64, rank: u64, salt: impl Salt, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (h(seed, rank, salt) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hash_values_are_unchanged() {
        // Every byte of the population hangs on these values.
        assert_eq!(h(0, 0, ""), 0x186f_4639_db63_0115);
        assert_eq!(h(7, 1, "incl-youtube"), 0xafd0_bf2d_4345_10f6);
        assert_eq!(h(7, 1234, "lazy-iframe-vimeo-0"), 0xfa95_e531_cd1a_92b0);
        assert_eq!(h(u64::MAX, u64::MAX, "local-kind-1"), 0xa8c8_e50a_a301_05f9);
        assert_eq!(
            h(7, 1234, ("lazy-iframe-", "vimeo", "-", 0usize)),
            0xfa95_e531_cd1a_92b0
        );
    }

    proptest! {
        /// The parts hasher equals `h` over the parts' concatenation.
        #[test]
        fn parts_hash_as_their_concatenation(
            seed in 0u64..u64::MAX,
            rank in 0u64..u64::MAX,
            a in "[ -~]{0,16}",
            n in 0usize..usize::MAX,
            b in "[ -~]{0,16}",
            idx in 0usize..256,
        ) {
            let joined = format!("{a}{n}{b}{idx}");
            prop_assert_eq!(
                h(seed, rank, (a.as_str(), n, b.as_str(), idx)),
                h(seed, rank, joined.as_str())
            );
            let joined = format!("{idx}{a}");
            prop_assert_eq!(h(seed, rank, (idx, a.as_str())), h(seed, rank, joined.as_str()));
            prop_assert_eq!(h(seed, rank, 0usize), h(seed, rank, "0"));
            let max = usize::MAX.to_string();
            prop_assert_eq!(h(seed, rank, usize::MAX), h(seed, rank, max.as_str()));
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(h(1, 2, "x"), h(1, 2, "x"));
        assert_ne!(h(1, 2, "x"), h(1, 2, "y"));
        assert_ne!(h(1, 2, "x"), h(1, 3, "x"));
        assert_ne!(h(1, 2, "x"), h(2, 2, "x"));
    }

    #[test]
    fn unit_in_range() {
        for rank in 0..1000 {
            let u = unit(7, rank, "u");
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_frequency_approximates_p() {
        let n = 20_000;
        let hits = (0..n).filter(|&r| chance(42, r, "freq", 0.25)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let weights = [8.0, 1.0, 1.0];
        let n = 30_000;
        let zero = (0..n)
            .filter(|&r| pick_weighted(9, r, "w", &weights) == 0)
            .count();
        let freq = zero as f64 / n as f64;
        assert!((freq - 0.8).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn pick_in_range() {
        for rank in 0..100 {
            assert!(pick(3, rank, "p", 7) < 7);
        }
        assert_eq!(pick(3, 0, "p", 0), 0);
    }
}
