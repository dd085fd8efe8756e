//! Length-limited Huffman codes via the package-merge algorithm
//! (Larmore & Hirschberg's coin-collector formulation).
//!
//! The merge is lazy: each level keeps only entry weights and an
//! item-or-package flag, and the selected items are recovered by walking
//! the flags back from level 1. That is O(n·L) work and O(L) allocations
//! for `n` coded symbols and length bound `L`, instead of carrying an
//! n-long content vector in every package.
//!
//! The paper's *Bounded Huffman* code caps symbol lengths at 16 bits so
//! the two-bytes-per-cycle decode hardware stays shallow: "A modified
//! Huffman encoding scheme was implemented such that no byte is
//! represented by a code symbol of more than 16 bits" (§2.2).

use crate::error::CompressError;
use crate::histogram::ByteHistogram;

/// The length bound used throughout the paper's experiments.
pub const PAPER_MAX_LEN: u8 = 16;

/// Computes optimal code lengths subject to `max_len`, for every byte
/// with a nonzero count.
///
/// # Errors
///
/// * [`CompressError::EmptyHistogram`] if no byte occurs;
/// * [`CompressError::LengthTooLong`] if `max_len` is too small to code
///   the alphabet (needs `2^max_len >=` distinct symbols) or over 32.
///
/// # Examples
///
/// ```
/// use ccrp_compress::{bounded_lengths, ByteHistogram, PAPER_MAX_LEN};
///
/// let hist = ByteHistogram::of(b"the quick brown fox jumps over the lazy dog");
/// let lengths = bounded_lengths(&hist, PAPER_MAX_LEN)?;
/// assert!(lengths.iter().all(|&l| l <= PAPER_MAX_LEN));
/// # Ok::<(), ccrp_compress::CompressError>(())
/// ```
pub fn bounded_lengths(histogram: &ByteHistogram, max_len: u8) -> Result<[u8; 256], CompressError> {
    if max_len == 0 || max_len > 32 {
        return Err(CompressError::LengthTooLong { length: max_len });
    }
    let mut symbols: Vec<(u8, u64)> = (0u16..256)
        .map(|b| (b as u8, histogram.count(b as u8)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let n = symbols.len();
    let mut lengths = [0u8; 256];
    match n {
        0 => return Err(CompressError::EmptyHistogram),
        1 => {
            lengths[symbols[0].0 as usize] = 1;
            return Ok(lengths);
        }
        _ => {}
    }
    if (max_len as u32) < 32 && n as u64 > (1u64 << max_len) {
        return Err(CompressError::LengthTooLong { length: max_len });
    }

    symbols.sort_by_key(|&(sym, count)| (count, sym));
    let items: Vec<u64> = symbols.iter().map(|&(_, count)| count).collect();

    // Coin-collector: level `max_len` holds bare items; each shallower
    // level merges the items with pairs packaged from the level below.
    // Only weights carry forward; each merged level keeps one flag per
    // entry (item or package) so the selection can be traced back.
    let mut current = items.clone();
    let mut packaged: Vec<u64> = Vec::with_capacity(n);
    let mut merged: Vec<u64> = Vec::with_capacity(2 * n);
    let mut is_package: Vec<Vec<bool>> = Vec::with_capacity(usize::from(max_len));
    for _level in (1..max_len).rev() {
        packaged.clear();
        packaged.extend(current.chunks_exact(2).map(|pair| pair[0] + pair[1]));
        // Merge packaged pairs with the original items, keeping sorted
        // order by weight (both inputs are already sorted; an item wins
        // a tie).
        merged.clear();
        let mut flags = Vec::with_capacity(n + packaged.len());
        let (mut i, mut j) = (0, 0);
        while i < n && j < packaged.len() {
            if items[i] <= packaged[j] {
                merged.push(items[i]);
                flags.push(false);
                i += 1;
            } else {
                merged.push(packaged[j]);
                flags.push(true);
                j += 1;
            }
        }
        merged.extend_from_slice(&items[i..]);
        flags.resize(flags.len() + (n - i), false);
        merged.extend_from_slice(&packaged[j..]);
        flags.resize(flags.len() + (packaged.len() - j), true);
        std::mem::swap(&mut current, &mut merged);
        is_package.push(flags);
    }

    // Select the cheapest 2(n-1) level-1 entries; each inclusion of an
    // item deepens its code by one bit. Walking back down the levels, a
    // selected prefix holding `p` packages selects the first `2p`
    // entries of the level below (the pairs those packages were made
    // from), and the items in the prefix are the cheapest ones, since
    // the merge keeps items in sorted order.
    let mut take = 2 * (n - 1);
    // panic-ok: debug-build invariant of the package-merge construction.
    debug_assert!(
        current.len() >= take,
        "package-merge produced too few packages"
    );
    let mut depth = vec![0u8; n];
    for flags in is_package.iter().rev() {
        let packages = flags.iter().take(take).filter(|&&p| p).count();
        for d in depth.iter_mut().take(take - packages) {
            *d += 1;
        }
        take = 2 * packages;
    }
    // The deepest level holds bare items only.
    for d in depth.iter_mut().take(take) {
        *d += 1;
    }
    for (&(sym, _), &d) in symbols.iter().zip(&depth) {
        lengths[sym as usize] = d;
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::traditional_lengths;
    use proptest::prelude::*;

    /// The eager package-merge `bounded_lengths` replaced: every package
    /// carries a count of each item it contains, and the selected
    /// level-1 packages' counts are summed directly. Independent of the
    /// flag walk-back, so it serves as the differential oracle.
    fn reference_lengths(
        histogram: &ByteHistogram,
        max_len: u8,
    ) -> Result<[u8; 256], CompressError> {
        #[derive(Clone)]
        struct Package {
            weight: u64,
            contents: Vec<u16>,
        }
        if max_len == 0 || max_len > 32 {
            return Err(CompressError::LengthTooLong { length: max_len });
        }
        let mut symbols: Vec<(u8, u64)> = (0u16..256)
            .map(|b| (b as u8, histogram.count(b as u8)))
            .filter(|&(_, c)| c > 0)
            .collect();
        let n = symbols.len();
        let mut lengths = [0u8; 256];
        match n {
            0 => return Err(CompressError::EmptyHistogram),
            1 => {
                lengths[symbols[0].0 as usize] = 1;
                return Ok(lengths);
            }
            _ => {}
        }
        if (max_len as u32) < 32 && n as u64 > (1u64 << max_len) {
            return Err(CompressError::LengthTooLong { length: max_len });
        }
        symbols.sort_by_key(|&(sym, count)| (count, sym));
        let items: Vec<Package> = symbols
            .iter()
            .enumerate()
            .map(|(i, &(_, count))| {
                let mut contents = vec![0u16; n];
                contents[i] = 1;
                Package {
                    weight: count,
                    contents,
                }
            })
            .collect();
        let mut current = items.clone();
        for _level in (1..max_len).rev() {
            let packaged: Vec<Package> = current
                .chunks_exact(2)
                .map(|pair| Package {
                    weight: pair[0].weight + pair[1].weight,
                    contents: pair[0]
                        .contents
                        .iter()
                        .zip(&pair[1].contents)
                        .map(|(a, b)| a + b)
                        .collect(),
                })
                .collect();
            let mut merged = Vec::with_capacity(items.len() + packaged.len());
            let (mut i, mut j) = (0, 0);
            while i < items.len() && j < packaged.len() {
                if items[i].weight <= packaged[j].weight {
                    merged.push(items[i].clone());
                    i += 1;
                } else {
                    merged.push(packaged[j].clone());
                    j += 1;
                }
            }
            merged.extend_from_slice(&items[i..]);
            merged.extend_from_slice(&packaged[j..]);
            current = merged;
        }
        let mut depth = vec![0u16; n];
        for package in current.iter().take(2 * (n - 1)) {
            for (d, c) in depth.iter_mut().zip(&package.contents) {
                *d += c;
            }
        }
        for (i, &(sym, _)) in symbols.iter().enumerate() {
            lengths[sym as usize] = depth[i] as u8;
        }
        Ok(lengths)
    }

    fn from_counts(counts: [u64; 256]) -> ByteHistogram {
        ByteHistogram { counts }
    }

    fn assert_matches_reference(h: &ByteHistogram, max_len: u8) {
        assert_eq!(
            bounded_lengths(h, max_len),
            reference_lengths(h, max_len),
            "max_len {max_len}, {} symbols",
            h.distinct()
        );
    }

    /// Fibonacci-weighted counts over the first `n` symbols: the most
    /// skewed histogram for its size, whose unbounded Huffman code is
    /// n-1 bits deep, so any bound below that binds. Capped at 2^40 so
    /// package weights stay far from overflow at 256 symbols.
    fn fibonacci_counts(n: usize) -> [u64; 256] {
        let mut counts = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for c in counts.iter_mut().take(n) {
            *c = a;
            (a, b) = (b, (a + b).min(1 << 40));
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sparse histograms, raw and smoothed, over every bound
        /// the function accepts above the byte width.
        #[test]
        fn lazy_merge_matches_eager_reference(
            bytes in proptest::collection::vec(any::<u8>(), 1..600),
            max_len in 8u8..=32,
        ) {
            let h = ByteHistogram::of(&bytes);
            prop_assert_eq!(bounded_lengths(&h, max_len), reference_lengths(&h, max_len));
            let smoothed = h.smoothed();
            prop_assert_eq!(
                bounded_lengths(&smoothed, max_len),
                reference_lengths(&smoothed, max_len)
            );
        }

        /// Random full-range counts, from flat to heavy-headed, including
        /// zeros (symbols left out) and ties (the item-first merge rule).
        #[test]
        fn lazy_merge_matches_eager_reference_on_wide_counts(
            counts in proptest::collection::vec((0u32..40, 0u64..4), 256),
            max_len in 8u8..=32,
        ) {
            let mut raw = [0u64; 256];
            for (c, &(shift, low)) in raw.iter_mut().zip(&counts) {
                *c = (1u64 << shift) | low;
                if shift % 5 == 0 {
                    *c = 0;
                }
            }
            let h = from_counts(raw);
            if h.distinct() > 0 {
                prop_assert_eq!(bounded_lengths(&h, max_len), reference_lengths(&h, max_len));
            }
            prop_assert_eq!(
                bounded_lengths(&h.smoothed(), max_len),
                reference_lengths(&h.smoothed(), max_len)
            );
        }
    }

    #[test]
    fn lazy_merge_matches_reference_on_edge_cases() {
        for max_len in 1..=32 {
            // One symbol, two symbols.
            assert_matches_reference(&ByteHistogram::of(b"zzz"), max_len);
            assert_matches_reference(&ByteHistogram::of(b"abbbbbbb"), max_len);
            // Heavily skewed counts: the bound binds for every n past it.
            for n in [3, 9, 17, 33, 40, 60, 256] {
                assert_matches_reference(&from_counts(fibonacci_counts(n)), max_len);
            }
        }
        // n == 2^L exactly: the only feasible code is the flat one.
        for max_len in 1..=8u8 {
            let n = 1usize << max_len;
            let h: ByteHistogram = (0..n).map(|b| b as u8).collect();
            assert_matches_reference(&h, max_len);
            let skewed = from_counts(fibonacci_counts(n));
            assert_matches_reference(&skewed, max_len);
            let lengths = bounded_lengths(&skewed, max_len).unwrap();
            assert!(lengths[..n].iter().all(|&l| l == max_len));
        }
        // Out-of-range bounds and impossible alphabets error identically.
        let full = ByteHistogram::of(&(0u8..=255).collect::<Vec<_>>());
        for max_len in [0, 7, 33] {
            assert_matches_reference(&full, max_len);
        }
        assert_matches_reference(&ByteHistogram::new(), 16);
    }

    fn kraft(lengths: &[u8; 256]) -> f64 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-i32::from(l)))
            .sum()
    }

    fn weighted_bits(lengths: &[u8; 256], h: &ByteHistogram) -> u64 {
        (0u16..256)
            .map(|b| u64::from(lengths[b as usize]) * h.count(b as u8))
            .sum()
    }

    fn skewed_histogram(n: u8) -> ByteHistogram {
        let mut h = ByteHistogram::new();
        let mut w = 1u64;
        let mut prev = 1u64;
        for sym in 0..n {
            for _ in 0..w {
                h.update(&[sym]);
            }
            let next = w + prev;
            prev = w;
            w = next;
        }
        h
    }

    #[test]
    fn respects_bound_and_kraft() {
        let h = skewed_histogram(24); // unbounded Huffman would exceed 16
        let unbounded = traditional_lengths(&h).unwrap();
        assert!(unbounded.iter().copied().max().unwrap() > 16);
        let bounded = bounded_lengths(&h, 16).unwrap();
        assert!(bounded.iter().all(|&l| l <= 16));
        let k = kraft(&bounded);
        assert!(k <= 1.0 + 1e-12, "kraft {k}");
    }

    #[test]
    fn matches_huffman_when_bound_is_loose() {
        // With a generous bound, package-merge's total cost equals Huffman's.
        let h = ByteHistogram::of(b"abracadabra alakazam");
        let a = traditional_lengths(&h).unwrap();
        let b = bounded_lengths(&h, 32).unwrap();
        assert_eq!(weighted_bits(&a, &h), weighted_bits(&b, &h));
    }

    #[test]
    fn optimal_among_bounded() {
        // For a small alphabet we can brute-force all monotone length
        // assignments and confirm package-merge is optimal.
        let mut h = ByteHistogram::new();
        for (sym, count) in [(0u8, 40u64), (1, 30), (2, 20), (3, 6), (4, 3), (5, 1)] {
            for _ in 0..count {
                h.update(&[sym]);
            }
        }
        let max_len = 3;
        let got = bounded_lengths(&h, max_len).unwrap();
        let got_cost = weighted_bits(&got, &h);
        // Brute force: all length tuples in 1..=3 satisfying Kraft.
        let mut best = u64::MAX;
        let lens = [1u8, 2, 3];
        for a in lens {
            for b in lens {
                for c in lens {
                    for d in lens {
                        for e in lens {
                            for f in lens {
                                let tuple = [a, b, c, d, e, f];
                                let k: f64 = tuple.iter().map(|&l| 2f64.powi(-i32::from(l))).sum();
                                if k <= 1.0 + 1e-12 {
                                    let cost: u64 = tuple
                                        .iter()
                                        .enumerate()
                                        .map(|(s, &l)| u64::from(l) * h.count(s as u8))
                                        .sum();
                                    best = best.min(cost);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(got_cost, best);
    }

    #[test]
    fn full_alphabet_fits_in_16() {
        let h = ByteHistogram::of(&(0u8..=255).collect::<Vec<_>>()).smoothed();
        let lengths = bounded_lengths(&h, PAPER_MAX_LEN).unwrap();
        assert_eq!(lengths.iter().filter(|&&l| l > 0).count(), 256);
        assert!(lengths.iter().all(|&l| l <= 16));
    }

    #[test]
    fn impossible_bound_rejected() {
        let h = ByteHistogram::of(&(0u8..=255).collect::<Vec<_>>());
        assert!(matches!(
            bounded_lengths(&h, 7),
            Err(CompressError::LengthTooLong { .. })
        ));
        assert!(bounded_lengths(&h, 8).is_ok());
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            bounded_lengths(&ByteHistogram::new(), 16),
            Err(CompressError::EmptyHistogram)
        ));
    }
}
