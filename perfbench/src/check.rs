//! Correctness checks, run outside the timed regions. Every mismatch
//! they count is reported as a failed operation and makes the command
//! exit non-zero.

use std::collections::BTreeMap;

/// Answer recorded for a lookup that found nothing. [`crate::value_of`]
/// is a bijection, so exactly one key maps to this value, and no
/// generated input is expected to hold it.
pub const NOT_FOUND: u64 = u64::MAX;

/// Order-sensitive digest of a range-scan result, including its length.
#[must_use]
pub fn digest(entries: &[(u64, u64)]) -> u64 {
    entries.iter().fold(entries.len() as u64, |h, &(k, v)| {
        (h ^ k).wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ v
    })
}

/// Positions where `got` differs from `expected`, plus any length
/// difference.
#[must_use]
pub fn mismatches(expected: &[u64], got: &[u64]) -> u64 {
    let differing = expected.iter().zip(got).filter(|(e, g)| e != g).count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

/// Entries of `actual` (in key order) that differ from `oracle`, plus
/// any length difference.
#[must_use]
pub fn contents_mismatches(
    actual: impl IntoIterator<Item = (u64, u64)>,
    oracle: &BTreeMap<u64, u64>,
) -> u64 {
    let mut seen = 0usize;
    let mut differing = 0u64;
    let mut expected = oracle.iter();
    for (k, v) in actual {
        seen += 1;
        if let Some((&ek, &ev)) = expected.next() {
            differing += u64::from((k, v) != (ek, ev));
        }
    }
    differing + seen.abs_diff(oracle.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_order_length_and_values() {
        let a = [(1, 10), (2, 20)];
        assert_ne!(digest(&a), digest(&[(2, 20), (1, 10)]));
        assert_ne!(digest(&a), digest(&a[..1]));
        assert_ne!(digest(&a), digest(&[(1, 10), (2, 21)]));
        assert_eq!(digest(&a), digest(&[(1, 10), (2, 20)]));
    }

    #[test]
    fn contents_counts_missing_extra_and_changed() {
        let oracle: BTreeMap<u64, u64> = [(1, 1), (2, 2), (3, 3)].into_iter().collect();
        assert_eq!(contents_mismatches(oracle.clone(), &oracle), 0);
        assert_eq!(contents_mismatches([(1, 1), (2, 2)], &oracle), 1);
        assert_eq!(contents_mismatches([(1, 1), (2, 9), (3, 3)], &oracle), 1);
        assert_eq!(
            contents_mismatches([(1, 1), (2, 2), (3, 3), (4, 4)], &oracle),
            1
        );
    }
}
