//! Shared test-support utilities: the dependency-free FNV-1a digest
//! and the byte pin that `tests/noise_determinism.rs` and the bench
//! crate's `tests/figure_cli.rs` use to freeze report JSON
//! byte-for-byte.
//!
//! Pinning lives in one place so engine work that legitimately changes
//! report bytes (it should not — the sweep contract is byte identity)
//! has exactly one helper to re-pin against, and every pin failure
//! prints the replacement values.

/// FNV-1a 64 over `data` — the workspace's standard dependency-free
/// byte digest for pinning report JSON in tests.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Asserts `json` matches a committed `(length, FNV-1a 64)` pin,
/// naming `label` and printing the replacement pin values on drift so
/// an intentional re-pin is a copy-paste.
///
/// # Panics
///
/// Panics when either the byte length or the digest differs from the
/// pinned values.
pub fn assert_pinned(label: &str, json: &str, pinned_len: usize, pinned_fnv: u64) {
    let len = json.len();
    let fnv = fnv1a64(json.as_bytes());
    assert!(
        len == pinned_len && fnv == pinned_fnv,
        "{label} drifted from its byte pin:\n  pinned  len {pinned_len}, fnv 0x{pinned_fnv:016x}\n  actual  len {len}, fnv 0x{fnv:016x}\nif the change is intentional, re-pin with the actual values"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn assert_pinned_accepts_matching_pin() {
        assert_pinned("vector", "foobar", 6, 0x8594_4171_f739_67e8);
    }

    #[test]
    #[should_panic(expected = "drifted from its byte pin")]
    fn assert_pinned_rejects_drift() {
        assert_pinned("vector", "foobarX", 6, 0x8594_4171_f739_67e8);
    }
}
