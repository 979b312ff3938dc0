use crate::ct;

/// Number of bytes in every symmetric key used by the protocol.
pub const KEY_BYTES: usize = 16;

/// A 128-bit symmetric key.
///
/// All keys in the protocol — node keys `Ki`, cluster keys `Kci`, the master
/// key `Km`, the master-cluster key `KMC`, derived encryption/MAC keys and
/// key-chain links — are 128-bit values wrapped in this type.
///
/// Equality is constant-time; the `Debug` impl redacts the key material so
/// keys cannot leak into simulation traces by accident.
#[derive(Clone, Copy)]
pub struct Key128([u8; KEY_BYTES]);

impl Key128 {
    /// An all-zero key. Useful as a placeholder; never used for real traffic
    /// by the protocol layer.
    pub const ZERO: Key128 = Key128([0u8; KEY_BYTES]);

    /// Wraps raw key bytes.
    pub const fn from_bytes(bytes: [u8; KEY_BYTES]) -> Self {
        Key128(bytes)
    }

    /// Builds a key from a byte slice; panics if the slice is not 16 bytes.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut k = [0u8; KEY_BYTES];
        k.copy_from_slice(bytes);
        Key128(k)
    }

    /// Borrows the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_BYTES] {
        &self.0
    }

    /// Overwrites the key material with zeros.
    ///
    /// The protocol erases `Km` after the setup phase and `KMC` after node
    /// addition; this models that erasure.
    pub fn zeroize(&mut self) {
        // Write through a volatile-ish loop: good enough for a simulator —
        // the point is modelling erasure semantics, not defeating a real
        // memory-scraping adversary.
        for b in self.0.iter_mut() {
            *b = 0;
        }
    }

    /// Whether the key is all zeros (i.e. erased or never set).
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

impl PartialEq for Key128 {
    fn eq(&self, other: &Self) -> bool {
        ct::eq(&self.0, &other.0)
    }
}

impl Eq for Key128 {}

// Hashes the raw bytes, consistent with `PartialEq` (constant-time equality
// over the same bytes). Lets cipher-schedule caches key on `Key128` directly.
// The length is fixed, so no length prefix is written.
impl core::hash::Hash for Key128 {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

impl core::fmt::Debug for Key128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Key128(<redacted>)")
    }
}

impl From<[u8; KEY_BYTES]> for Key128 {
    fn from(bytes: [u8; KEY_BYTES]) -> Self {
        Key128(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let k = Key128::from_bytes([9u8; 16]);
        assert_eq!(k.as_bytes(), &[9u8; 16]);
    }

    #[test]
    fn zeroize_erases() {
        let mut k = Key128::from_bytes([0xAA; 16]);
        assert!(!k.is_zero());
        k.zeroize();
        assert!(k.is_zero());
        assert_eq!(k, Key128::ZERO);
    }

    #[test]
    fn debug_redacts() {
        let k = Key128::from_bytes([0x42; 16]);
        let s = format!("{k:?}");
        assert!(!s.contains("42"), "debug output leaked key bytes: {s}");
    }

    #[test]
    fn from_slice_matches_from_bytes() {
        let raw: Vec<u8> = (0..16).collect();
        let a = Key128::from_slice(&raw);
        let mut arr = [0u8; 16];
        arr.copy_from_slice(&raw);
        assert_eq!(a, Key128::from_bytes(arr));
    }

    #[test]
    #[should_panic]
    fn from_slice_wrong_len_panics() {
        let _ = Key128::from_slice(&[0u8; 15]);
    }
}
