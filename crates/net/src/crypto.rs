//! Channel keys for the toy link-encryption envelope.
//!
//! The brief assumes "encryption is applied before data is transmitted on
//! the network" and treats it as a black box. The sealed frame envelope in
//! [`crate::frame`] models that black box; this module holds what it is
//! keyed with — per-direction [`ChannelKey`]s derived from a session
//! secret — and the [`CryptoError`] it reports.
//!
//! # Security disclaimer
//!
//! **This is NOT real cryptography.** It exists so the protocol code has an
//! honest seal/open interface, sealed payloads are not readable by the hub,
//! and tampering is detectable in tests. A production deployment would use
//! an AEAD (e.g. AES-GCM or ChaCha20-Poly1305) behind the same interface.

/// A symmetric channel key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelKey(pub u64);

impl ChannelKey {
    /// Derives a per-direction key for an ordered party pair from a session
    /// secret (both endpoints derive the same key).
    pub fn derive(session_secret: u64, from: u64, to: u64) -> Self {
        ChannelKey(splitmix(
            session_secret ^ from.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ to.rotate_left(17),
        ))
    }
}

/// Errors from opening a sealed frame ([`crate::frame::open_frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// The payload was too short to contain the tag.
    Truncated,
    /// The authentication tag did not verify (corruption or wrong key).
    BadTag,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::Truncated => write!(f, "sealed payload truncated"),
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for CryptoError {}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_derivation_is_directional() {
        assert_ne!(ChannelKey::derive(9, 1, 2), ChannelKey::derive(9, 2, 1));
        assert_eq!(ChannelKey::derive(9, 1, 2), ChannelKey::derive(9, 1, 2));
    }
}
