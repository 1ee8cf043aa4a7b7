//! FNV-1a 64: the one checksum of every digest, segment column and
//! on-disk file the workspace writes.

/// The FNV-1a 64-bit offset basis — the hash state before any byte.
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime each byte's fold multiplies by.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV1A_INIT, bytes)
}

/// Fold more bytes into an FNV-1a 64 state. FNV is a plain byte fold,
/// so `fnv1a_update(fnv1a_update(INIT, a), b) == fnv1a(a ++ b)` —
/// which is what lets a digest be folded incrementally, a block or a
/// day at a time, and still land on the one-shot value.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME);
    }
    h
}
