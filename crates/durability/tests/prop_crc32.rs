//! `crc32` folds eight bytes per step (slice-by-8). It must agree with
//! the plain bytewise table-driven CRC-32 it replaced — the values are
//! stored in every snapshot header, journal record and wire frame — at
//! every length, and in particular at every split between the 8-byte
//! blocks and the bytewise tail.

use neat_durability::crc32;
use proptest::prelude::*;

/// The bytewise reference: one table lookup per input byte, reflected
/// polynomial `0xEDB88320`, initial value and final xor `0xFFFFFFFF`.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[test]
fn every_length_up_to_64_matches_the_bytewise_reference() {
    // A fixed non-trivial pattern, every prefix and every suffix.
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    for len in 0..=data.len() {
        assert_eq!(
            crc32(&data[..len]),
            crc32_bytewise(&data[..len]),
            "prefix {len}"
        );
        let tail = &data[data.len() - len..];
        assert_eq!(crc32(tail), crc32_bytewise(tail), "suffix {len}");
    }
}

#[test]
fn known_vectors_match_the_reference() {
    for v in [
        &b""[..],
        b"a",
        b"123456789",
        b"The quick brown fox jumps over the lazy dog",
    ] {
        assert_eq!(crc32(v), crc32_bytewise(v));
    }
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_buffers_match_the_bytewise_reference(
        bytes in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    #[test]
    fn every_short_length_matches_on_random_bytes(
        bytes in proptest::collection::vec(0u8..=255, 64..65),
    ) {
        for len in 0..=64 {
            prop_assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]), "len {}", len);
        }
    }
}
