//! The response-cache key writer shared by the fleet registry and the
//! server. A key is bytes: each string as its byte length and its bytes,
//! each count or index as its length-prefix encoding alone, and each
//! number as the eight bytes of its bits.
//!
//! Lengths, counts and indices are written in LEB128: seven bits per
//! byte, low bits first, every byte but the last with its top bit set,
//! so a value below 128 takes one byte and no encoding is a prefix of
//! another. Every field is therefore self-delimiting, so a sequence of
//! fields is too: two keys written field by field from sequences of the
//! same shape are equal exactly when their strings are equal, their
//! counts are equal and their numbers have the same bits. Floats are
//! written as [`f64::to_bits`], so `-0` and `0` differ, as they do in a
//! rendered body; no number spelling reaches the key at all. No writer
//! allocates beyond `out`'s growth.

/// Appends `n` in LEB128 (see the module docs).
pub fn push_count(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Appends `text` as its byte length ([`push_count`]) and its bytes.
pub fn push_text(out: &mut Vec<u8>, text: &str) {
    push_count(out, text.len());
    out.extend_from_slice(text.as_bytes());
}

/// Appends each of `bits` as its eight little-endian bytes.
pub fn push_bits(out: &mut Vec<u8>, bits: &[u64]) {
    out.reserve(8 * bits.len());
    for bits in bits {
        out.extend_from_slice(&bits.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_self_delimiting_and_exact() {
        let mut key = Vec::new();
        push_text(&mut key, "");
        push_text(&mut key, "a|1:");
        push_text(&mut key, &"x".repeat(200));
        let mut want = vec![0, 4];
        want.extend_from_slice(b"a|1:");
        // 200 = 0b1_1001000: the low seven bits with the top bit set,
        // then the rest.
        want.extend_from_slice(&[0xc8, 0x01]);
        want.extend_from_slice("x".repeat(200).as_bytes());
        assert_eq!(key, want);

        let mut key = Vec::new();
        for n in [0, 1, 127, 128, 16_383, 16_384, usize::MAX] {
            push_count(&mut key, n);
        }
        let mut max = vec![0xff; 9];
        max.push(0x01);
        let want: Vec<u8> = [
            &[0x00][..],
            &[0x01],
            &[0x7f],
            &[0x80, 0x01],
            &[0xff, 0x7f],
            &[0x80, 0x80, 0x01],
            &max,
        ]
        .concat();
        assert_eq!(key, want);

        let numbers = [0.0f64, -0.0, 1.0, 5e-324, f64::MAX, 2.5];
        let mut key = Vec::new();
        push_bits(&mut key, &numbers.map(f64::to_bits));
        push_bits(&mut key, &[7, u64::MAX]);
        let want: Vec<u8> = numbers
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .chain(7u64.to_le_bytes())
            .chain([0xff; 8])
            .collect();
        assert_eq!(key, want);
        assert_eq!(
            &key[8..16],
            &[0, 0, 0, 0, 0, 0, 0, 0x80],
            "-0 keeps its sign bit"
        );
    }

    /// Decodes one LEB128 count: the oracle for [`push_count`].
    fn read_count(bytes: &[u8]) -> Option<(usize, usize)> {
        let mut n = 0usize;
        for (i, &byte) in bytes.iter().enumerate().take(10) {
            n |= usize::from(byte & 0x7f).checked_shl(7 * i as u32)?;
            if byte < 0x80 {
                return Some((n, i + 1));
            }
        }
        None
    }

    #[test]
    fn counts_read_back_and_no_encoding_prefixes_another() {
        let mut rng = tn_rng::Rng::seed_from_u64(25);
        let mut encodings = Vec::new();
        for _ in 0..2_000 {
            let n = rng.next_u64() as usize >> rng.gen_range(0..64u32);
            let mut out = Vec::new();
            push_count(&mut out, n);
            assert_eq!(read_count(&out), Some((n, out.len())), "{n}");
            encodings.push(out);
        }
        for a in &encodings[..200] {
            for b in &encodings[..200] {
                assert!(a == b || !b.starts_with(a), "{a:?} prefixes {b:?}");
            }
        }
    }
}
