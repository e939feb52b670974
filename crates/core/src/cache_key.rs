//! The response-cache key writer shared by the fleet registry and the
//! server: each string as its decimal byte length, `:` and its bytes,
//! and each number as the 16 hex digits of its bits.
//!
//! Every field is self-delimiting, so a sequence of fields is too: two
//! keys written field by field from sequences of the same shape are
//! equal exactly when their strings are equal and their numbers have the
//! same bits. Floats are written as [`f64::to_bits`], so `-0` and `0`
//! differ, as they do in a rendered body; no number spelling reaches the
//! key at all. Neither writer allocates beyond `out`'s growth.

/// Appends `text` as its decimal byte length, `:` and its bytes.
pub fn push_text(out: &mut String, text: &str) {
    let mut len = text.len();
    let mut prefix = [b':'; 21];
    let mut start = prefix.len() - 1;
    loop {
        start -= 1;
        prefix[start] = b'0' + (len % 10) as u8;
        len /= 10;
        if len == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&prefix[start..]).expect("ASCII digits and `:`"));
    out.push_str(text);
}

/// Appends each of `bits` as 16 lowercase hex digits, through a stack
/// buffer: a push per number cost more than writing its digits.
pub fn push_bits(out: &mut String, bits: &[u64]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for chunk in bits.chunks(5) {
        let mut digits = [0u8; 5 * 16];
        for (number, bits) in digits.chunks_exact_mut(16).zip(chunk) {
            for (i, digit) in number.iter_mut().enumerate() {
                *digit = HEX[((bits >> (60 - 4 * i)) & 0xf) as usize];
            }
        }
        let digits = &digits[..16 * chunk.len()];
        out.push_str(std::str::from_utf8(digits).expect("ASCII hex digits"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_self_delimiting_and_exact() {
        let mut key = String::new();
        push_text(&mut key, "");
        push_text(&mut key, "a|1:");
        push_text(&mut key, &"x".repeat(12));
        assert_eq!(key, format!("0:4:a|1:12:{}", "x".repeat(12)));

        let numbers = [0.0f64, -0.0, 1.0, 5e-324, f64::MAX, 2.5];
        let mut key = String::new();
        push_bits(&mut key, &numbers.map(f64::to_bits));
        push_bits(&mut key, &[7, u64::MAX]);
        let want: String = numbers
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .chain(["0000000000000007".into(), "ffffffffffffffff".into()])
            .collect();
        assert_eq!(key, want);
    }
}
