//! The shortest round-trip form of an `f64`, written byte for byte as
//! `{:e}` writes it: Ryū (Adams, PLDI 2018) for the digits, Rust's
//! shortest-mode rules for the choice among them.
//!
//! * **Digits.** The fewest significant digits that parse back to the
//!   same `f64`, and among those the closest to its exact value. The
//!   rounding interval is inclusive when the binary mantissa is even.
//! * **Ties round up.** Where the two closest candidates are equally
//!   near (the exact value is `…d5` with nothing after the 5), `{:e}`
//!   takes the larger: 2⁻²⁵ = 2.98023223876953125e-8 prints as
//!   `2.9802322387695313e-8`. Reference Ryū rounds such ties to even;
//!   this module has no round-even step.
//! * **Form.** `d` or `d.ddd…`, then `e`, then the decimal exponent,
//!   which carries `-` when negative and never `+`. The zeros print as
//!   `0e0` and `-0e0`.
//!
//! The two 125-bit power-of-five tables are derived at compile time by
//! `const fn`s with exact integer arithmetic, so there is neither a
//! pasted literal table nor any run-time set-up. The unit tests hold
//! both against an independent bit-serial derivation and the writer
//! against `{:e}`.

/// Bits in a table entry (Ryū's `DOUBLE_POW5_INV_BITCOUNT` and
/// `DOUBLE_POW5_BITCOUNT`).
const POW5_BITS: i32 = 125;

/// `⌊2^j / 5^q⌋ + 1` for `q` in `0..342`, where `j = bitlen(5^q) − 1 +
/// 125`: 125 significant bits of `5^-q`, rounded up.
static POW5_INV_SPLIT: [u128; 342] = pow5_inv_split();

/// The top 125 bits of `5^i` for `i` in `0..326`.
static POW5_SPLIT: [u128; 326] = pow5_split();

/// Width of the compile-time big integers: 17 × 64 bits hold `2^1024`
/// and `5^341`, the largest values either table derivation needs.
const LIMBS: usize = 17;

/// A little-endian multi-limb unsigned integer. The table derivations
/// pass it by value: `&mut` in a `const fn` needs Rust 1.83, above this
/// workspace's 1.73 floor.
type Limbs = [u64; LIMBS];

/// `x · 5`.
const fn mul5(mut x: Limbs) -> Limbs {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * 5 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    x
}

/// `⌊x / 5⌋`.
const fn div5(mut x: Limbs) -> Limbs {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let t = (rem << 64) | x[i] as u128;
        x[i] = (t / 5) as u64;
        rem = t % 5;
    }
    x
}

/// The position of the highest set bit plus one; 0 for zero.
const fn bit_len(x: Limbs) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * (i as u32 + 1) - x[i].leading_zeros();
        }
    }
    0
}

/// Bits `shift..shift + 128` of `x`, i.e. `⌊x / 2^shift⌋ mod 2^128`.
const fn bits_from(x: Limbs, shift: u32) -> u128 {
    let (word, bit) = ((shift / 64) as usize, shift % 64);
    let mut out = (x[word] as u128) >> bit;
    let mut k = 1;
    while k < 3 && word + k < LIMBS && 64 * k as u32 - bit < 128 {
        out |= (x[word + k] as u128) << (64 * k as u32 - bit);
        k += 1;
    }
    out
}

const ONE: Limbs = {
    let mut x = [0; LIMBS];
    x[0] = 1;
    x
};

const fn pow5_split<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    let mut pow = ONE;
    let mut i = 0;
    while i < N {
        let len = bit_len(pow);
        table[i] = if len > POW5_BITS as u32 {
            bits_from(pow, len - POW5_BITS as u32)
        } else {
            bits_from(pow, 0) << (POW5_BITS as u32 - len)
        };
        pow = mul5(pow);
        i += 1;
    }
    table
}

/// `⌊2^j / 5^q⌋` is `⌊2^1024 / 5^q⌋` shifted right by `1024 − j`, and
/// `⌊2^1024 / 5^q⌋` is `2^1024` divided `q` times by 5, exactly, since
/// `⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋`. Every `j` here is at most 916.
const fn pow5_inv_split<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    let mut pow = ONE;
    let mut inv = [0; LIMBS];
    inv[LIMBS - 1] = 1; // 2^1024
    let mut q = 0;
    while q < N {
        let j = bit_len(pow) - 1 + POW5_BITS as u32;
        table[q] = bits_from(inv, 1024 - j) + 1;
        pow = mul5(pow);
        inv = div5(inv);
        q += 1;
    }
    table
}

/// `bitlen(5^e)` for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut factor = 0;
    while v % 5 == 0 && factor < p {
        v /= 5;
        factor += 1;
    }
    factor >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul`, `m < 2^56` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `digits · 10^exp` of the positive finite double
/// with these IEEE fields (Ryū's `d2d`).
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is m2 · 2^(e2 + 2): two extra bits for the bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 1023 - 52 - 2,
            (1 << 52) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 % 2 == 0;
    // The value and its interval's ends in units of 2^e2. The lower
    // gap is half as wide below a power of two, except at the smallest
    // normal exponent, whose neighbour below is a subnormal.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale to base 10: vr, vp, vm are mv, mp, mm times 2^e2 / 10^e10,
    // truncated. vm_exact says the truncation dropped nothing from vm.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        let mul = POW5_INV_SPLIT[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // A truncation can be exact only for q ≤ 21 (Ryū's bound), and
        // then for at most one of mm, mv, mp: they span less than 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i) - POW5_BITS);
        let mul = POW5_SPLIT[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // The products are exact iff their factor has q trailing zero
        // bits: mp and mm have at most one, so only q ≤ 1 matters.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number,
    // remembering the last digit dropped from vr for the rounding.
    let mut removed = 0;
    let mut last_digit = 0;
    while vp / 100 > vm / 100 {
        vm_exact &= vm % 100 == 0;
        last_digit = vr % 100 / 10;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        last_digit = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // An exact, accepted lower bound can itself be shortened further.
    if vm_exact {
        while vm % 10 == 0 {
            last_digit = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round up when vr fell out of the interval or the dropped digits
    // were at least half a unit: `{:e}` takes the upper one of a tie.
    let round_up = (vr == vm && !(accept_bounds && vm_exact)) || last_digit >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// "00", "01", … "99": the two ASCII digits of each n < 100.
static DIGIT_PAIRS: [[u8; 2]; 100] = digit_pairs();

const fn digit_pairs() -> [[u8; 2]; 100] {
    let mut table = [[0; 2]; 100];
    let mut n = 0;
    while n < 100 {
        table[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    table
}

/// The eight decimal digits of `v < 10^8`, leading zeros included.
fn eight_digits(v: u32) -> [u8; 8] {
    let (high, low) = (v / 10_000, v % 10_000);
    let [a, b] = DIGIT_PAIRS[(high / 100) as usize];
    let [c, d] = DIGIT_PAIRS[(high % 100) as usize];
    let [e, f] = DIGIT_PAIRS[(low / 100) as usize];
    let [g, h] = DIGIT_PAIRS[(low % 100) as usize];
    [a, b, c, d, e, f, g, h]
}

/// Appends the finite `v` exactly as `write!(out, "{v:e}")` would.
pub(crate) fn push_exp(out: &mut String, v: f64) {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let (ieee_mantissa, ieee_exponent) = (bits & ((1 << 52) - 1), (bits >> 52) as u32 & 0x7ff);
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        out.push_str(if negative { "-0e0" } else { "0e0" });
        return;
    }
    let (digits, exp) = shortest(ieee_mantissa, ieee_exponent);
    let len = digits.ilog10() as usize + 1;

    // All 17 digit places, zero-padded, then 16 spare bytes for the
    // fixed-size fraction copy below.
    let mut text = [b'0'; 33];
    text[0] = b'0' + (digits / 10_000_000_000_000_000) as u8;
    text[1..9].copy_from_slice(&eight_digits((digits / 100_000_000 % 100_000_000) as u32));
    text[9..17].copy_from_slice(&eight_digits((digits % 100_000_000) as u32));
    let first = 17 - len;

    // The longest form, "-d.dddddddddddddddde-308", is 24 bytes. The
    // fraction is copied as a fixed 16-byte block whatever its length;
    // the bytes past its end are overwritten or never pushed.
    let mut buf = [0u8; 24];
    let mut at = 0;
    if negative {
        buf[0] = b'-';
        at = 1;
    }
    buf[at] = text[first];
    buf[at + 1] = b'.';
    buf[at + 2..at + 18].copy_from_slice(&text[first + 1..first + 17]);
    at += if len > 1 { len + 1 } else { 1 };
    buf[at] = b'e';
    at += 1;
    let sci = exp + len as i32 - 1;
    if sci < 0 {
        buf[at] = b'-';
        at += 1;
    }
    let e = sci.unsigned_abs() as usize;
    if e >= 100 {
        buf[at] = b'0' + (e / 100) as u8;
        at += 1;
    }
    let pair = DIGIT_PAIRS[e % 100];
    if e >= 10 {
        buf[at] = pair[0];
        at += 1;
    }
    buf[at] = pair[1];
    at += 1;
    out.push_str(std::str::from_utf8(&buf[..at]).expect("the buffer holds ASCII only"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: Rust's own shortest-mode formatting.
    fn oracle(v: f64) -> String {
        format!("{v:e}")
    }

    fn ours(v: f64) -> String {
        let mut out = String::new();
        push_exp(&mut out, v);
        out
    }

    #[track_caller]
    fn assert_matches_oracle(v: f64) {
        assert_eq!(ours(v), oracle(v), "bits {:#018x}", v.to_bits());
    }

    /// A little-endian `u32`-limb integer for the independent derivation.
    type Big = Vec<u32>;

    fn big_bit_len(x: &Big) -> u32 {
        x.iter()
            .rposition(|&l| l != 0)
            .map_or(0, |i| 32 * (i as u32 + 1) - x[i].leading_zeros())
    }

    fn big_bit(x: &Big, i: u32) -> bool {
        x.get(i as usize / 32)
            .is_some_and(|l| (l >> (i % 32)) & 1 == 1)
    }

    fn big_mul_small(x: &Big, m: u32) -> Big {
        let mut carry = 0u64;
        let mut out: Big = x
            .iter()
            .map(|&l| {
                let t = u64::from(l) * u64::from(m) + carry;
                carry = t >> 32;
                t as u32
            })
            .collect();
        if carry > 0 {
            out.push(carry as u32);
        }
        out
    }

    /// `x >= y`, with `x` and `y` of any lengths.
    fn big_ge(x: &Big, y: &Big) -> bool {
        let n = x.len().max(y.len());
        for i in (0..n).rev() {
            let (a, b) = (
                x.get(i).copied().unwrap_or(0),
                y.get(i).copied().unwrap_or(0),
            );
            if a != b {
                return a > b;
            }
        }
        true
    }

    fn big_sub(x: &mut Big, y: &Big) {
        let mut borrow = 0i64;
        for (i, l) in x.iter_mut().enumerate() {
            let t = i64::from(*l) - i64::from(y.get(i).copied().unwrap_or(0)) - borrow;
            *l = t.rem_euclid(1 << 32) as u32;
            borrow = i64::from(t < 0);
        }
        assert_eq!(borrow, 0, "x < y");
    }

    /// `2x + bit`.
    fn big_shl1(x: &mut Big, bit: bool) {
        let mut carry = u32::from(bit);
        for l in x.iter_mut() {
            let next = *l >> 31;
            *l = (*l << 1) | carry;
            carry = next;
        }
        if carry > 0 {
            x.push(carry);
        }
    }

    /// The top 125 bits of `x`, one bit at a time.
    fn big_top_125(x: &Big) -> u128 {
        let len = big_bit_len(x);
        (0..125).fold(0u128, |acc, k| {
            let i = i64::from(len) - 1 - k;
            (acc << 1) | u128::from(i >= 0 && big_bit(x, i as u32))
        })
    }

    /// `⌊2^j / d⌋` by restoring long division, one dividend bit per step.
    fn big_div_pow2(j: u32, d: &Big) -> u128 {
        let mut rem: Big = vec![0];
        let mut quotient = 0u128;
        for bit in (0..=j).rev() {
            big_shl1(&mut rem, bit == j);
            let fits = big_ge(&rem, d);
            if fits {
                big_sub(&mut rem, d);
            }
            quotient = (quotient << 1) | u128::from(fits);
        }
        quotient
    }

    #[test]
    fn tables_equal_a_bit_serial_derivation() {
        assert_eq!(POW5_INV_SPLIT[0], (1 << 125) + 1);
        assert_eq!(POW5_SPLIT[0], 1 << 124);
        let mut pow: Big = vec![1];
        for (q, &inv) in POW5_INV_SPLIT.iter().enumerate() {
            let len = big_bit_len(&pow);
            assert_eq!(pow5_bits(q as i32), len as i32, "bitlen(5^{q})");
            if let Some(&entry) = POW5_SPLIT.get(q) {
                assert_eq!(entry, big_top_125(&pow), "POW5_SPLIT[{q}]");
            }
            let j = len - 1 + POW5_BITS as u32;
            assert_eq!(inv, big_div_pow2(j, &pow) + 1, "POW5_INV_SPLIT[{q}]");
            pow = big_mul_small(&pow, 5);
        }
    }

    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    fn next_down(v: f64) -> f64 {
        f64::from_bits(v.to_bits() - 1)
    }

    #[test]
    fn edge_values_and_their_neighbours_match_the_oracle() {
        let mut values = vec![
            5e-324,
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
        ];
        // Built from bits: powi underflows below 2^-1022.
        values.extend((-1074..=1023).map(|e: i64| {
            f64::from_bits(if e < -1022 {
                1 << (e + 1074)
            } else {
                ((e + 1023) as u64) << 52
            })
        }));
        values.extend((-323..=308).map(|e| format!("1e{e}").parse::<f64>().unwrap()));
        assert_eq!(values.len(), 5 + 2098 + 632);
        assert_matches_oracle(0.0);
        assert_matches_oracle(-0.0);
        assert_eq!((ours(0.0), ours(-0.0)), ("0e0".into(), "-0e0".into()));
        for v in values {
            assert!(v > 0.0 && v.is_finite(), "{v:e}");
            for w in [v, next_down(v), next_up(v)] {
                if w.is_finite() && w > 0.0 {
                    assert_matches_oracle(w);
                    assert_matches_oracle(-w);
                }
            }
        }
        assert_eq!(ours(f64::MIN), "-1.7976931348623157e308");
        assert_eq!(ours(5e-324), "5e-324");
    }

    /// The exact decimal digits of `v > 0` (no trailing zeros) and the
    /// power of ten of the first; enough precision for every value in
    /// the tie set.
    fn exact_digits(v: f64) -> (String, i32) {
        let text = format!("{v:.160e}");
        let (mantissa, exp) = text.split_once('e').unwrap();
        let digits = mantissa.replace('.', "");
        assert!(digits.ends_with("000"), "{text} needs more precision");
        (
            digits.trim_end_matches('0').to_string(),
            exp.parse().unwrap(),
        )
    }

    #[test]
    fn exact_ties_round_up_like_the_oracle() {
        assert_eq!(ours(2f64.powi(-25)), "2.9802322387695313e-8");
        let mut rng = tn_rng::Rng::seed_from_u64(0x71e5);
        let mut mantissas: Vec<u64> = (0..600u64).map(|m| 2 * m + 1).collect();
        mantissas.extend((0..600).map(|_| (rng.next_u64() >> 11) | 1));
        let mut values = Vec::new();
        for k in 0..=80 {
            let scale = 2f64.powi(k);
            for &m in &mantissas {
                values.extend([m as f64 / scale, m as f64 * scale]);
            }
        }
        // Odd m with m·5^k of 17 or 18 digits: m/2^k is then exactly one
        // digit longer than its likely shortest form.
        for k in 1..=25u32 {
            let low = 10u64.pow(16) / 5u64.pow(k) + 1;
            let high = (1 << 53).min(10u64.pow(18) / 5u64.pow(k));
            for _ in 0..300 {
                values.push((rng.gen_range(low..high) | 1) as f64 / 2f64.powi(k as i32));
            }
        }

        let (mut ties, mut deciding) = (0, 0);
        for v in values {
            assert_matches_oracle(v);
            // A tie: the exact value is one digit longer than the
            // shortest form, and that digit is 5.
            let shortest = ours(v).split('e').next().unwrap().replace('.', "");
            let (exact, exp) = exact_digits(v);
            if exact.len() != shortest.len() + 1 || !exact.ends_with('5') {
                continue;
            }
            ties += 1;
            // Round-half-even would print the lower candidate when its
            // last digit is even. Where that candidate round-trips too,
            // the tie rule alone decides the output.
            let lower = &exact[..shortest.len()];
            let even = lower.as_bytes()[lower.len() - 1] % 2 == 0;
            let lower_text = format!("{}.{}e{exp}", &lower[..1], &lower[1..]);
            if even && lower_text.parse::<f64>().unwrap() == v {
                deciding += 1;
            }
        }
        assert!(
            ties > 3000 && deciding > 1500,
            "{ties} ties, {deciding} decided by the rule"
        );
    }

    fn sweep(seed: u64, patterns: usize) {
        let mut rng = tn_rng::Rng::seed_from_u64(seed);
        let mut checked = 0;
        while checked < patterns {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                assert_matches_oracle(v);
                checked += 1;
            }
        }
    }

    #[test]
    fn random_bit_patterns_and_short_decimals_match_the_oracle() {
        sweep(0x5eed_0001, 100_000);
        let mut rng = tn_rng::Rng::seed_from_u64(0x5eed_0002);
        for _ in 0..50_000 {
            let n = rng.gen_range(0..1_000_000u64) as f64;
            let v = n / 10f64.powi(rng.gen_range(0..24));
            assert_matches_oracle(v);
            assert_matches_oracle(-v);
        }
    }

    /// The long sweep; `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "ten million patterns; run with --release -- --ignored"]
    fn ten_million_random_bit_patterns_match_the_oracle() {
        sweep(0x5eed_1000_0000, 10_000_000);
    }
}
