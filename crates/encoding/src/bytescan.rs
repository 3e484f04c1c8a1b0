//! Word-at-a-time byte scanning primitives for the RLE/LZSS inner loops.
//!
//! Every helper walks 8 bytes per iteration on the aligned middle of the
//! buffer and falls back to a byte loop for the tail, returning exactly
//! the index the equivalent byte loop would (`scans_agree_with_byte_loops`
//! below); the RLE/LZSS coders built on these are held byte-identical to
//! frozen scalar copies (`tests/frozen_kernels`) by
//! `tests/kernel_differential.rs`, and so is the ROLZ token pass that
//! extends matches and ranks literals with them.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// SWAR zero-byte detector: the result's lowest set bit sits in the first
/// zero byte of `v` (bits in higher bytes may be false positives, which
/// is fine — only `trailing_zeros` is ever used).
#[inline]
fn has_zero_byte(v: u64) -> u64 {
    v.wrapping_sub(LO) & !v & HI
}

#[inline]
fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

#[inline]
fn load(buf: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(buf[i..i + 8].try_into().unwrap())
}

/// First index `>= i` where `buf` stops being `byte` (end of a run).
#[inline]
pub(crate) fn run_end(buf: &[u8], mut i: usize, byte: u8) -> usize {
    let s = splat(byte);
    while i + 8 <= buf.len() {
        let x = load(buf, i) ^ s;
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < buf.len() && buf[i] == byte {
        i += 1;
    }
    i
}

/// First index `>= i` holding `byte`, or `buf.len()`.
#[inline]
pub fn find_byte(buf: &[u8], mut i: usize, byte: u8) -> usize {
    let s = splat(byte);
    while i + 8 <= buf.len() {
        let m = has_zero_byte(load(buf, i) ^ s);
        if m != 0 {
            return i + (m.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < buf.len() && buf[i] != byte {
        i += 1;
    }
    i
}

/// First index `>= i` holding `a` or `b`, or `buf.len()`.
#[inline]
pub(crate) fn find_either(buf: &[u8], mut i: usize, a: u8, b: u8) -> usize {
    let (sa, sb) = (splat(a), splat(b));
    while i + 8 <= buf.len() {
        let w = load(buf, i);
        let m = has_zero_byte(w ^ sa) | has_zero_byte(w ^ sb);
        if m != 0 {
            return i + (m.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < buf.len() && buf[i] != a && buf[i] != b {
        i += 1;
    }
    i
}

/// Length of the common prefix of `a` and `b`, capped at `limit`.
/// Requires both slices to hold at least `limit` bytes.
#[inline]
pub fn common_prefix(a: &[u8], b: &[u8], limit: usize) -> usize {
    let mut l = 0;
    while l + 8 <= limit {
        let x = load(a, l) ^ load(b, l);
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && a[l] == b[l] {
        l += 1;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_agree_with_byte_loops() {
        let mut st = 0xA5A5_5A5A_1234_5678u64;
        let mut xs = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        for trial in 0..200 {
            let n = (trial * 7) % 70;
            let buf: Vec<u8> = (0..n).map(|_| (xs() % 5) as u8).collect();
            for start in 0..=buf.len() {
                assert_eq!(
                    run_end(&buf, start, 2),
                    (start..buf.len()).find(|&k| buf[k] != 2).unwrap_or(buf.len())
                );
                assert_eq!(
                    find_byte(&buf, start, 3),
                    (start..buf.len()).find(|&k| buf[k] == 3).unwrap_or(buf.len())
                );
                assert_eq!(
                    find_either(&buf, start, 1, 4),
                    (start..buf.len())
                        .find(|&k| buf[k] == 1 || buf[k] == 4)
                        .unwrap_or(buf.len())
                );
            }
        }
        let a: Vec<u8> = (0..64).map(|_| (xs() % 3) as u8).collect();
        let b: Vec<u8> = (0..64).map(|_| (xs() % 3) as u8).collect();
        for limit in 0..=64 {
            let scalar = (0..limit).find(|&k| a[k] != b[k]).unwrap_or(limit);
            assert_eq!(common_prefix(&a, &b, limit), scalar, "limit {limit}");
        }
    }
}
