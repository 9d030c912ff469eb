//! The workspace's hasher for in-process tables: the classic `FxHash`
//! multiply-xor scheme. Keys are small (`Copy` interning keys, signal
//! names) and never attacker-controlled, so a multiply per word beats
//! SipHash's DoS resistance, which none of them needs.

use std::hash::{BuildHasherDefault, Hasher};

/// `FxHash`: each word is rotated into the state and multiplied by a fixed
/// odd constant. Byte strings are consumed eight bytes at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// The multiplier of [`FxHasher`], also usable as a multiplicative hash of
/// a single word.
pub const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Builds [`FxHasher`]s: the `S` parameter of a `HashMap` keyed with Fx.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn byte_strings_hash_by_content() {
        assert_eq!(fx("signal"), fx(&*String::from("signal")));
        assert_ne!(fx("ab"), fx("ba"));
        // Both the full word and the remainder reach the state.
        assert_ne!(fx("abcdefgh_x"), fx("abcdefgh_y"));
        assert_ne!(fx("abcdefgh_x"), fx("bbcdefgh_x"));
    }

    #[test]
    fn keys_a_map() {
        let mut map: HashMap<&str, usize, FxBuildHasher> = HashMap::default();
        let names = ["clk", "ds", "rdy", "indata", "out", "a_much_longer_name"];
        for (i, n) in names.iter().enumerate() {
            map.insert(n, i);
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(map[n], i);
        }
        assert!(!map.contains_key("missing"));
    }
}
