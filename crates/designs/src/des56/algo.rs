//! The DES-56 block cipher, implemented from the FIPS 46-3 tables.
//!
//! Bit numbering follows the standard: bit 1 is the most significant bit
//! of the 64-bit block. The cipher core exposes the per-round artifacts
//! (key schedule, single round) so the RTL model can execute exactly one
//! round per clock cycle.

/// Initial permutation IP (64 → 64).
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, //
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8, //
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, //
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation IP⁻¹ (64 → 64).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, //
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29, //
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27, //
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion E (32 → 48). The round function folds it into rotations
/// (see [`feistel`]); the table stays for the bitwise reference.
#[cfg(test)]
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, //
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, //
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25, //
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation P (32 → 32).
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, //
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
];

/// Permuted choice 1 (64 → 56).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, //
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36, //
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, //
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2 (56 → 48).
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, //
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, //
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48, //
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-rotation amounts per round.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes (row-major: `S[box][row * 16 + column]`).
const SBOX: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, //
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8, //
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, //
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, //
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5, //
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, //
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, //
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1, //
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, //
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, //
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9, //
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, //
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, //
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6, //
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, //
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, //
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8, //
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, //
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, //
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6, //
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, //
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, //
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2, //
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, //
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Applies a 1-based MSB-first permutation table to the top `in_bits` bits
/// of `input`, producing `table.len()` output bits (MSB-aligned in the
/// returned value's low `table.len()` bits).
fn permute(input: u64, in_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &pos in table {
        out <<= 1;
        out |= (input >> (in_bits - u32::from(pos))) & 1;
    }
    out
}

/// The S-box lookup of a 6-bit chunk: the outer bits pick the row, the
/// inner four the column.
const fn sbox_lookup(sbox: &[u8; 64], chunk: usize) -> u8 {
    let row = ((chunk & 0x20) >> 4) | (chunk & 0x01);
    let col = (chunk >> 1) & 0x0F;
    sbox[row * 16 + col]
}

/// The combined S-box + P tables: `SP[b][chunk]` is S-box `b`'s output for
/// the 6-bit `chunk`, placed at its nibble of the 32-bit S-layer output and
/// then permuted by P. The round function is the XOR of eight lookups.
static SP: [[u32; 64]; 8] = build_sp();

const fn build_sp() -> [[u32; 64]; 8] {
    let mut sp = [[0u32; 64]; 8];
    let mut b = 0;
    while b < 8 {
        let mut chunk = 0;
        while chunk < 64 {
            let s_out = (sbox_lookup(&SBOX[b], chunk) as u32) << (28 - 4 * b);
            // P: output bit j (1-based, MSB first) is input bit P[j - 1].
            let mut permuted = 0u32;
            let mut j = 0;
            while j < 32 {
                permuted = (permuted << 1) | ((s_out >> (32 - P[j] as u32)) & 1);
                j += 1;
            }
            sp[b][chunk] = permuted;
            chunk += 1;
        }
        b += 1;
    }
    sp
}

/// The DES round function `f(R, K)`.
///
/// The expansion E feeds S-box `b` the six bits of `r` at positions
/// `4b .. 4b + 5` (1-based, MSB first, wrapping 0 → 32 and 33 → 1), so
/// each chunk is one rotation of `r` instead of a 48-bit permutation.
fn feistel(r: u32, subkey: u64) -> u32 {
    let mut out = 0u32;
    for (b, sp) in SP.iter().enumerate() {
        // Bit 4b + 5 (index 27 - 4b) lands at bit 0.
        let window = r.rotate_right((27 + 32 - 4 * b as u32) % 32) & 0x3F;
        let key = (subkey >> (42 - 6 * b)) as u32 & 0x3F;
        out ^= sp[(window ^ key) as usize];
    }
    out
}

/// The precomputed key schedule: sixteen 48-bit subkeys.
///
/// ```
/// use designs::des56::algo::KeySchedule;
///
/// let ks = KeySchedule::new(0x133457799BBCDFF1);
/// assert_eq!(ks.subkey(0), 0x1B02EFFC7072);
/// assert_eq!(ks.subkey(15), 0xCB3D8B0E17F5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySchedule {
    subkeys: [u64; 16],
}

impl KeySchedule {
    /// Derives the schedule from a 64-bit key (parity bits ignored).
    #[must_use]
    pub fn new(key: u64) -> KeySchedule {
        let pc1 = permute(key, 64, &PC1); // 56 bits
        let mut c = (pc1 >> 28) as u32 & 0x0FFF_FFFF;
        let mut d = pc1 as u32 & 0x0FFF_FFFF;
        let mut subkeys = [0u64; 16];
        for (round, &shift) in SHIFTS.iter().enumerate() {
            c = ((c << shift) | (c >> (28 - u32::from(shift)))) & 0x0FFF_FFFF;
            d = ((d << shift) | (d >> (28 - u32::from(shift)))) & 0x0FFF_FFFF;
            let cd = (u64::from(c) << 28) | u64::from(d);
            subkeys[round] = permute(cd, 56, &PC2);
        }
        KeySchedule { subkeys }
    }

    /// The 48-bit subkey of `round` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `round >= 16`.
    #[must_use]
    pub fn subkey(&self, round: usize) -> u64 {
        self.subkeys[round]
    }
}

/// The `(L, R)` halves of the cipher state between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundState {
    /// Left half.
    pub l: u32,
    /// Right half.
    pub r: u32,
}

impl RoundState {
    /// Loads a plaintext/ciphertext block through the initial permutation.
    #[must_use]
    pub fn load(block: u64) -> RoundState {
        let ip = permute(block, 64, &IP);
        RoundState {
            l: (ip >> 32) as u32,
            r: ip as u32,
        }
    }

    /// Executes one Feistel round with the given subkey.
    #[must_use]
    pub fn round(self, subkey: u64) -> RoundState {
        RoundState {
            l: self.r,
            r: self.l ^ feistel(self.r, subkey),
        }
    }

    /// Produces the output block: pre-output swap then final permutation.
    #[must_use]
    pub fn output(self) -> u64 {
        let pre = (u64::from(self.r) << 32) | u64::from(self.l);
        permute(pre, 64, &FP)
    }
}

/// Encrypts one 64-bit block.
///
/// ```
/// use designs::des56::algo::{encrypt, KeySchedule};
///
/// let ks = KeySchedule::new(0x133457799BBCDFF1);
/// assert_eq!(encrypt(0x0123456789ABCDEF, &ks), 0x85E813540F0AB405);
/// ```
#[must_use]
pub fn encrypt(block: u64, ks: &KeySchedule) -> u64 {
    let mut st = RoundState::load(block);
    for round in 0..16 {
        st = st.round(ks.subkey(round));
    }
    st.output()
}

/// Decrypts one 64-bit block (subkeys applied in reverse order).
#[must_use]
pub fn decrypt(block: u64, ks: &KeySchedule) -> u64 {
    let mut st = RoundState::load(block);
    for round in (0..16).rev() {
        st = st.round(ks.subkey(round));
    }
    st.output()
}

/// Runs the cipher in the requested direction.
#[must_use]
pub fn apply(block: u64, ks: &KeySchedule, decrypt_mode: bool) -> u64 {
    if decrypt_mode {
        decrypt(block, ks)
    } else {
        encrypt(block, ks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyrng::TinyRng;

    /// The textbook round function, one bit per permutation step: the
    /// reference the table-driven [`feistel`] is checked against.
    fn feistel_bitwise(r: u32, subkey: u64) -> u32 {
        let expanded = permute(u64::from(r), 32, &E); // 48 bits
        let x = expanded ^ subkey;
        let mut s_out = 0u32;
        for (box_idx, sbox) in SBOX.iter().enumerate() {
            let chunk = ((x >> (42 - 6 * box_idx)) & 0x3F) as usize;
            s_out = (s_out << 4) | u32::from(sbox_lookup(sbox, chunk));
        }
        permute(u64::from(s_out), 32, &P) as u32
    }

    #[test]
    fn sp_feistel_matches_bitwise_reference() {
        let mut rng = TinyRng::new(0xDE5);
        for _ in 0..4096 {
            let r = rng.next_u32();
            let subkey = rng.next_u64() & 0xFFFF_FFFF_FFFF;
            assert_eq!(
                feistel(r, subkey),
                feistel_bitwise(r, subkey),
                "r={r:#x} k={subkey:#x}"
            );
        }
        for r in [0, u32::MAX, 1, 1 << 31, 0x8000_0001] {
            for subkey in [0, 0xFFFF_FFFF_FFFF, 0x1B02EFFC7072] {
                assert_eq!(feistel(r, subkey), feistel_bitwise(r, subkey));
            }
        }
    }

    /// The classic worked example (Grabbe's "DES Algorithm Illustrated").
    const KEY: u64 = 0x133457799BBCDFF1;
    const PLAIN: u64 = 0x0123456789ABCDEF;
    const CIPHER: u64 = 0x85E813540F0AB405;

    #[test]
    fn known_answer_encrypt() {
        let ks = KeySchedule::new(KEY);
        assert_eq!(encrypt(PLAIN, &ks), CIPHER);
    }

    #[test]
    fn known_answer_decrypt() {
        let ks = KeySchedule::new(KEY);
        assert_eq!(decrypt(CIPHER, &ks), PLAIN);
    }

    #[test]
    fn nist_style_vectors() {
        // Weak-key-free vectors cross-checked against OpenSSL `des-ecb`.
        let ks = KeySchedule::new(0x0101010101010101);
        assert_eq!(encrypt(0x8000000000000000, &ks), 0x95F8A5E5DD31D900);
        assert_eq!(encrypt(0x0000000000000001, &ks), 0x166B40B44ABA4BD6);
    }

    #[test]
    fn zero_block_encrypts_to_nonzero() {
        // Property p1 relies on E(0) != 0 for the design key.
        let ks = KeySchedule::new(KEY);
        assert_ne!(encrypt(0, &ks), 0);
    }

    #[test]
    fn subkey_first_and_last() {
        let ks = KeySchedule::new(KEY);
        assert_eq!(ks.subkey(0), 0x1B02EFFC7072);
        assert_eq!(ks.subkey(15), 0xCB3D8B0E17F5);
    }

    #[test]
    fn round_by_round_matches_block_encrypt() {
        let ks = KeySchedule::new(KEY);
        let mut st = RoundState::load(PLAIN);
        for round in 0..16 {
            st = st.round(ks.subkey(round));
        }
        assert_eq!(st.output(), CIPHER);
    }

    #[test]
    fn apply_selects_direction() {
        let ks = KeySchedule::new(KEY);
        assert_eq!(apply(PLAIN, &ks, false), CIPHER);
        assert_eq!(apply(CIPHER, &ks, true), PLAIN);
    }

    #[test]
    fn permute_identity_roundtrip() {
        // FP ∘ IP = identity.
        for block in [0u64, 1, u64::MAX, PLAIN, 0xDEADBEEFCAFEBABE] {
            let ip = permute(block, 64, &IP);
            assert_eq!(permute(ip, 64, &FP), block);
        }
    }
}
