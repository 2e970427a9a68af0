//! Offline stand-in for `rand_chacha` 0.3: a real ChaCha keystream (64-bit
//! block counter, zero stream id) read through a four-block word buffer,
//! as the published crate does.

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

const BUFFER_WORDS: usize = 64;

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One 16-word keystream block for `key` at block index `counter`.
fn block(key: &[u32; 8], counter: u64, double_rounds: usize) -> [u32; 16] {
    let mut init = [0u32; 16];
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
    init[4..12].copy_from_slice(key);
    init[12] = counter as u32;
    init[13] = (counter >> 32) as u32;
    let mut s = init;
    for _ in 0..double_rounds {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (word, start) in s.iter_mut().zip(init) {
        *word = word.wrapping_add(start);
    }
    s
}

macro_rules! chacha_rng {
    ($name:ident, $double_rounds:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name {
            key: [u32; 8],
            counter: u64,
            buffer: [u32; BUFFER_WORDS],
            index: usize,
        }

        impl $name {
            fn refill(&mut self) {
                for (i, chunk) in self.buffer.chunks_mut(16).enumerate() {
                    let counter = self.counter.wrapping_add(i as u64);
                    chunk.copy_from_slice(&block(&self.key, counter, $double_rounds));
                }
                self.counter = self.counter.wrapping_add((BUFFER_WORDS / 16) as u64);
                self.index = 0;
            }
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(seed: [u8; 32]) -> Self {
                let mut key = [0u32; 8];
                for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
                    *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                }
                Self { key, counter: 0, buffer: [0; BUFFER_WORDS], index: BUFFER_WORDS }
            }
        }

        impl RngCore for $name {
            fn next_u32(&mut self) -> u32 {
                if self.index >= BUFFER_WORDS {
                    self.refill();
                }
                let word = self.buffer[self.index];
                self.index += 1;
                word
            }

            fn next_u64(&mut self) -> u64 {
                // Low word first; a value may straddle a buffer refill.
                let lo = u64::from(self.next_u32());
                let hi = u64::from(self.next_u32());
                (hi << 32) | lo
            }

            fn fill_bytes(&mut self, dest: &mut [u8]) {
                for chunk in dest.chunks_mut(4) {
                    let word = self.next_u32().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
            }
        }
    };
}

chacha_rng!(ChaCha8Rng, 4, "ChaCha with 8 rounds.");
chacha_rng!(ChaCha12Rng, 6, "ChaCha with 12 rounds.");
chacha_rng!(ChaCha20Rng, 10, "ChaCha with 20 rounds.");

#[cfg(test)]
mod tests {
    use super::*;

    /// First keystream block of ChaCha20 with an all-zero key and nonce
    /// (the widely published reference vector).
    #[test]
    fn chacha20_zero_key_matches_the_reference_keystream() {
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        let mut out = [0u8; 16];
        rng.fill_bytes(&mut out);
        assert_eq!(
            out,
            [
                0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
                0xbd, 0x28
            ]
        );
    }

    #[test]
    fn same_seed_same_stream_and_u64_straddles_refills() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let _ = a.next_u32(); // misalign so a u64 read crosses the 64-word buffer
        let _ = b.next_u32();
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
