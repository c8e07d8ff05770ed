//! Offline shim for `rand_chacha` 0.3 that implements the **real ChaCha
//! stream cipher** — not a lookalike. [`ChaCha8Rng`], [`ChaCha12Rng`] and
//! [`ChaCha20Rng`] produce bit-identical output to the registry crate for
//! the same seed:
//!
//! * the core is D. J. Bernstein's ChaCha block function (4/6/10 double
//!   rounds) with rand_chacha's state layout — 256-bit key from the seed,
//!   64-bit block counter (words 12–13) and 64-bit stream id (words 14–15),
//!   both zero after `from_seed`;
//! * output buffering follows `rand_core`'s `BlockRng` over a 4-block
//!   (64-word) buffer: `next_u32` consumes one word, `next_u64` two words
//!   (low then high) with `BlockRng`'s exact block-boundary behaviour, so
//!   interleaved 32/64-bit draws consume the stream like the real crate;
//! * seeding goes through the `rand` shim's `SeedableRng`, whose
//!   `seed_from_u64` is rand_core 0.6's PCG32 expansion bit for bit;
//! * `get_word_pos` / `set_word_pos` follow rand_chacha 0.3: the position
//!   is the number of 32-bit words handed out, and a seek sets the block
//!   counter to `w / 16`, refills the buffer there and sets the index to
//!   `w % 16`. ChaCha is a counter-mode cipher, so a seek costs one buffer
//!   refill wherever it lands (`Tape::dropout` draws a mask's chunks in
//!   parallel this way, each from its own seeked clone).
//!
//! The 20-round block function is pinned to the RFC 8439 appendix A.1
//! keystream test vector; the 8- and 12-round variants differ only in the
//! loop trip count. Unimplemented registry surface: `set_stream`,
//! `get_stream`, `get_seed` and `fill_bytes` (nothing in this workspace
//! uses them).

use rand::{RngCore, SeedableRng};

const ROWA: u32 = 0x6170_7865; // "expa"
const ROWB: u32 = 0x3320_646e; // "nd 3"
const ROWC: u32 = 0x7962_2d32; // "2-by"
const ROWD: u32 = 0x6b20_6574; // "te k"

/// Number of ChaCha blocks buffered per refill, matching `rand_chacha`'s
/// `BlockRng` results size (4 blocks = 64 words).
const BUF_BLOCKS: usize = 4;
const BUF_WORDS: usize = BUF_BLOCKS * 16;

#[inline(always)]
fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// One ChaCha block: `DOUBLE_ROUNDS` column+diagonal round pairs over
/// `state`, then the feed-forward addition of the input state.
fn chacha_block(state: &[u32; 16], double_rounds: usize, out: &mut [u32]) {
    let mut x = *state;
    for _ in 0..double_rounds {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (o, (xi, si)) in out.iter_mut().zip(x.iter().zip(state.iter())) {
        *o = xi.wrapping_add(*si);
    }
}

macro_rules! chacha_rng {
    ($name:ident, $double_rounds:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Debug)]
        pub struct $name {
            /// Input block: constants, key, counter (words 12–13), stream
            /// id (words 14–15). The counter advances by [`BUF_BLOCKS`]
            /// per refill.
            state: [u32; 16],
            buf: [u32; BUF_WORDS],
            /// Next unconsumed word in `buf`; `BUF_WORDS` means empty.
            index: usize,
        }

        impl $name {
            /// Fills `buf` with the next [`BUF_BLOCKS`] consecutive blocks
            /// and leaves `index` at `offset` (`BlockRng::generate_and_set`).
            fn refill(&mut self, offset: usize) {
                for blk in 0..BUF_BLOCKS {
                    chacha_block(
                        &self.state,
                        $double_rounds,
                        &mut self.buf[blk * 16..(blk + 1) * 16],
                    );
                    let counter = (u64::from(self.state[13]) << 32 | u64::from(self.state[12]))
                        .wrapping_add(1);
                    self.state[12] = counter as u32;
                    self.state[13] = (counter >> 32) as u32;
                }
                self.index = offset;
            }

            /// The offset from the start of the stream, in 32-bit words:
            /// how many words the generator has handed out (rand_chacha
            /// 0.3's `get_word_pos`; a 68-bit value, since the block
            /// counter is 64 bits and a block holds 16 words).
            pub fn get_word_pos(&self) -> u128 {
                let counter = u64::from(self.state[13]) << 32 | u64::from(self.state[12]);
                // The counter is already past the buffered blocks.
                let buf_start = counter.wrapping_sub(BUF_BLOCKS as u64);
                let block = buf_start.wrapping_add((self.index / 16) as u64);
                u128::from(block) * 16 + (self.index % 16) as u128
            }

            /// Seeks to word `word_offset` of the stream, so the next
            /// `next_u32` returns that word (rand_chacha 0.3's
            /// `set_word_pos`): the block counter becomes `word_offset /
            /// 16`, the buffer is refilled from there and the index set to
            /// `word_offset % 16`. Bits above the 68-bit period are ignored.
            pub fn set_word_pos(&mut self, word_offset: u128) {
                let block = (word_offset / 16) as u64;
                self.state[12] = block as u32;
                self.state[13] = (block >> 32) as u32;
                self.refill((word_offset % 16) as usize);
            }
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(seed: [u8; 32]) -> Self {
                let mut state = [0u32; 16];
                state[0] = ROWA;
                state[1] = ROWB;
                state[2] = ROWC;
                state[3] = ROWD;
                for (i, chunk) in seed.chunks_exact(4).enumerate() {
                    state[4 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
                }
                // Words 12..16 (counter + stream id) stay zero.
                $name { state, buf: [0; BUF_WORDS], index: BUF_WORDS }
            }
        }

        impl RngCore for $name {
            fn next_u32(&mut self) -> u32 {
                if self.index >= BUF_WORDS {
                    self.refill(0);
                }
                let v = self.buf[self.index];
                self.index += 1;
                v
            }

            fn next_u64(&mut self) -> u64 {
                // rand_core's BlockRng::next_u64: low word first, with its
                // exact behaviour at the buffer boundary.
                let i = self.index;
                if i < BUF_WORDS - 1 {
                    self.index = i + 2;
                    u64::from(self.buf[i]) | u64::from(self.buf[i + 1]) << 32
                } else if i >= BUF_WORDS {
                    self.refill(2);
                    u64::from(self.buf[0]) | u64::from(self.buf[1]) << 32
                } else {
                    let lo = u64::from(self.buf[BUF_WORDS - 1]);
                    self.refill(1);
                    lo | u64::from(self.buf[0]) << 32
                }
            }
        }
    };
}

chacha_rng!(ChaCha8Rng, 4, "ChaCha with 8 rounds (rand_chacha's default speed/quality trade-off).");
chacha_rng!(ChaCha12Rng, 6, "ChaCha with 12 rounds.");
chacha_rng!(ChaCha20Rng, 10, "ChaCha with 20 rounds (the original full-round cipher).");

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// RFC 8439 appendix A.1, test vector #1: ChaCha20 block function with
    /// an all-zero key and nonce at block counter 0. With `from_seed([0;
    /// 32])` the shim's state is exactly that configuration (counter and
    /// stream id words all zero), so the first 16 output words must be this
    /// keystream.
    #[test]
    fn chacha20_matches_rfc8439_zero_key_vector() {
        const EXPECTED: [u8; 64] = [
            0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
            0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
            0x8b, 0x77, 0x0d, 0xc7, 0xda, 0x41, 0x59, 0x7c, 0x51, 0x57, 0x48, 0x8d, 0x77, 0x24,
            0xe0, 0x3f, 0xb8, 0xd8, 0x4a, 0x37, 0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1, 0x1c,
            0xc3, 0x87, 0xb6, 0x69, 0xb2, 0xee, 0x65, 0x86,
        ];
        let mut rng = ChaCha20Rng::from_seed([0u8; 32]);
        for (w, expect) in EXPECTED.chunks_exact(4).enumerate() {
            let want = u32::from_le_bytes(expect.try_into().unwrap());
            assert_eq!(rng.next_u32(), want, "keystream word {w}");
        }
    }

    /// The counter must advance across blocks: words 16.. come from block 1,
    /// not a repeat of block 0.
    #[test]
    fn consecutive_blocks_differ() {
        let mut rng = ChaCha20Rng::from_seed([0u8; 32]);
        let block0: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let block1: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(block0, block1);
        // And refills continue the counter rather than restarting it.
        let mut long = ChaCha20Rng::from_seed([0u8; 32]);
        let first_65 = (0..BUF_WORDS + 1).map(|_| long.next_u32()).last();
        let mut manual_state = ChaCha20Rng::from_seed([0u8; 32]).state;
        manual_state[12] = 4; // block counter after one 4-block refill
        let mut block4 = [0u32; 16];
        chacha_block(&manual_state, 10, &mut block4);
        assert_eq!(first_65, Some(block4[0]));
    }

    /// `next_u64` = low word | high word << 32, including at the buffer
    /// boundary (BlockRng semantics).
    #[test]
    fn next_u64_pairs_words_low_first() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..BUF_WORDS {
            let lo = u64::from(b.next_u32());
            let hi = u64::from(b.next_u32());
            assert_eq!(a.next_u64(), lo | hi << 32);
        }
        // Odd offset across the refill boundary: consume one word, then
        // pairs; the straddling u64 takes buf[63] as low, next buf[0] as high.
        let mut c = ChaCha8Rng::seed_from_u64(7);
        let mut d = ChaCha8Rng::seed_from_u64(7);
        c.next_u32();
        d.next_u32();
        for _ in 0..BUF_WORDS {
            let lo = u64::from(d.next_u32());
            let hi = u64::from(d.next_u32());
            assert_eq!(c.next_u64(), lo | hi << 32);
        }
    }

    /// Word `w` of the ChaCha8 stream seeded with `seed`, computed straight
    /// from the block function at block counter `w / 16`.
    fn word_at(seed: u64, w: u128) -> u32 {
        let mut state = ChaCha8Rng::seed_from_u64(seed).state;
        let block = (w / 16) as u64;
        state[12] = block as u32;
        state[13] = (block >> 32) as u32;
        let mut out = [0u32; 16];
        chacha_block(&state, 4, &mut out);
        out[(w % 16) as usize]
    }

    /// A seek followed by draws yields the sequential stream from that word
    /// on, across refills, at offsets inside a block, on block and buffer
    /// boundaries, and with the counter's high word set (2³⁶ + 5 words is
    /// block 2³²).
    #[test]
    fn seek_then_draw_matches_the_sequential_stream() {
        const SEED: u64 = 5;
        let mut sequential = ChaCha8Rng::seed_from_u64(SEED);
        let stream: Vec<u32> = (0..1100).map(|_| sequential.next_u32()).collect();
        for (w, &word) in stream.iter().enumerate().step_by(7) {
            assert_eq!(word_at(SEED, w as u128), word, "block-function helper at word {w}");
        }
        for w in [0u128, 1, 15, 16, 17, 63, 64, 65, 1000, (1 << 36) + 5] {
            let mut r = ChaCha8Rng::seed_from_u64(SEED);
            r.next_u32(); // where the rng stood before the seek must not matter
            r.set_word_pos(w);
            assert_eq!(r.get_word_pos(), w);
            // 80 words cross at least one refill after any seek.
            for k in 0..80u128 {
                let want =
                    stream.get((w + k) as usize).copied().unwrap_or_else(|| word_at(SEED, w + k));
                assert_eq!(r.next_u32(), want, "word {} after a seek to {w}", w + k);
            }
            assert_eq!(r.get_word_pos(), w + 80);
        }
    }

    /// `get_word_pos` counts the words handed out through any mix of 32- and
    /// 64-bit draws, including a `next_u64` that straddles a refill and one
    /// that starts on an empty buffer; seeking back to the reported position
    /// resumes the same stream.
    #[test]
    fn word_pos_counts_consumed_words() {
        let mut r = ChaCha8Rng::seed_from_u64(11);
        let mut consumed = 0u128;
        assert_eq!(r.get_word_pos(), 0);
        // 63 words leave the index on the buffer's last word: the next u64
        // takes its low half from this buffer and its high half from the next.
        // 61 more words plus a u64 empty the second buffer exactly, so the
        // u64 after that refills first.
        let draws = [(63, false), (0, true), (61, false), (0, true), (0, true), (5, false)];
        for (words, wide) in draws {
            for _ in 0..words {
                r.next_u32();
                consumed += 1;
                assert_eq!(r.get_word_pos(), consumed);
            }
            if wide {
                r.next_u64();
                consumed += 2;
                assert_eq!(r.get_word_pos(), consumed);
            }
        }
        for i in 0..300u32 {
            if i % 3 == 0 {
                r.next_u64();
                consumed += 2;
            } else {
                r.next_u32();
                consumed += 1;
            }
            assert_eq!(r.get_word_pos(), consumed, "after draw {i}");
            let mut resumed = ChaCha8Rng::seed_from_u64(11);
            resumed.set_word_pos(r.get_word_pos());
            assert_eq!(resumed.clone().next_u64(), r.clone().next_u64(), "after draw {i}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge, {same}/64 collisions");
    }

    #[test]
    fn round_variants_are_distinct_ciphers() {
        let mut r8 = ChaCha8Rng::from_seed([1u8; 32]);
        let mut r12 = ChaCha12Rng::from_seed([1u8; 32]);
        let mut r20 = ChaCha20Rng::from_seed([1u8; 32]);
        let (a, b, c) = (r8.next_u32(), r12.next_u32(), r20.next_u32());
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn float_helpers_work_through_rand_traits() {
        let mut r = ChaCha8Rng::seed_from_u64(7);
        let mut acc = 0.0f64;
        for _ in 0..10_000 {
            acc += r.gen::<f64>();
        }
        let mean = acc / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
