//! SHA-256, implemented from scratch on `std` only.
//!
//! The artifact store's 64-bit FNV-1a keys are fine for cache
//! addressing, where collisions merely cost a recomputation. An audit
//! chain is different: its hashes are the *evidence*, so a forger must
//! not be able to craft a colliding record offline. FNV offers no such
//! resistance; SHA-256 (FIPS 180-4) does. The canonical encoding that
//! feeds the hash follows the same discipline as `artifacts.rs` —
//! newline-framed, field-ordered text — only the hash underneath is
//! upgraded from 64 to 256 bits.
//!
//! [`Sha256`] is a streaming hasher (`Clone` lets the chain writer
//! snapshot its running digest at every checkpoint without rehashing
//! the whole prefix); [`sha256_hex`] is the one-shot convenience.

/// FIPS 180-4 round constants (first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the
/// square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// `Clone` is cheap (`< 128` bytes of state) and gives a point-in-time
/// digest without consuming the stream — exactly what the chain
/// writer's running checkpoint digests need.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial block buffer.
    buf: [u8; 64],
    /// Valid bytes in `buf`.
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorbs `bytes` into the stream.
    pub fn update(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        if rest.is_empty() {
            // Everything fit in the partial block; `buf_len` must keep
            // counting those bytes rather than be reset by the
            // (empty) tail below.
            return;
        }
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads and finishes the stream, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // 0x80, zeros up to 56 mod 64, then the 64-bit message length:
        // one `update` that ends exactly on a block boundary.
        let zeros_end = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[zeros_end..zeros_end + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..zeros_end + 8]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// [`Sha256::finalize`] rendered as 64 lower-case hex characters.
    pub fn finalize_hex(self) -> String {
        to_hex(&self.finalize())
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `bytes`.
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finalize()
}

/// One-shot SHA-256 of `bytes`, as 64 lower-case hex characters.
pub fn sha256_hex(bytes: &[u8]) -> String {
    to_hex(&sha256(bytes))
}

/// Lower-case hex rendering of a digest.
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)] as char);
        out.push(HEX[usize::from(b & 0x0f)] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST FIPS 180-4 / RFC 6234 test vectors.
    #[test]
    fn matches_reference_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Runs of `a` at every padding edge: 55 and 119 leave room for
        // the length in the last block, 56 and 120 spill it into an
        // extra block, 63 and 64 pad from a nearly full and a full
        // block. Digests from coreutils `sha256sum`.
        let digests = [
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
        ];
        for (len, digest) in [55, 56, 63, 64, 119, 120].into_iter().zip(digests) {
            assert_eq!(sha256_hex(&vec![b'a'; len]), digest, "{len} bytes");
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let message: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let expected = sha256_hex(&message);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 200, 299, 300] {
            let mut h = Sha256::new();
            h.update(&message[..split]);
            h.update(&message[split..]);
            assert_eq!(h.finalize_hex(), expected, "split at {split}");
        }
    }

    #[test]
    fn clone_snapshots_the_running_state() {
        let mut h = Sha256::new();
        h.update(b"prefix");
        let snapshot = h.clone().finalize_hex();
        assert_eq!(snapshot, sha256_hex(b"prefix"));
        // The original stream continues unaffected.
        h.update(b" and suffix");
        assert_eq!(h.finalize_hex(), sha256_hex(b"prefix and suffix"));
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }
}
