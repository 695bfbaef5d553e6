//! HMAC-SHA-256 (RFC 2104), for receipt digests and the path-validation
//! MACs an initiator checks when reconstructing a forwarding path.
//!
//! [`HmacKey`] runs the key schedule once: it keeps the SHA-256 states
//! after absorbing the `key ⊕ ipad` and `key ⊕ opad` blocks, so each MAC
//! under that key costs only the compressions of the message itself plus
//! one for the outer hash (2 for a message under 56 bytes) instead of
//! re-hashing both pad blocks every call.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// A key with its HMAC-SHA-256 key schedule precomputed.
#[derive(Debug, Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ⊕ ipad`.
    inner: Sha256,
    /// SHA-256 state after absorbing `key ⊕ opad`.
    outer: Sha256,
}

impl HmacKey {
    /// Runs the key schedule for `key` (keys longer than one block are
    /// hashed first, per RFC 2104).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut block = [byte; BLOCK];
            for (b, k) in block.iter_mut().zip(&key_block) {
                *b ^= k;
            }
            let mut h = Sha256::new();
            h.update(&block);
            h
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Starts an incremental MAC under this key, for messages assembled
    /// from several parts.
    #[must_use]
    pub fn start(&self) -> Hmac<'_> {
        Hmac {
            inner: self.inner.clone(),
            key: self,
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut h = self.start();
        h.update(message);
        h.finalize()
    }

    /// Whether `mac` is the MAC of `message` under this key.
    #[must_use]
    pub fn verify(&self, message: &[u8], mac: &[u8]) -> bool {
        let mut h = self.start();
        h.update(message);
        h.verify(mac)
    }
}

/// An HMAC computation in progress (see [`HmacKey::start`]).
#[derive(Debug, Clone)]
pub struct Hmac<'k> {
    inner: Sha256,
    key: &'k HmacKey,
}

impl Hmac<'_> {
    /// Absorbs more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// The MAC of everything absorbed.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.key.outer.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Constant-shape comparison of the MAC of everything absorbed with
    /// `mac` (length then bytes, XOR-folded).
    #[must_use]
    pub fn verify(self, mac: &[u8]) -> bool {
        let expect = self.finalize();
        if mac.len() != expect.len() {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(mac) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Computes `HMAC-SHA256(key, message)` under a one-off key.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Verifies a MAC under a one-off key (see [`Hmac::verify`]).
#[must_use]
pub fn verify_hmac(key: &[u8], message: &[u8], mac: &[u8]) -> bool {
    HmacKey::new(key).verify(message, mac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_correct_mac() {
        let mac = hmac_sha256(b"k", b"m");
        assert!(verify_hmac(b"k", b"m", &mac));
    }

    #[test]
    fn verify_rejects_wrong_mac() {
        let mut mac = hmac_sha256(b"k", b"m");
        mac[0] ^= 1;
        assert!(!verify_hmac(b"k", b"m", &mac));
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let mac = hmac_sha256(b"k", b"m");
        assert!(!verify_hmac(b"k", b"m", &mac[..31]));
    }

    #[test]
    fn keyed_mac_matches_rfc4231() {
        // Cases 1, 2, 3 and 6 (the long key, hashed first) through a
        // precomputed key, one-shot and split over several updates.
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, msg, want) in cases {
            let k = HmacKey::new(key);
            assert_eq!(hex(&k.mac(msg)), want);
            let mut h = k.start();
            let (a, b) = msg.split_at(msg.len() / 3);
            h.update(a);
            h.update(b);
            assert_eq!(hex(&h.finalize()), want);
            assert!(k.verify(msg, &k.mac(msg)));
        }
    }

    #[test]
    fn reused_key_matches_fresh_keys() {
        let key = HmacKey::new(b"bundle key reused across many receipts");
        for i in 0u32..1000 {
            let msg: Vec<u8> = (0..i % 150).map(|j| (i ^ j) as u8).collect();
            assert_eq!(
                key.mac(&msg),
                hmac_sha256(b"bundle key reused across many receipts", &msg),
                "message {i}"
            );
        }
    }

    #[test]
    fn different_keys_give_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
