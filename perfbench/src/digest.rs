//! FNV-1a digest of op outcomes, so two commits can be compared for
//! behaviour as well as speed.

use nexit_core::Termination;
use nexit_routing::Assignment;

/// 64-bit FNV-1a over the bytes written so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feed one integer.
    pub fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feed a real, rounded to 1e-9 so that solver noise below the
    /// comparison tolerance does not change the digest.
    pub fn real(&mut self, v: f64) {
        self.int((v * 1e9).round() as i64);
    }

    /// Feed every flow's chosen interconnection.
    pub fn assignment(&mut self, a: &Assignment) {
        for c in a.choices() {
            self.int(c.index() as i64);
        }
    }

    /// Feed how a session ended.
    pub fn termination(&mut self, t: Termination) {
        self.int(match t {
            Termination::Exhausted => 0,
            Termination::Stopped(nexit_core::Side::A) => 1,
            Termination::Stopped(nexit_core::Side::B) => 2,
        });
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Published FNV-1a 64 test vectors.
        let mut d = Digest::default();
        assert_eq!(d.value(), 0xcbf2_9ce4_8422_2325);
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut e = Digest::default();
        e.bytes(b"foobar");
        assert_eq!(e.value(), 0x8594_4171_f739_67e8);

        let (mut x, mut y) = (Digest::default(), Digest::default());
        x.int(1);
        x.int(2);
        y.int(2);
        y.int(1);
        assert_ne!(x, y);
    }

    #[test]
    fn reals_round_below_the_tolerance() {
        let (mut x, mut y, mut z) = (Digest::default(), Digest::default(), Digest::default());
        x.real(0.123_456_789_01);
        y.real(0.123_456_789_04);
        z.real(0.123_456_790_4);
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
