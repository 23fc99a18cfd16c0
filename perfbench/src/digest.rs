//! The output digest every workload emits: FNV-1a over a fixed field
//! order, seeded with the run seed, so two runs agree iff their outputs
//! do.

/// An FNV-1a 64 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// A digest seeded with the run seed.
    pub fn new(seed: u64) -> Digest {
        let mut d = Digest(0xcbf2_9ce4_8422_2325);
        d.u64(seed);
        d
    }

    /// Folds eight little-endian bytes in.
    pub fn u64(&mut self, x: u64) -> &mut Digest {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a signed value in (two's complement bytes).
    pub fn i64(&mut self, x: i64) -> &mut Digest {
        self.u64(x as u64)
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_seed_sensitive() {
        let a = Digest::new(1).u64(2).u64(3).finish();
        assert_eq!(a, Digest::new(1).u64(2).u64(3).finish());
        assert_ne!(a, Digest::new(1).u64(3).u64(2).finish());
        assert_ne!(a, Digest::new(2).u64(2).u64(3).finish());
    }
}
