//! A fast hasher for the simulator's internal indexes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for index maps keyed by small fixed-size tuples
/// of trusted simulator state (NAT sessions, socket 4-tuples, ports).
/// SipHash's DoS resistance buys nothing there while costing more than
/// the bucket probe itself; a fixed seed also keeps hashing deterministic
/// across runs.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64)
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64)
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64)
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n)
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64)
    }
}

/// A `HashMap` over [`FastHasher`]. Callers must never let its iteration
/// order reach an output: keep order-bearing walks elsewhere.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
