//! Physical addresses and cache-line addressing.
//!
//! The coherence protocol, caches, and DRAM all operate on 64-byte lines;
//! [`LineAddr`] is the canonical line identifier used across the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Bytes per cache line on Haswell (and every x86-64 since P4).
pub const CACHE_LINE_BYTES: u64 = 64;

/// log2 of the line size.
pub const CACHE_LINE_BITS: u32 = 6;

/// A byte-granular physical address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

/// A cache-line-granular address (a byte address shifted right by 6).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(pub u64);

impl Addr {
    /// The cache line containing this byte.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> CACHE_LINE_BITS)
    }
}

impl LineAddr {
    /// The `n`-th line after this one.
    pub fn offset_lines(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }

    /// Iterate the `count` consecutive lines starting here.
    pub fn span(self, count: u64) -> impl Iterator<Item = LineAddr> {
        (self.0..self.0 + count).map(LineAddr)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L:0x{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_byte_address() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(0x1000).line(), LineAddr(0x40));
    }

    #[test]
    fn span_covers_contiguous_lines() {
        let v: Vec<u64> = LineAddr(10).span(3).map(|l| l.0).collect();
        assert_eq!(v, vec![10, 11, 12]);
    }
}
