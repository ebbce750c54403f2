//! Seeded case generator shared by the workspace's property tests.
//!
//! A property is a closure over one generated input. [`check`] runs it
//! on `cases` inputs, each drawn by its own [`Gen`] — a SplitMix64
//! stream seeded from the property's name and the case number — so
//! every run tests the same inputs, and a failure panics with the
//! property name, the case number, the seed and the input that broke
//! it.
//!
//! Test targets include this file with `#[path]`; it is not a crate.

#![allow(dead_code)]

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per property unless the property asks for a different count.
pub const CASES: u32 = 256;

/// Deterministic SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Gen(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the non-empty half-open `range`.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// [`range`](Self::range) for `u32` values.
    pub fn range_u32(&mut self, range: Range<u32>) -> u32 {
        self.range(u64::from(range.start)..u64::from(range.end)) as u32
    }

    /// [`range`](Self::range) for `usize` values.
    pub fn range_usize(&mut self, range: Range<usize>) -> usize {
        self.range(range.start as u64..range.end as u64) as usize
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// A vector whose length is uniform in `len`, each element drawn by
    /// `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range_usize(len);
        (0..n).map(|_| item(self)).collect()
    }
}

/// FNV-1a of the property name: each property gets its own streams.
fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `prop` on `cases` inputs drawn by `draw`.
///
/// Case `i` draws from `Gen::new(seed)` with `seed` derived from `name`
/// and `i` alone. If `prop` panics, `check` panics with the property
/// name, case number, seed and input.
pub fn check<C: Debug>(
    name: &str,
    cases: u32,
    mut draw: impl FnMut(&mut Gen) -> C,
    prop: impl Fn(&C),
) {
    let base = name_seed(name);
    for case in 0..cases {
        let seed = base ^ u64::from(case);
        let input = draw(&mut Gen::new(seed));
        if let Err(err) = catch_unwind(AssertUnwindSafe(|| prop(&input))) {
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("property {name} failed on case {case} (seed {seed:#018x}): {msg}\ninput: {input:?}");
        }
    }
}
