//! The known-row sketch: a blocked Bloom filter over the rows a fix point
//! already holds, which [`kernels::sort_unique`](crate::kernels::sort_unique)
//! consults before it searches its known runs.
//!
//! A semi-naive update diffs every distinct candidate row against the known
//! runs. On a long, thin fix point (a transitive closure over a chain) no
//! candidate is ever known, and each of those searches is a gallop per run
//! that finds nothing. A row the sketch rules out is certainly new, so it is
//! emitted without a search; a row it passes — known, or one of its rare
//! false positives — is searched exactly as it would be without one. So the
//! sketch changes what is searched, never what is emitted.
//!
//! The layout is one 64-bit block per word, a power of two of them: a row's
//! hash picks its block, and [`PROBES`] 6-bit fields of the hash pick the
//! bits it sets there, so a look-up reads one word. The sketch holds at
//! most one row per [`BITS_PER_ROW`] bits; an insert that would pass that
//! is refused, and the caller rebuilds it [`GROWTH`]× larger over every row
//! it must hold, so the rows rebuilds insert again sum to at most 4/3 of
//! the rows it ends up holding. Its words come from the device arena and go
//! back to it.

use crate::kernels::sites;
use crate::{Column, Device};
use std::fmt;

/// The fewest bits the sketch keeps per row it holds: at most four rows per
/// block, where six probes read about 0.4 % false positives.
const BITS_PER_ROW: usize = 16;

/// Bits a row sets in its block.
const PROBES: u32 = 6;

/// How much larger a rebuilt sketch is than the rows it is built over
/// need: a sketch is rebuilt when the rows it holds have grown this much.
const GROWTH: usize = 4;

/// The bits of a row's hash above the probes, which pick its block.
const BLOCK_SHIFT: u32 = 6 * PROBES;

/// The hash's starting value (the 64-bit golden ratio).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the row hash: the splitmix64 finalizer of `h ^ word`, so
/// every bit of every word reaches the block index and the probes.
fn mix(h: u64, word: u64) -> u64 {
    let h = h ^ word;
    let h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The hash of the row whose leading word is `lead` and whose later words
/// are row `row` of `rest`.
pub(crate) fn row_hash<C: AsRef<[u64]>>(lead: u64, rest: &[C], row: usize) -> u64 {
    rest.iter()
        .fold(mix(SEED, lead), |h, column| mix(h, column.as_ref()[row]))
}

/// The bits a row of hash `h` sets in its block.
fn probe_bits(h: u64) -> u64 {
    (0..PROBES).fold(0, |bits, i| bits | 1 << (h >> (6 * i) & 63))
}

/// A blocked Bloom filter over a set of rows of one width (see the module
/// docs). It has no false negatives: every row it holds, from
/// [`KnownSketch::build`] or an accepted [`KnownSketch::insert`], reads
/// "maybe".
#[derive(Clone)]
pub struct KnownSketch {
    /// One block per word; a power of two of them.
    words: Column,
    /// The rows it holds.
    rows: usize,
}

impl fmt::Debug for KnownSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KnownSketch")
            .field("rows", &self.rows)
            .field("words", &self.words.len())
            .finish()
    }
}

impl KnownSketch {
    /// A sketch of every row of `tables` — each the same number of columns,
    /// a row's words one per column — sized for four times their rows, its
    /// words from the device arena.
    pub fn build<C: AsRef<[u64]>>(device: &Device, tables: &[&[C]]) -> KnownSketch {
        let rows: usize = tables.iter().map(|table| rows_of(table)).sum();
        let blocks = (GROWTH * BITS_PER_ROW * rows.max(1)).div_ceil(64);
        let mut sketch = KnownSketch {
            words: device
                .arena()
                .alloc_zeroed(sites::SKETCH, blocks.next_power_of_two()),
            rows: 0,
        };
        for table in tables {
            sketch.add(table);
        }
        sketch
    }

    /// Adds the rows of `new` and returns `true` — unless the sketch would
    /// then hold more than one row per 16 bits: then it adds
    /// nothing and returns `false`, and the caller builds a new sketch over
    /// every row it must hold, which is four times larger.
    #[must_use]
    pub fn insert<C: AsRef<[u64]>>(&mut self, new: &[C]) -> bool {
        let room = (self.rows + rows_of(new)) * BITS_PER_ROW <= 64 * self.words.len();
        if room {
            self.add(new);
        }
        room
    }

    fn add<C: AsRef<[u64]>>(&mut self, table: &[C]) {
        let Some((lead, rest)) = table.split_first() else {
            return;
        };
        let mask = self.words.len() - 1;
        for (row, &word) in lead.as_ref().iter().enumerate() {
            let h = row_hash(word, rest, row);
            self.words[(h >> BLOCK_SHIFT) as usize & mask] |= probe_bits(h);
        }
        self.rows += lead.as_ref().len();
    }

    /// `false` when the row of hash `h` ([`row_hash`]) is certainly not in
    /// the sketch.
    pub(crate) fn may_hold(&self, h: u64) -> bool {
        let bits = probe_bits(h);
        self.words[(h >> BLOCK_SHIFT) as usize & (self.words.len() - 1)] & bits == bits
    }

    /// `false` when `row` — its words in column order — was certainly never
    /// inserted.
    pub fn may_contain(&self, row: &[u64]) -> bool {
        let Some((&lead, rest)) = row.split_first() else {
            return true;
        };
        self.may_hold(rest.iter().fold(mix(SEED, lead), |h, &word| mix(h, word)))
    }

    /// The rows it holds: those of its last (re)build and those inserted
    /// since.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The bytes of the filter's words.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Returns the words to the device arena's shared pool, where a
    /// stratum's registers go when it ends: a sketch lives no longer than
    /// they do, and the buffers it popped serve them again.
    pub fn recycle(self, device: &Device) {
        device.arena().recycle_shared(self.words);
    }
}

/// The rows of a table given as its columns.
fn rows_of<C: AsRef<[u64]>>(table: &[C]) -> usize {
    table.first().map_or(0, |column| column.as_ref().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sketch_grows_by_rebuilding_and_keeps_every_row() {
        let device = Device::sequential();
        let rows: Vec<u64> = (0..5000).map(|i| i * 7919).collect();
        let mut sketch = KnownSketch::build(&device, &[&[&rows[..100]]]);
        let first = sketch.size_bytes();
        for end in (200..=rows.len()).step_by(100) {
            if !sketch.insert(&[&rows[end - 100..end]]) {
                let grown = KnownSketch::build(&device, &[&[&rows[..end]]]);
                std::mem::replace(&mut sketch, grown).recycle(&device);
            }
            assert_eq!(sketch.rows(), end);
            assert!(sketch.rows() * BITS_PER_ROW <= 8 * sketch.size_bytes());
        }
        assert!(sketch.size_bytes() >= 16 * first, "grown by rebuilds");
        assert!(rows.iter().all(|&w| sketch.may_contain(&[w])));
        let strangers = (0..10_000u64).filter(|i| sketch.may_contain(&[i * 7919 + 1]));
        assert!(strangers.count() < 200, "false positives stay rare");
        sketch.recycle(&device);
    }
}
