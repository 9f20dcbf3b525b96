//! Narrow, dictionary-encoded columnar layouts.
//!
//! Every cell travels the kernels as a full 64-bit word, but most logical
//! types need far fewer bytes: booleans one, `u32`s four, and interned
//! symbols only as many as the number of *distinct* symbols a database
//! actually touches. This module defines the two pieces that let storage
//! exploit that:
//!
//! * [`SymbolDict`] — an **order-preserving** per-database dictionary
//!   mapping the process-global symbol ids that appear in a run down to a
//!   dense range `0..n`. Local ids are the *rank* of the global id in the
//!   sorted used-set, so `local(a) < local(b) ⇔ a < b`: sorting, merging,
//!   deduplicating, and comparing encoded columns produces exactly the same
//!   row order as the full-width path, which is what keeps encoded
//!   execution bit-identical.
//! * [`RelationLayout`] — a packing of a relation's logical columns into
//!   ≤ 8-byte *groups*, each stored as one physical `u64` column. Column 0
//!   of a group occupies the most-significant lane, so comparing packed
//!   words as plain `u64`s is the same as comparing the underlying columns
//!   left-to-right — the kernels need no layout knowledge at all, they just
//!   see fewer columns with fewer significant bytes.

use crate::ValueType;

/// An order-preserving dictionary over process-global symbol ids.
///
/// Built from the set of global ids a database touches (fact values plus
/// program constants); the local id of a global id is its rank in the sorted
/// set. Extending the dictionary with new ids shifts ranks *monotonically*
/// (see [`SymbolDict::extend`]), so already-sorted encoded tables stay
/// sorted after remapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolDict {
    /// Sorted global ids; the local id of `globals[i]` is `i`.
    globals: Vec<u32>,
}

impl SymbolDict {
    /// Builds a dictionary from an arbitrary collection of global ids
    /// (duplicates are fine).
    pub fn from_globals(mut globals: Vec<u32>) -> Self {
        globals.sort_unstable();
        globals.dedup();
        SymbolDict { globals }
    }

    /// Number of distinct symbols in the dictionary.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// `true` when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// The local id (rank) of a global id, if present.
    pub fn local(&self, global: u32) -> Option<u32> {
        self.globals.binary_search(&global).ok().map(|i| i as u32)
    }

    /// The global id behind a local id, if in range.
    pub fn global(&self, local: u32) -> Option<u32> {
        self.globals.get(local as usize).copied()
    }

    /// `true` when every id in `globals` is already present.
    pub fn covers(&self, globals: impl IntoIterator<Item = u32>) -> bool {
        globals.into_iter().all(|g| self.local(g).is_some())
    }

    /// The physical width in bytes of a local id: the smallest of {1, 2, 4}
    /// that fits every rank.
    pub fn width_bytes(&self) -> usize {
        if self.globals.len() <= 1 << 8 {
            1
        } else if self.globals.len() <= 1 << 16 {
            2
        } else {
            4
        }
    }

    /// Extends the dictionary with additional global ids, returning the new
    /// dictionary plus the monotone remap table `old local id → new local
    /// id`. Monotonicity (ranks only shift upward, preserving relative
    /// order) is what lets callers remap sorted encoded columns in place
    /// without re-sorting.
    pub fn extend(&self, new_globals: impl IntoIterator<Item = u32>) -> (SymbolDict, Vec<u32>) {
        let mut globals = self.globals.clone();
        globals.extend(new_globals);
        let extended = SymbolDict::from_globals(globals);
        let remap = self
            .globals
            .iter()
            .map(|g| extended.local(*g).expect("extension keeps old ids"))
            .collect();
        (extended, remap)
    }

    /// The sorted global ids (local id = position).
    pub fn globals(&self) -> &[u32] {
        &self.globals
    }
}

/// One lane of a packed group: a logical column's position inside the
/// group's `u64` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// The logical column this lane stores.
    pub column: usize,
    /// Bit offset of the lane's least-significant bit within the word.
    pub shift: u32,
    /// Lane width in bytes (1, 2, 4, or 8).
    pub bytes: usize,
    /// Whether the lane holds dictionary-encoded symbol ids.
    pub symbol: bool,
}

impl Lane {
    /// The lane's value mask (before shifting).
    pub fn mask(&self) -> u64 {
        if self.bytes >= 8 {
            u64::MAX
        } else {
            (1u64 << (self.bytes * 8)) - 1
        }
    }
}

/// One packed group: the lanes sharing one physical `u64` column, first
/// lane most significant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Group {
    /// The lanes, in logical column order (descending shift).
    pub lanes: Vec<Lane>,
}

impl Group {
    /// Packs the given logical cell values (one per lane, in lane order)
    /// into the group's word.
    pub fn pack(&self, values: &[u64]) -> u64 {
        debug_assert_eq!(values.len(), self.lanes.len());
        let mut word = 0u64;
        for (lane, v) in self.lanes.iter().zip(values) {
            debug_assert_eq!(v & !lane.mask(), 0, "value exceeds lane width");
            word |= (v & lane.mask()) << lane.shift;
        }
        word
    }

    /// Extracts one lane's value from the group's word.
    pub fn unpack(&self, word: u64, lane: usize) -> u64 {
        let lane = &self.lanes[lane];
        (word >> lane.shift) & lane.mask()
    }

    /// Total bytes occupied by the group's lanes.
    pub fn used_bytes(&self) -> usize {
        self.lanes.iter().map(|l| l.bytes).sum()
    }
}

/// The physical layout of one relation: its logical columns packed into
/// `u64` groups, in order.
///
/// The packing is greedy and **order-preserving**: columns are taken left to
/// right, each group accumulates columns until the next would exceed 8
/// bytes, and within a group the first column occupies the most-significant
/// lane. Comparing rows group-word by group-word therefore equals comparing
/// them column by column, so sorted packed tables are sorted in exactly the
/// original row order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelationLayout {
    /// The groups, in order; each is one physical column.
    pub groups: Vec<Group>,
    /// The logical arity (number of unpacked columns).
    pub arity: usize,
}

impl RelationLayout {
    /// Plans the layout for a column type list, narrowing `Symbol` columns
    /// to `sym_bytes` (the dictionary width) and every other column to its
    /// [`ValueType::physical_width`]. A `u32` lane is 4 bytes in every
    /// program: `u32` arithmetic wraps at 32 bits, so no column holds a
    /// wider word.
    pub fn plan(types: &[ValueType], sym_bytes: usize) -> RelationLayout {
        let mut groups: Vec<Group> = Vec::new();
        let mut current: Vec<(usize, usize, bool)> = Vec::new(); // (column, bytes, symbol)
        let mut used = 0usize;
        let flush = |current: &mut Vec<(usize, usize, bool)>, groups: &mut Vec<Group>| {
            if current.is_empty() {
                return;
            }
            let total: usize = current.iter().map(|(_, b, _)| b).sum();
            let mut remaining = total;
            let lanes = current
                .drain(..)
                .map(|(column, bytes, symbol)| {
                    remaining -= bytes;
                    Lane {
                        column,
                        shift: (remaining * 8) as u32,
                        bytes,
                        symbol,
                    }
                })
                .collect();
            groups.push(Group { lanes });
        };
        for (column, ty) in types.iter().enumerate() {
            let symbol = *ty == ValueType::Symbol;
            let bytes = if symbol {
                sym_bytes
            } else {
                ty.physical_width()
            };
            if used + bytes > 8 {
                flush(&mut current, &mut groups);
                used = 0;
            }
            current.push((column, bytes, symbol));
            used += bytes;
        }
        flush(&mut current, &mut groups);
        RelationLayout {
            groups,
            arity: types.len(),
        }
    }

    /// Number of physical columns after packing.
    pub fn packed_arity(&self) -> usize {
        self.groups.len()
    }

    /// `true` when packing is the identity (every group holds exactly one
    /// full-width lane) — callers can skip the pack/unpack kernels.
    pub fn is_identity(&self) -> bool {
        self.groups
            .iter()
            .all(|g| g.lanes.len() == 1 && g.lanes[0].bytes == 8)
    }

    /// `true` when any lane stores dictionary-encoded symbols.
    pub fn has_symbols(&self) -> bool {
        self.groups.iter().any(|g| g.lanes.iter().any(|l| l.symbol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_ranks_preserve_order() {
        let dict = SymbolDict::from_globals(vec![42, 7, 19, 7]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.local(7), Some(0));
        assert_eq!(dict.local(19), Some(1));
        assert_eq!(dict.local(42), Some(2));
        assert_eq!(dict.local(8), None);
        assert_eq!(dict.global(1), Some(19));
        assert_eq!(dict.global(9), None);
        assert!(dict.covers([7, 42]));
        assert!(!dict.covers([7, 8]));
    }

    #[test]
    fn dict_width_tracks_cardinality() {
        assert_eq!(SymbolDict::default().width_bytes(), 1);
        assert_eq!(
            SymbolDict::from_globals((0..256).collect()).width_bytes(),
            1
        );
        assert_eq!(
            SymbolDict::from_globals((0..257).collect()).width_bytes(),
            2
        );
        assert_eq!(
            SymbolDict::from_globals((0..65_536).collect()).width_bytes(),
            2
        );
        // Width depends on cardinality, not on the magnitude of global ids.
        assert_eq!(
            SymbolDict::from_globals((0..70_000).collect()).width_bytes(),
            4
        );
        assert_eq!(
            SymbolDict::from_globals((0..100).map(|i| i * 1_000_000).collect()).width_bytes(),
            1
        );
    }

    #[test]
    fn dict_extension_is_monotone() {
        let dict = SymbolDict::from_globals(vec![10, 20, 30]);
        let (extended, remap) = dict.extend([5, 25, 20]);
        assert_eq!(extended.globals(), &[5, 10, 20, 25, 30]);
        // Old locals 0,1,2 (for 10,20,30) map to 1,2,4 — strictly increasing.
        assert_eq!(remap, vec![1, 2, 4]);
        assert!(remap.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn layout_packs_greedily_and_preserves_order() {
        // u32, u32 → one group with lanes at shifts 32 and 0.
        let layout = RelationLayout::plan(&[ValueType::U32, ValueType::U32], 4);
        assert_eq!(layout.packed_arity(), 1);
        let g = &layout.groups[0];
        assert_eq!(g.lanes[0].shift, 32);
        assert_eq!(g.lanes[1].shift, 0);
        // Packed comparison == column-lexicographic comparison.
        let a = g.pack(&[1, 9]);
        let b = g.pack(&[2, 0]);
        assert!(a < b);
        assert_eq!(g.unpack(a, 0), 1);
        assert_eq!(g.unpack(a, 1), 9);
    }

    #[test]
    fn layout_splits_when_full() {
        // i64 takes the whole word; u32+bool+sym(1) fit the next one.
        let layout = RelationLayout::plan(
            &[
                ValueType::I64,
                ValueType::U32,
                ValueType::Bool,
                ValueType::Symbol,
            ],
            1,
        );
        assert_eq!(layout.packed_arity(), 2);
        assert_eq!(layout.groups[0].lanes.len(), 1);
        assert_eq!(layout.groups[0].lanes[0].bytes, 8);
        assert_eq!(layout.groups[1].lanes.len(), 3);
        assert_eq!(layout.groups[1].used_bytes(), 6);
        assert!(layout.has_symbols());
        assert!(!layout.is_identity());
    }

    #[test]
    fn full_width_layout_is_identity() {
        let layout = RelationLayout::plan(&[ValueType::F64, ValueType::I64], 4);
        assert_eq!(layout.packed_arity(), 2);
        assert!(layout.is_identity());
        assert!(!layout.has_symbols());
    }

    #[test]
    fn empty_schema_packs_to_nothing() {
        let layout = RelationLayout::plan(&[], 4);
        assert_eq!(layout.packed_arity(), 0);
        assert!(layout.is_identity());
    }
}
