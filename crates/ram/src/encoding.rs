//! Narrow columnar layouts.
//!
//! Every cell travels the kernels as a full 64-bit word, but most logical
//! types need far fewer bytes: booleans one, `u32`s and symbols four (a
//! symbol is stored as its process-wide interner id), the 64-bit types
//! eight. A [`RelationLayout`] packs a relation's logical columns into
//! ≤ 8-byte *groups*, each stored as one physical `u64` column. Column 0 of
//! a group occupies the most-significant lane, so comparing packed words as
//! plain `u64`s is the same as comparing the underlying columns
//! left-to-right — the kernels need no layout knowledge at all, they just
//! see fewer columns with fewer significant bytes. A layout depends on the
//! column types alone.

use crate::ValueType;

/// One lane of a packed group: a logical column's position inside the
/// group's `u64` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// The logical column this lane stores.
    pub column: usize,
    /// Bit offset of the lane's least-significant bit within the word.
    pub shift: u32,
    /// Lane width in bytes (1, 4, or 8).
    pub bytes: usize,
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
    /// Plans the layout for a column type list, every column as wide as
    /// its [`ValueType::physical_width`]. A `u32` lane is 4 bytes in every
    /// program: `u32` arithmetic wraps at 32 bits, so no column holds a
    /// wider word.
    pub fn plan(types: &[ValueType]) -> RelationLayout {
        let mut groups: Vec<Group> = Vec::new();
        let mut current: Vec<(usize, usize)> = Vec::new(); // (column, bytes)
        let mut used = 0usize;
        let flush = |current: &mut Vec<(usize, usize)>, groups: &mut Vec<Group>| {
            if current.is_empty() {
                return;
            }
            let total: usize = current.iter().map(|(_, b)| b).sum();
            let mut remaining = total;
            let lanes = current
                .drain(..)
                .map(|(column, bytes)| {
                    remaining -= bytes;
                    Lane {
                        column,
                        shift: (remaining * 8) as u32,
                        bytes,
                    }
                })
                .collect();
            groups.push(Group { lanes });
        };
        for (column, ty) in types.iter().enumerate() {
            let bytes = ty.physical_width();
            if used + bytes > 8 {
                flush(&mut current, &mut groups);
                used = 0;
            }
            current.push((column, bytes));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_packs_greedily_and_preserves_order() {
        // u32, u32 → one group with lanes at shifts 32 and 0.
        let layout = RelationLayout::plan(&[ValueType::U32, ValueType::U32]);
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
        // i64 takes the whole word; u32+bool fit the next one, and the
        // symbol, 4 bytes like a u32, does not fit beside them.
        let layout = RelationLayout::plan(&[
            ValueType::I64,
            ValueType::U32,
            ValueType::Bool,
            ValueType::Symbol,
        ]);
        assert_eq!(layout.packed_arity(), 3);
        assert_eq!(layout.groups[0].lanes.len(), 1);
        assert_eq!(layout.groups[0].lanes[0].bytes, 8);
        assert_eq!(layout.groups[1].lanes.len(), 2);
        assert_eq!(layout.groups[1].used_bytes(), 5);
        assert_eq!(layout.groups[2].lanes[0].bytes, 4);
        assert!(!layout.is_identity());
    }

    #[test]
    fn full_width_layout_is_identity() {
        let layout = RelationLayout::plan(&[ValueType::F64, ValueType::I64]);
        assert_eq!(layout.packed_arity(), 2);
        assert!(layout.is_identity());
    }

    #[test]
    fn empty_schema_packs_to_nothing() {
        let layout = RelationLayout::plan(&[]);
        assert_eq!(layout.packed_arity(), 0);
        assert!(layout.is_identity());
    }
}
