//! Cell values and their 64-bit device encoding.

use std::fmt;

/// The logical type of a relation column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Unsigned 32-bit integers (the paper's `u32` / `Cell` type).
    U32,
    /// Signed 64-bit integers.
    I64,
    /// 64-bit floating point numbers (needed by the HWF benchmark).
    F64,
    /// Interned symbols (strings).
    Symbol,
    /// Booleans.
    Bool,
}

impl ValueType {
    /// The physical width in bytes a column of this type takes on the
    /// device: booleans a byte, `u32`s four, symbols four (a symbol is
    /// stored as its [`crate::SymbolTable`] id), and the 64-bit types the
    /// full word.
    pub fn physical_width(self) -> usize {
        match self {
            ValueType::Bool => 1,
            ValueType::U32 | ValueType::Symbol => 4,
            ValueType::I64 | ValueType::F64 => 8,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::U32 => "u32",
            ValueType::I64 => "i64",
            ValueType::F64 => "f64",
            ValueType::Symbol => "symbol",
            ValueType::Bool => "bool",
        };
        f.write_str(name)
    }
}

/// A single cell value.
///
/// Values are encoded as raw 64-bit words on the device ([`Value::encode`]);
/// the logical type is carried by the relation schema. Word-for-word equality
/// of encodings coincides with value equality within one type, which is the
/// only property the device kernels rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An unsigned 32-bit integer.
    U32(u32),
    /// A signed 64-bit integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// An interned symbol id (see [`crate::SymbolTable`]).
    Symbol(u32),
    /// A boolean.
    Bool(bool),
}

/// A tuple of cell values (one fact, minus its provenance tag).
pub type Tuple = Vec<Value>;

impl Value {
    /// The logical type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::U32(_) => ValueType::U32,
            Value::I64(_) => ValueType::I64,
            Value::F64(_) => ValueType::F64,
            Value::Symbol(_) => ValueType::Symbol,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Encodes the value as a 64-bit device word.
    pub fn encode(&self) -> u64 {
        match self {
            Value::U32(v) => u64::from(*v),
            Value::I64(v) => *v as u64,
            // Normalize -0.0 to 0.0 so bit-equality coincides with value
            // equality. NaNs are not expected in relation data.
            Value::F64(v) => (if *v == 0.0 { 0.0 } else { *v }).to_bits(),
            Value::Symbol(v) => u64::from(*v),
            Value::Bool(v) => u64::from(*v),
        }
    }

    /// Decodes a 64-bit device word of the given logical type.
    pub fn decode(word: u64, ty: ValueType) -> Value {
        match ty {
            ValueType::U32 => Value::U32(word as u32),
            ValueType::I64 => Value::I64(word as i64),
            ValueType::F64 => Value::F64(f64::from_bits(word)),
            ValueType::Symbol => Value::Symbol(word as u32),
            ValueType::Bool => Value::Bool(word != 0),
        }
    }

    /// The value as an `f64`, converting integers when necessary.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::U32(v) => f64::from(*v),
            Value::I64(v) => *v as f64,
            Value::F64(v) => *v,
            Value::Symbol(v) => f64::from(*v),
            Value::Bool(v) => f64::from(u8::from(*v)),
        }
    }

    /// The value as a `u32` if it is one.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Symbol(v) => write!(f, "sym#{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let cases = vec![
            Value::U32(42),
            Value::I64(-7),
            Value::F64(3.25),
            Value::Symbol(9),
            Value::Bool(true),
            Value::Bool(false),
        ];
        for v in cases {
            let decoded = Value::decode(v.encode(), v.value_type());
            assert_eq!(decoded, v, "round trip failed for {v:?}");
        }
    }

    #[test]
    fn negative_zero_normalizes() {
        assert_eq!(Value::F64(-0.0).encode(), Value::F64(0.0).encode());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3u32), Value::U32(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(0.5), Value::F64(0.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::U32(7).as_f64(), 7.0);
        assert_eq!(Value::U32(7).as_u32(), Some(7));
        assert_eq!(Value::F64(7.0).as_u32(), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::U32(5).to_string(), "5");
        assert_eq!(Value::F64(1.5).to_string(), "1.5");
        assert_eq!(ValueType::F64.to_string(), "f64");
    }
}
