//! The unit provenance: plain discrete Datalog.

use crate::{InputFactId, Output, Provenance};

/// The unit semiring: every tag is `()`.
///
/// This is the provenance used for purely discrete reasoning (the Transitive
/// Closure, Same Generation, and CSPA benchmarks in the paper). It adds no
/// per-fact overhead beyond existence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unit;

impl Unit {
    /// Creates the unit provenance.
    pub fn new() -> Self {
        Unit
    }
}

impl Provenance for Unit {
    type Tag = ();

    fn name(&self) -> &'static str {
        "unit"
    }

    fn zero(&self) -> Self::Tag {}

    fn one(&self) -> Self::Tag {}

    fn add(&self, _a: &Self::Tag, _b: &Self::Tag) -> Self::Tag {}

    fn mul(&self, _a: &Self::Tag, _b: &Self::Tag) -> Self::Tag {}

    fn input_tag(&self, _fact: InputFactId, _prob: Option<f64>) -> Self::Tag {}

    fn weight(&self, _tag: &Self::Tag) -> f64 {
        1.0
    }

    fn output(&self, _tag: &Self::Tag) -> Output {
        Output::scalar(1.0)
    }

    fn delta_exact(&self) -> bool {
        // `()` carries nothing beyond existence, so dropping re-derivations
        // of already-present facts loses no information.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_trivial() {
        let p = Unit::new();
        assert_eq!(p.name(), "unit");
        assert_eq!(p.mul(&p.one(), &p.zero()), ());
        assert_eq!(p.weight(&()), 1.0);
        assert!(p.accept(&()));
        assert_eq!(p.add(&(), &()), ());
    }
}
