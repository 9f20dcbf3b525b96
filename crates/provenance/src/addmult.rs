//! The add-mult-prob provenance semiring.

use crate::{InputFactId, Provenance};

/// Add-mult probability provenance: tags are pseudo-probabilities,
/// `⊕` is saturating addition (clamped to 1) and `⊗` is multiplication.
///
/// Under an independence assumption this approximates the probability of a
/// derived fact cheaply (a single float per fact). It is *not* idempotent:
/// re-deriving the same fact along the same path would inflate its weight, so
/// the runtime only relies on fact-count convergence for its fix-point test,
/// exactly as in the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AddMultProb;

impl AddMultProb {
    /// Creates the add-mult-prob provenance.
    pub fn new() -> Self {
        AddMultProb
    }
}

impl Provenance for AddMultProb {
    type Tag = f64;

    fn name(&self) -> &'static str {
        "addmultprob"
    }

    fn zero(&self) -> Self::Tag {
        0.0
    }

    fn one(&self) -> Self::Tag {
        1.0
    }

    fn add(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        (a + b).min(1.0)
    }

    fn mul(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        a * b
    }

    fn input_tag(&self, _fact: InputFactId, prob: Option<f64>) -> Self::Tag {
        prob.unwrap_or(1.0).clamp(0.0, 1.0)
    }

    fn accept(&self, tag: &Self::Tag) -> bool {
        *tag > 0.0
    }

    fn weight(&self, tag: &Self::Tag) -> f64 {
        tag.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_saturates_at_one() {
        let p = AddMultProb::new();
        assert_eq!(p.add(&0.7, &0.6), 1.0);
        assert!((p.add(&0.2, &0.3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mul_is_product() {
        let p = AddMultProb::new();
        assert!((p.mul(&0.5, &0.4) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn not_idempotent() {
        let p = AddMultProb::new();
        assert_ne!(p.add(&0.3, &0.3), 0.3);
    }

    #[test]
    fn weight_is_clamped() {
        let p = AddMultProb::new();
        assert_eq!(p.weight(&1.7), 1.0);
        assert_eq!(p.weight(&0.25), 0.25);
    }
}
