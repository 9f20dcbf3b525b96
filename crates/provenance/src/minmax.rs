//! The max-min-prob provenance semiring.

use crate::{InputFactId, Provenance};

/// Max-min probability provenance: tags are probabilities in `[0, 1]`,
/// `⊕` is `max`, `⊗` is `min`.
///
/// This is the `minmaxprob` provenance used by the Probabilistic Static
/// Analysis benchmark in the paper: the weight of a derived fact is the
/// strength of its strongest derivation, where the strength of a derivation
/// is its weakest link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaxMinProb;

impl MaxMinProb {
    /// Creates the max-min-prob provenance.
    pub fn new() -> Self {
        MaxMinProb
    }
}

impl Provenance for MaxMinProb {
    type Tag = f64;

    fn name(&self) -> &'static str {
        "minmaxprob"
    }

    fn zero(&self) -> Self::Tag {
        0.0
    }

    fn one(&self) -> Self::Tag {
        1.0
    }

    fn add(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        a.max(*b)
    }

    fn mul(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        a.min(*b)
    }

    fn input_tag(&self, _fact: InputFactId, prob: Option<f64>) -> Self::Tag {
        prob.unwrap_or(1.0).clamp(0.0, 1.0)
    }

    fn accept(&self, tag: &Self::Tag) -> bool {
        *tag > 0.0
    }

    fn weight(&self, tag: &Self::Tag) -> f64 {
        *tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_min_operations() {
        let p = MaxMinProb::new();
        assert_eq!(p.add(&0.3, &0.7), 0.7);
        assert_eq!(p.mul(&0.3, &0.7), 0.3);
    }

    #[test]
    fn input_probabilities_are_clamped() {
        let p = MaxMinProb::new();
        assert_eq!(p.input_tag(InputFactId(0), Some(1.5)), 1.0);
        assert_eq!(p.input_tag(InputFactId(0), Some(-0.5)), 0.0);
        assert_eq!(p.input_tag(InputFactId(0), None), 1.0);
    }

    #[test]
    fn zero_probability_facts_are_rejected() {
        let p = MaxMinProb::new();
        assert!(!p.accept(&0.0));
        assert!(p.accept(&0.2));
    }

    #[test]
    fn semiring_is_idempotent() {
        let p = MaxMinProb::new();
        assert_eq!(p.add(&0.4, &0.4), 0.4);
        assert_eq!(p.mul(&0.4, &0.4), 0.4);
    }
}
