//! The top-1-proof provenance semiring.

use crate::{InputFactId, InputFactRegistry, Proof, Provenance, DEFAULT_MAX_PROOF_SIZE};

/// A tag of the top-1-proof provenance: the single most likely proof of a
/// fact, or `False` when no proof exists.
#[derive(Debug, Clone, PartialEq)]
pub enum Top1Tag {
    /// No derivation exists.
    False,
    /// The most likely derivation found so far.
    Proof(Proof),
}

/// Top-1-proof provenance (`prob-top-1-proofs` in the paper).
///
/// Each fact carries its single most likely proof, i.e. the conjunction of
/// input facts of the best derivation found so far. Disjunction keeps the
/// proof with the higher probability; conjunction merges the two proofs and
/// rejects the combination when the proofs conflict (two facts of the same
/// mutual-exclusion group) or exceed the configured size limit, in which case
/// the tag collapses to `False`.
#[derive(Debug, Clone)]
pub struct Top1Proof {
    registry: InputFactRegistry,
    max_proof_size: usize,
}

impl Top1Proof {
    /// Creates a top-1-proof provenance over the given fact registry with the
    /// default proof-size limit (300, per the paper).
    pub fn new(registry: InputFactRegistry) -> Self {
        Self::with_max_proof_size(registry, DEFAULT_MAX_PROOF_SIZE)
    }

    /// Creates a top-1-proof provenance with an explicit proof-size limit.
    pub fn with_max_proof_size(registry: InputFactRegistry, max_proof_size: usize) -> Self {
        Top1Proof {
            registry,
            max_proof_size,
        }
    }

    /// The fact registry used to look up probabilities and exclusions.
    pub fn registry(&self) -> &InputFactRegistry {
        &self.registry
    }

    /// The configured proof-size limit.
    pub fn max_proof_size(&self) -> usize {
        self.max_proof_size
    }

    /// The most likely proof of the tag, if any.
    pub fn proof<'a>(&self, tag: &'a Top1Tag) -> Option<&'a Proof> {
        match tag {
            Top1Tag::False => None,
            Top1Tag::Proof(p) => Some(p),
        }
    }
}

impl Provenance for Top1Proof {
    type Tag = Top1Tag;

    fn name(&self) -> &'static str {
        "prob-top-1-proofs"
    }

    fn zero(&self) -> Self::Tag {
        Top1Tag::False
    }

    fn one(&self) -> Self::Tag {
        Top1Tag::Proof(Proof::empty())
    }

    fn add(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        match (a, b) {
            (Top1Tag::False, other) | (other, Top1Tag::False) => other.clone(),
            (Top1Tag::Proof(pa), Top1Tag::Proof(pb)) => {
                // Keep the more likely proof; break ties toward the shorter
                // proof so the choice is deterministic.
                let wa = pa.probability(&self.registry);
                let wb = pb.probability(&self.registry);
                if wa > wb || (wa == wb && pa.len() <= pb.len()) {
                    Top1Tag::Proof(pa.clone())
                } else {
                    Top1Tag::Proof(pb.clone())
                }
            }
        }
    }

    fn mul(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        match (a, b) {
            (Top1Tag::False, _) | (_, Top1Tag::False) => Top1Tag::False,
            (Top1Tag::Proof(pa), Top1Tag::Proof(pb)) => {
                match pa.union(pb, self.max_proof_size, &self.registry) {
                    Some(p) => Top1Tag::Proof(p),
                    None => Top1Tag::False,
                }
            }
        }
    }

    fn input_tag(&self, fact: InputFactId, _prob: Option<f64>) -> Self::Tag {
        Top1Tag::Proof(Proof::singleton(fact))
    }

    fn accept(&self, tag: &Self::Tag) -> bool {
        !matches!(tag, Top1Tag::False)
    }

    fn weight(&self, tag: &Self::Tag) -> f64 {
        match tag {
            Top1Tag::False => 0.0,
            Top1Tag::Proof(p) => p.probability(&self.registry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Top1Proof, InputFactId, InputFactId, InputFactId) {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.9), None);
        let b = reg.register(Some(0.5), None);
        let c = reg.register(Some(0.8), None);
        (Top1Proof::new(reg), a, b, c)
    }

    #[test]
    fn add_picks_more_likely_proof() {
        let (p, a, b, _) = setup();
        let ta = p.input_tag(a, Some(0.9));
        let tb = p.input_tag(b, Some(0.5));
        let sum = p.add(&ta, &tb);
        assert_eq!(sum, ta);
        assert!((p.weight(&sum) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mul_unions_proofs_and_multiplies_probability() {
        let (p, a, _, c) = setup();
        let ta = p.input_tag(a, None);
        let tc = p.input_tag(c, None);
        let prod = p.mul(&ta, &tc);
        assert!((p.weight(&prod) - 0.72).abs() < 1e-12);
        assert_eq!(p.proof(&prod).unwrap().len(), 2);
    }

    #[test]
    fn false_annihilates_conjunction() {
        let (p, a, _, _) = setup();
        let ta = p.input_tag(a, None);
        assert_eq!(p.mul(&ta, &p.zero()), Top1Tag::False);
        assert!(!p.accept(&p.zero()));
    }

    #[test]
    fn proof_size_limit_collapses_to_false() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.5), None);
        let b = reg.register(Some(0.5), None);
        let p = Top1Proof::with_max_proof_size(reg, 1);
        let prod = p.mul(&p.input_tag(a, None), &p.input_tag(b, None));
        assert_eq!(prod, Top1Tag::False);
    }

    #[test]
    fn exclusive_facts_conflict() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.5), Some(0));
        let b = reg.register(Some(0.5), Some(0));
        let p = Top1Proof::new(reg);
        let prod = p.mul(&p.input_tag(a, None), &p.input_tag(b, None));
        assert_eq!(prod, Top1Tag::False);
    }

    #[test]
    fn one_is_the_empty_proof() {
        let (p, a, _, _) = setup();
        let ta = p.input_tag(a, None);
        assert_eq!(p.mul(&ta, &p.one()), ta);
        assert_eq!(p.weight(&p.one()), 1.0);
    }
}
