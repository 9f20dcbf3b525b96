//! Differentiable provenance semirings.
//!
//! These provenances carry enough information to compute the gradient of an
//! output fact's probability with respect to the probabilities of the input
//! facts, which is what allows a neural network upstream of the symbolic
//! program to be trained end-to-end (paper Sections 1–3).

use crate::{
    InputFactId, InputFactRegistry, Output, Proof, Provenance, SparseGradient, Top1Proof, Top1Tag,
};

/// A dual number: a value together with its sparse gradient with respect to
/// input-fact probabilities.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dual {
    /// The primal value (a pseudo-probability).
    pub value: f64,
    /// `d value / d Pr(fact)` for every contributing input fact.
    pub grad: SparseGradient,
}

impl Dual {
    /// A constant dual number (zero gradient).
    pub fn constant(value: f64) -> Self {
        Dual {
            value,
            grad: SparseGradient::zero(),
        }
    }

    /// The dual number of an input fact: value `p`, derivative 1 w.r.t.
    /// itself.
    pub fn variable(fact: InputFactId, value: f64) -> Self {
        Dual {
            value,
            grad: SparseGradient::singleton(fact, 1.0),
        }
    }
}

/// Differentiable max-min probability provenance (`diff-minmaxprob`).
///
/// The tag records the probability together with the *critical* input fact:
/// the fact whose probability currently determines the tag value. The
/// gradient is 1 with respect to that fact and 0 elsewhere (the true
/// sub-gradient of a max/min network).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiffMaxMinProb;

/// A tag of [`DiffMaxMinProb`]: probability plus the critical input fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxMinTag {
    /// Current probability bound.
    pub prob: f64,
    /// The input fact that determines `prob`, if any.
    pub critical: Option<InputFactId>,
}

impl DiffMaxMinProb {
    /// Creates the differentiable max-min-prob provenance.
    pub fn new() -> Self {
        DiffMaxMinProb
    }
}

impl Provenance for DiffMaxMinProb {
    type Tag = MaxMinTag;

    fn name(&self) -> &'static str {
        "diff-minmaxprob"
    }

    fn zero(&self) -> Self::Tag {
        MaxMinTag {
            prob: 0.0,
            critical: None,
        }
    }

    fn one(&self) -> Self::Tag {
        MaxMinTag {
            prob: 1.0,
            critical: None,
        }
    }

    fn add(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        if a.prob >= b.prob {
            *a
        } else {
            *b
        }
    }

    fn mul(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        if a.prob <= b.prob {
            *a
        } else {
            *b
        }
    }

    fn input_tag(&self, fact: InputFactId, prob: Option<f64>) -> Self::Tag {
        MaxMinTag {
            prob: prob.unwrap_or(1.0).clamp(0.0, 1.0),
            critical: Some(fact),
        }
    }

    fn accept(&self, tag: &Self::Tag) -> bool {
        tag.prob > 0.0
    }

    fn weight(&self, tag: &Self::Tag) -> f64 {
        tag.prob
    }

    fn output(&self, tag: &Self::Tag) -> Output {
        let gradient = match tag.critical {
            Some(fact) => vec![(fact, 1.0)],
            None => Vec::new(),
        };
        Output {
            probability: tag.prob,
            gradient,
        }
    }
}

/// Differentiable add-mult probability provenance (`diff-addmultprob`).
///
/// Tags are [`Dual`] numbers; conjunction and disjunction propagate gradients
/// with the product and sum rules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiffAddMultProb;

impl DiffAddMultProb {
    /// Creates the differentiable add-mult-prob provenance.
    pub fn new() -> Self {
        DiffAddMultProb
    }
}

impl Provenance for DiffAddMultProb {
    type Tag = Dual;

    fn name(&self) -> &'static str {
        "diff-addmultprob"
    }

    fn zero(&self) -> Self::Tag {
        Dual::constant(0.0)
    }

    fn one(&self) -> Self::Tag {
        Dual::constant(1.0)
    }

    fn add(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        // Saturating addition; the gradient is the sub-gradient of
        // min(a + b, 1).
        let raw = a.value + b.value;
        if raw >= 1.0 {
            Dual {
                value: 1.0,
                grad: SparseGradient::zero(),
            }
        } else {
            Dual {
                value: raw,
                grad: a.grad.add(&b.grad),
            }
        }
    }

    fn mul(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        Dual {
            value: a.value * b.value,
            grad: a.grad.scale(b.value).add(&b.grad.scale(a.value)),
        }
    }

    fn input_tag(&self, fact: InputFactId, prob: Option<f64>) -> Self::Tag {
        match prob {
            Some(p) => Dual::variable(fact, p.clamp(0.0, 1.0)),
            None => Dual::constant(1.0),
        }
    }

    fn accept(&self, tag: &Self::Tag) -> bool {
        tag.value > 0.0
    }

    fn weight(&self, tag: &Self::Tag) -> f64 {
        tag.value.clamp(0.0, 1.0)
    }

    fn output(&self, tag: &Self::Tag) -> Output {
        Output {
            probability: self.weight(tag),
            gradient: tag.grad.clone().into_entries(),
        }
    }
}

/// Differentiable top-1-proof provenance (`diff-top-1-proofs`).
///
/// This is the provenance used by all four differentiable benchmarks in the
/// paper (Pathfinder, PacMan-Maze, HWF, CLUTRR). The tag is the most likely
/// proof; the gradient of the output probability `p = Π_i p_i` with respect
/// to each fact in the proof is the product of the other facts'
/// probabilities.
#[derive(Debug, Clone)]
pub struct DiffTop1Proof {
    inner: Top1Proof,
}

impl DiffTop1Proof {
    /// Creates the provenance over a fact registry with the default
    /// proof-size limit.
    pub fn new(registry: InputFactRegistry) -> Self {
        DiffTop1Proof {
            inner: Top1Proof::new(registry),
        }
    }

    /// Creates the provenance with an explicit proof-size limit.
    pub fn with_max_proof_size(registry: InputFactRegistry, max_proof_size: usize) -> Self {
        DiffTop1Proof {
            inner: Top1Proof::with_max_proof_size(registry, max_proof_size),
        }
    }

    /// The fact registry backing this provenance.
    pub fn registry(&self) -> &InputFactRegistry {
        self.inner.registry()
    }

    /// The configured proof-size limit (defaults to
    /// [`crate::DEFAULT_MAX_PROOF_SIZE`]).
    pub fn max_proof_size(&self) -> usize {
        self.inner.max_proof_size()
    }

    /// The most likely proof recorded in a tag, if any.
    pub fn proof<'a>(&self, tag: &'a Top1Tag) -> Option<&'a Proof> {
        self.inner.proof(tag)
    }
}

impl Provenance for DiffTop1Proof {
    type Tag = Top1Tag;

    fn name(&self) -> &'static str {
        "diff-top-1-proofs"
    }

    fn zero(&self) -> Self::Tag {
        self.inner.zero()
    }

    fn one(&self) -> Self::Tag {
        self.inner.one()
    }

    fn add(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        self.inner.add(a, b)
    }

    fn mul(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag {
        self.inner.mul(a, b)
    }

    fn input_tag(&self, fact: InputFactId, prob: Option<f64>) -> Self::Tag {
        self.inner.input_tag(fact, prob)
    }

    fn accept(&self, tag: &Self::Tag) -> bool {
        self.inner.accept(tag)
    }

    fn weight(&self, tag: &Self::Tag) -> f64 {
        self.inner.weight(tag)
    }

    fn output(&self, tag: &Self::Tag) -> Output {
        match tag {
            Top1Tag::False => Output::scalar(0.0),
            Top1Tag::Proof(proof) => {
                let registry = self.inner.registry();
                let probability = proof.probability(registry);
                let mut gradient = Vec::with_capacity(proof.len());
                for &fact in proof.facts() {
                    // d (Π_i p_i) / d p_fact = Π_{i ≠ fact} p_i.
                    let others: f64 = proof
                        .facts()
                        .iter()
                        .filter(|&&f| f != fact)
                        .map(|&f| registry.prob(f))
                        .product();
                    gradient.push((fact, others));
                }
                Output {
                    probability,
                    gradient,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_minmax_tracks_critical_fact() {
        let p = DiffMaxMinProb::new();
        let a = p.input_tag(InputFactId(0), Some(0.9));
        let b = p.input_tag(InputFactId(1), Some(0.4));
        let conj = p.mul(&a, &b);
        assert_eq!(conj.critical, Some(InputFactId(1)));
        let out = p.output(&conj);
        assert_eq!(out.probability, 0.4);
        assert_eq!(out.gradient, vec![(InputFactId(1), 1.0)]);
        let disj = p.add(&a, &b);
        assert_eq!(disj.critical, Some(InputFactId(0)));
    }

    #[test]
    fn diff_addmult_product_rule() {
        let p = DiffAddMultProb::new();
        let a = p.input_tag(InputFactId(0), Some(0.5));
        let b = p.input_tag(InputFactId(1), Some(0.4));
        let prod = p.mul(&a, &b);
        assert!((prod.value - 0.2).abs() < 1e-12);
        assert!((prod.grad.get(InputFactId(0)) - 0.4).abs() < 1e-12);
        assert!((prod.grad.get(InputFactId(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn diff_addmult_sum_rule_and_saturation() {
        let p = DiffAddMultProb::new();
        let a = p.input_tag(InputFactId(0), Some(0.3));
        let b = p.input_tag(InputFactId(1), Some(0.4));
        let sum = p.add(&a, &b);
        assert!((sum.value - 0.7).abs() < 1e-12);
        assert_eq!(sum.grad.get(InputFactId(0)), 1.0);
        let saturated = p.add(&sum, &p.input_tag(InputFactId(2), Some(0.9)));
        assert_eq!(saturated.value, 1.0);
        assert!(saturated.grad.is_empty());
    }

    #[test]
    fn diff_addmult_numeric_gradient_check() {
        // Finite-difference check of d(a*b + c*b)/da etc. through the semiring ops.
        let p = DiffAddMultProb::new();
        let eval = |pa: f64, pb: f64, pc: f64| {
            let a = p.input_tag(InputFactId(0), Some(pa));
            let b = p.input_tag(InputFactId(1), Some(pb));
            let c = p.input_tag(InputFactId(2), Some(pc));
            p.add(&p.mul(&a, &b), &p.mul(&c, &b))
        };
        let base = eval(0.3, 0.5, 0.2);
        let eps = 1e-6;
        let da = (eval(0.3 + eps, 0.5, 0.2).value - base.value) / eps;
        let db = (eval(0.3, 0.5 + eps, 0.2).value - base.value) / eps;
        assert!((base.grad.get(InputFactId(0)) - da).abs() < 1e-4);
        assert!((base.grad.get(InputFactId(1)) - db).abs() < 1e-4);
    }

    #[test]
    fn diff_top1_gradient_is_product_of_other_probs() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.5), None);
        let b = reg.register(Some(0.4), None);
        let c = reg.register(Some(0.8), None);
        let p = DiffTop1Proof::new(reg);
        let t = p.mul(
            &p.mul(&p.input_tag(a, None), &p.input_tag(b, None)),
            &p.input_tag(c, None),
        );
        let out = p.output(&t);
        assert!((out.probability - 0.16).abs() < 1e-12);
        let grad: std::collections::HashMap<_, _> = out.gradient.into_iter().collect();
        assert!((grad[&a] - 0.32).abs() < 1e-12);
        assert!((grad[&b] - 0.4).abs() < 1e-12);
        assert!((grad[&c] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn diff_top1_false_has_zero_output() {
        let reg = InputFactRegistry::new();
        let p = DiffTop1Proof::new(reg);
        let out = p.output(&p.zero());
        assert_eq!(out.probability, 0.0);
        assert!(out.gradient.is_empty());
    }
}
