//! Provenance semiring framework for the Lobster neurosymbolic runtime.
//!
//! Lobster (ASPLOS 2026) supports discrete, probabilistic, and differentiable
//! reasoning by tagging every fact with an element of a *provenance semiring*
//! and propagating the tags through every relational operator. This crate
//! implements the semiring library described in Section 3.5 of the paper:
//!
//! * [`Unit`] — plain discrete Datalog (no information beyond existence).
//! * [`Boolean`] — boolean provenance (`∨` / `∧`).
//! * [`MaxMinProb`] — viterbi-style probability bounds (`max` / `min`).
//! * [`AddMultProb`] — additive/multiplicative pseudo-probabilities.
//! * [`Top1Proof`] — tracks the single most likely proof of each fact.
//! * [`DiffMaxMinProb`], [`DiffAddMultProb`], [`DiffTop1Proof`] — the
//!   differentiable counterparts used for end-to-end training.
//!
//! A provenance is a 5-tuple `(T, 0, 1, ⊕, ⊗)`. The [`Provenance`] trait
//! mirrors that structure and additionally exposes:
//!
//! * [`Provenance::input_tag`] — how an extensional (input) fact with an
//!   optional probability is lifted into a tag,
//! * [`Provenance::weight`] — a probability-like weight used for ranking and
//!   reporting, and
//! * [`Provenance::output`] — the final probability together with the
//!   gradient with respect to every input fact, which is what makes the
//!   framework differentiable.
//!
//! # Example
//!
//! ```
//! use lobster_provenance::{Provenance, AddMultProb, InputFactId};
//!
//! let prov = AddMultProb::new();
//! let a = prov.input_tag(InputFactId(0), Some(0.9));
//! let b = prov.input_tag(InputFactId(1), Some(0.5));
//! let conj = prov.mul(&a, &b);
//! assert!((prov.weight(&conj) - 0.45).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addmult;
mod bind;
mod boolean;
mod diff;
mod fact;
mod gradient;
mod kind;
mod minmax;
mod proof;
mod top1;
mod unit;

pub use addmult::AddMultProb;
pub use bind::SessionProvenance;
pub use boolean::Boolean;
pub use diff::{DiffAddMultProb, DiffMaxMinProb, DiffTop1Proof, Dual};
pub use fact::{InputFactId, InputFactRegistry};
pub use gradient::SparseGradient;
pub use kind::ProvenanceKind;
pub use minmax::MaxMinProb;
pub use proof::{Proof, DEFAULT_MAX_PROOF_SIZE};
pub use top1::{Top1Proof, Top1Tag};
pub use unit::Unit;

use std::fmt::Debug;

/// The result of interpreting a final (IDB) tag: a probability together with
/// the gradient of that probability with respect to the probabilities of the
/// input facts that contributed to it.
///
/// For non-differentiable provenances the gradient is empty.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Output {
    /// Probability-like weight of the derived fact in `[0, 1]`.
    pub probability: f64,
    /// Sparse gradient `d probability / d Pr(fact)` for each contributing
    /// input fact.
    pub gradient: Vec<(InputFactId, f64)>,
}

impl Output {
    /// An output with the given probability and no gradient.
    pub fn scalar(probability: f64) -> Self {
        Output {
            probability,
            gradient: Vec::new(),
        }
    }
}

/// A provenance semiring `(T, 0, 1, ⊕, ⊗)` together with the glue needed to
/// use it inside a differentiable Datalog runtime.
///
/// Implementations must be cheap to clone: the runtime clones the provenance
/// context into every parallel kernel.
pub trait Provenance: Clone + Debug + Send + Sync + 'static {
    /// The tag type attached to every fact.
    type Tag: Clone + Debug + PartialEq + Send + Sync + 'static;

    /// Human-readable name of the semiring (e.g. `"diff-top-1-proofs"`).
    fn name(&self) -> &'static str;

    /// The additive identity (`false` / impossible).
    fn zero(&self) -> Self::Tag;

    /// The multiplicative identity (`true` / certain).
    fn one(&self) -> Self::Tag;

    /// Disjunction (`⊕`): combines two alternative derivations of the same
    /// fact.
    fn add(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag;

    /// Conjunction (`⊗`): combines the derivations of joined facts.
    fn mul(&self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag;

    /// Lift an input (EDB) fact into a tag. `prob` is `None` for
    /// non-probabilistic facts, which are treated as certain.
    fn input_tag(&self, fact: InputFactId, prob: Option<f64>) -> Self::Tag;

    /// Whether a derived fact carrying this tag should be kept in the
    /// database. Discrete provenances keep everything; probabilistic ones
    /// may discard facts whose tag collapsed to `0`.
    fn accept(&self, tag: &Self::Tag) -> bool {
        let _ = tag;
        true
    }

    /// A probability-like weight in `[0, 1]` used for ranking proofs and for
    /// reporting results.
    fn weight(&self, tag: &Self::Tag) -> f64;

    /// Interpret a final tag as an output probability plus its gradient with
    /// respect to input-fact probabilities. Non-differentiable provenances
    /// return an empty gradient.
    fn output(&self, tag: &Self::Tag) -> Output {
        Output::scalar(self.weight(tag))
    }

    /// `true` when tags carry no information beyond set membership, so the
    /// tuple-level delta-insertion path — which never revisits the tag of an
    /// already-derived fact — is exact. Only [`Unit`] qualifies: every
    /// richer semiring folds `⊕` over alternative derivations (in
    /// first-encounter order), so a new derivation of an existing fact can
    /// change its tag even though the fact set is unchanged, and incremental
    /// maintenance must fall back to recomputing the affected strata.
    fn delta_exact(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn semiring_laws<P: Provenance>(
        prov: &P,
        tags: &[P::Tag],
        approx: impl Fn(&P::Tag, &P::Tag) -> bool,
    ) {
        // 0 is the additive identity, 1 the multiplicative identity.
        for t in tags {
            assert!(
                approx(&prov.add(t, &prov.zero()), t),
                "0 must be additive identity"
            );
            assert!(
                approx(&prov.mul(t, &prov.one()), t),
                "1 must be multiplicative identity"
            );
        }
        // Associativity and commutativity of ⊕ (up to the approximation).
        for a in tags {
            for b in tags {
                assert!(approx(&prov.add(a, b), &prov.add(b, a)), "⊕ must commute");
                for c in tags {
                    assert!(
                        approx(&prov.add(&prov.add(a, b), c), &prov.add(a, &prov.add(b, c))),
                        "⊕ must associate"
                    );
                }
            }
        }
    }

    #[test]
    fn boolean_laws() {
        let prov = Boolean::new();
        let tags = vec![prov.zero(), prov.one()];
        semiring_laws(&prov, &tags, |a, b| a == b);
    }

    #[test]
    fn minmax_laws() {
        let prov = MaxMinProb::new();
        let tags = vec![0.0, 0.25, 0.5, 1.0];
        semiring_laws(&prov, &tags, |a, b| (a - b).abs() < 1e-12);
    }

    #[test]
    fn addmult_identity_laws() {
        let prov = AddMultProb::new();
        let tags = vec![0.0, 0.3, 0.7, 1.0];
        for t in &tags {
            assert!((prov.add(t, &prov.zero()) - t).abs() < 1e-12);
            assert!((prov.mul(t, &prov.one()) - t).abs() < 1e-12);
        }
    }

    #[test]
    fn output_default_has_empty_gradient() {
        let prov = MaxMinProb::new();
        let out = prov.output(&0.75);
        assert_eq!(out.probability, 0.75);
        assert!(out.gradient.is_empty());
    }
}
