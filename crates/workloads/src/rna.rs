//! RNA Secondary Structure Prediction (SSP): parse an RNA sequence according
//! to a context-free folding grammar given probabilistic base-pairing scores
//! from a learned model (paper Section 6.1, Figure 12).
//!
//! The generator stands in for the ArchiveII dataset: sequences between 28
//! and 175 nucleotides with pairing probabilities concentrated on
//! Watson–Crick-complementary positions. The Datalog program is a
//! Nussinov-style CFG: a span folds if it is a pairing, a pairing wrapped
//! around a folded inner span, or a bifurcation of two folded spans — the
//! bifurcation rule is what gives the cubic growth the paper's Figure 12
//! scales over.

use crate::WorkloadFacts;
use lobster::Value;
use rand::Rng;

/// The RNA SSP folding program.
pub const PROGRAM: &str = "
    type paired(i: u32, j: u32)
    type length(n: u32)
    // A folded span [i, j].
    rel fold(i, j) = paired(i, j)
    rel fold(i, j) = paired(i, j), fold(i2, j2), i2 == i + 1, j == j2 + 1
    rel fold(i, j) = fold(i, k), fold(k2, j), k2 == k + 1
    // The whole sequence folds.
    rel folded() = length(n), fold(0, m), m == n - 1
    query fold
    query folded
";

/// RNA bases.
pub const BASES: [char; 4] = ['A', 'C', 'G', 'U'];

/// One generated RNA sample.
#[derive(Debug, Clone)]
pub struct RnaSample {
    /// The nucleotide sequence.
    pub sequence: Vec<char>,
    /// Predicted pairings `(i, j, probability)` with `i < j`.
    pub pairings: Vec<(u32, u32, f64)>,
}

impl RnaSample {
    /// Sequence length in nucleotides.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// `true` for the empty sequence (never generated).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// The facts fed to the symbolic program.
    pub fn facts(&self) -> WorkloadFacts {
        let mut facts = WorkloadFacts::new();
        facts.push("length", vec![Value::U32(self.sequence.len() as u32)], None);
        for &(i, j, p) in &self.pairings {
            facts.push("paired", vec![Value::U32(i), Value::U32(j)], Some(p));
        }
        facts
    }
}

fn complementary(a: char, b: char) -> bool {
    matches!(
        (a, b),
        ('A', 'U') | ('U', 'A') | ('G', 'C') | ('C', 'G') | ('G', 'U') | ('U', 'G')
    )
}

/// Generates a sequence of the given length together with base-pairing
/// probabilities from a simulated pairing model.
pub fn generate(length: usize, rng: &mut impl Rng) -> RnaSample {
    assert!(
        length >= 8,
        "sequences shorter than 8 nt are not interesting"
    );
    let sequence: Vec<char> = (0..length).map(|_| BASES[rng.gen_range(0..4)]).collect();
    let mut pairings = Vec::new();
    for i in 0..length {
        for j in (i + 4)..length {
            if !complementary(sequence[i], sequence[j]) {
                continue;
            }
            // The model is most confident about nested stems of moderate
            // span; confidence decays with span length, and only confident
            // candidates are emitted (the model's top predictions).
            let span = (j - i) as f64;
            let base = 0.95 * (-span / (length as f64)).exp();
            if rng.gen_bool(0.35) {
                let p = (base * rng.gen_range(0.6..1.0)).clamp(0.02, 0.98);
                pairings.push((i as u32, j as u32, p));
            }
        }
    }
    RnaSample { sequence, pairings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::Lobster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generator_respects_complementarity() {
        let mut rng = StdRng::seed_from_u64(2);
        let sample = generate(40, &mut rng);
        assert_eq!(sample.len(), 40);
        assert!(!sample.is_empty());
        for &(i, j, p) in &sample.pairings {
            assert!(j >= i + 4);
            assert!(complementary(
                sample.sequence[i as usize],
                sample.sequence[j as usize]
            ));
            assert!(p > 0.0 && p < 1.0);
        }
    }

    #[test]
    fn folding_program_runs_on_short_sequences() {
        let mut rng = StdRng::seed_from_u64(4);
        let sample = generate(28, &mut rng);
        let program = Lobster::builder(PROGRAM)
            .provenance(lobster::ProvenanceKind::Top1Proof)
            .compile()
            .unwrap();
        let mut session = program.session();
        sample.facts().add_to_session(&mut session).unwrap();
        let result = session.run().unwrap();
        // Folded spans exist whenever any pairing was predicted.
        if !sample.pairings.is_empty() {
            assert!(!result.relation("fold").is_empty());
        }
    }

    #[test]
    fn pairing_count_grows_with_length() {
        let mut rng = StdRng::seed_from_u64(5);
        let short = generate(30, &mut rng).pairings.len();
        let long = generate(150, &mut rng).pairings.len();
        assert!(
            long > short * 4,
            "long sequences should have many more candidate pairs"
        );
    }
}
