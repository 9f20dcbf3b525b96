//! The Handwritten Formula (HWF) task: parse and evaluate a formula of
//! handwritten digits and operators, supervised only on the final value.
//!
//! The classifier produces, for every symbol position, a distribution over
//! the possible symbols; the symbolic program evaluates the formula
//! left-to-right over those uncertain symbols. Positions within one formula
//! are mutually exclusive classification outcomes, which is exactly what the
//! provenance layer's exclusion groups express.

use crate::WorkloadFacts;
use lobster::Value;
use rand::Rng;

/// The HWF evaluation program. Formula positions alternate digit, operator,
/// digit, operator, ... and the formula is evaluated left-to-right.
pub const PROGRAM: &str = "
    type digit(i: u32, v: f64)
    type op(i: u32, o: u32)
    type length(n: u32)
    // Value of the prefix ending at position i (digits sit at even positions).
    rel prefix(i, v) = digit(i, v), i == 0
    rel prefix(j, v) = prefix(i, v1), op(k, o), digit(j, v2), k == i + 1, j == i + 2, o == 0, v == v1 + v2
    rel prefix(j, v) = prefix(i, v1), op(k, o), digit(j, v2), k == i + 1, j == i + 2, o == 1, v == v1 - v2
    rel prefix(j, v) = prefix(i, v1), op(k, o), digit(j, v2), k == i + 1, j == i + 2, o == 2, v == v1 * v2
    rel prefix(j, v) = prefix(i, v1), op(k, o), digit(j, v2), k == i + 1, j == i + 2, o == 3, v == v1 / v2
    rel result(v) = length(n), prefix(i, v), i == n - 1
    query result
";

/// Operator codes used by the program.
pub const OPS: [char; 4] = ['+', '-', '*', '/'];

/// One generated handwritten formula.
#[derive(Debug, Clone)]
pub struct HwfSample {
    /// The true symbols, e.g. `['3', '+', '4', '*', '2']`.
    pub symbols: Vec<char>,
    /// The true value under left-to-right evaluation.
    pub expected: f64,
    /// Per-position classifier distributions: `(position, candidates)` where
    /// each candidate is `(symbol, probability)`.
    pub predictions: Vec<(u32, Vec<(char, f64)>)>,
}

impl HwfSample {
    /// Number of symbol positions in the formula.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// `true` for an empty formula (never generated).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The facts fed to the symbolic program. Candidates at one position
    /// share an exclusion group.
    pub fn facts(&self) -> WorkloadFacts {
        let mut facts = WorkloadFacts::new();
        facts.push("length", vec![Value::U32(self.symbols.len() as u32)], None);
        for (pos, candidates) in &self.predictions {
            for (symbol, prob) in candidates {
                if symbol.is_ascii_digit() {
                    facts.push(
                        "digit",
                        vec![
                            Value::U32(*pos),
                            Value::F64(f64::from(symbol.to_digit(10).unwrap())),
                        ],
                        Some(*prob),
                    );
                } else {
                    let code = OPS.iter().position(|&o| o == *symbol).unwrap() as u32;
                    facts.push("op", vec![Value::U32(*pos), Value::U32(code)], Some(*prob));
                }
            }
        }
        facts
    }
}

/// Evaluates a symbol sequence left-to-right (the task's ground truth).
pub fn evaluate(symbols: &[char]) -> f64 {
    let mut value = f64::from(symbols[0].to_digit(10).unwrap());
    let mut i = 1;
    while i + 1 < symbols.len() {
        let rhs = f64::from(symbols[i + 1].to_digit(10).unwrap());
        value = match symbols[i] {
            '+' => value + rhs,
            '-' => value - rhs,
            '*' => value * rhs,
            '/' => value / rhs,
            other => panic!("unexpected operator {other}"),
        };
        i += 2;
    }
    value
}

/// Generates a formula with `digits` digits (so `2 * digits - 1` symbol
/// positions) and noisy classifier predictions over it.
pub fn generate(digits: usize, rng: &mut impl Rng) -> HwfSample {
    assert!(digits >= 1);
    let mut symbols = Vec::with_capacity(digits * 2 - 1);
    for i in 0..digits {
        if i > 0 {
            symbols.push(OPS[rng.gen_range(0..OPS.len())]);
        }
        // Avoid 0 to keep division well-behaved.
        symbols.push(char::from_digit(rng.gen_range(1..10), 10).unwrap());
    }
    let expected = evaluate(&symbols);
    let predictions = symbols
        .iter()
        .enumerate()
        .map(|(pos, &truth)| {
            let correct = rng.gen_range(0.75..0.95);
            let mut candidates = vec![(truth, correct)];
            // Two confusable alternatives share the rest of the mass.
            let alternatives: Vec<char> = if truth.is_ascii_digit() {
                (1..10u32)
                    .map(|d| char::from_digit(d, 10).unwrap())
                    .filter(|&c| c != truth)
                    .collect()
            } else {
                OPS.iter().copied().filter(|&o| o != truth).collect()
            };
            let mut rest = 1.0 - correct;
            for k in 0..2usize.min(alternatives.len()) {
                let share = if k == 1 {
                    rest
                } else {
                    rest * rng.gen_range(0.4..0.7)
                };
                let alt = alternatives[rng.gen_range(0..alternatives.len())];
                if candidates.iter().all(|(c, _)| *c != alt) {
                    candidates.push((alt, share));
                    rest -= share;
                }
            }
            (pos as u32, candidates)
        })
        .collect();
    HwfSample {
        symbols,
        expected,
        predictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::Lobster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn left_to_right_evaluation() {
        assert_eq!(evaluate(&['3', '+', '4', '*', '2']), 14.0);
        assert_eq!(evaluate(&['8', '/', '2', '-', '1']), 3.0);
        assert_eq!(evaluate(&['7']), 7.0);
    }

    #[test]
    fn generator_produces_valid_formulas() {
        let mut rng = StdRng::seed_from_u64(5);
        let sample = generate(5, &mut rng);
        assert_eq!(sample.len(), 9);
        assert!(!sample.is_empty());
        assert_eq!(sample.predictions.len(), 9);
        assert!(sample.facts().len() > 9);
    }

    #[test]
    fn symbolic_evaluation_recovers_the_expected_value() {
        let mut rng = StdRng::seed_from_u64(6);
        let sample = generate(3, &mut rng);
        let program = Lobster::builder(PROGRAM)
            .provenance(lobster::ProvenanceKind::DiffTop1Proof)
            .compile()
            .unwrap();
        let mut session = program.session();
        sample.facts().add_to_session(&mut session).unwrap();
        let result = session.run().unwrap();
        // The most likely result value should be the ground-truth value.
        let best = result
            .relation("result")
            .iter()
            .max_by(|a, b| a.1.probability.total_cmp(&b.1.probability))
            .map(|(t, _)| t[0].as_f64())
            .unwrap();
        assert!(
            (best - sample.expected).abs() < 1e-9,
            "expected {}, symbolic best {best}",
            sample.expected
        );
    }
}
