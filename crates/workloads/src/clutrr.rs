//! The CLUTRR task: infer an unstated kinship relation from a natural
//! language passage by composing the relations that are stated.
//!
//! A relation extractor reads the passage and produces probabilistic
//! `kinship(r, a, b)` facts; the symbolic program composes them with a small
//! kinship knowledge base until the relation between the two query entities
//! is derived. The hardest problems in the paper's dataset require chains of
//! length 10.

use crate::WorkloadFacts;
use lobster::Value;
use rand::Rng;

/// The CLUTRR reasoning program (3 rules).
pub const PROGRAM: &str = "
    type kinship(r: u32, a: u32, b: u32)
    type composition(r1: u32, r2: u32, r3: u32)
    rel derived(r, a, b) = kinship(r, a, b)
    rel derived(r3, a, c) = derived(r1, a, b), kinship(r2, b, c), composition(r1, r2, r3)
    rel answer(r) = target(a, b), derived(r, a, b)
    type target(a: u32, b: u32)
    query answer
";

/// Kinship relation codes.
pub mod relations {
    /// `mother`
    pub const MOTHER: u32 = 0;
    /// `father`
    pub const FATHER: u32 = 1;
    /// `daughter`
    pub const DAUGHTER: u32 = 2;
    /// `son`
    pub const SON: u32 = 3;
    /// `grandmother`
    pub const GRANDMOTHER: u32 = 4;
    /// `grandfather`
    pub const GRANDFATHER: u32 = 5;
    /// `sister`
    pub const SISTER: u32 = 6;
    /// `brother`
    pub const BROTHER: u32 = 7;
    /// Number of relation codes.
    pub const COUNT: u32 = 8;
}

/// The kinship composition knowledge base `(r1, r2, r3)`: if `a` is `r1` of
/// `b` and `b` is `r2` of `c`, then `a` is `r3` of `c`.
pub fn composition_table() -> Vec<(u32, u32, u32)> {
    use relations::*;
    vec![
        (MOTHER, MOTHER, GRANDMOTHER),
        (MOTHER, FATHER, GRANDMOTHER),
        (FATHER, MOTHER, GRANDFATHER),
        (FATHER, FATHER, GRANDFATHER),
        (SISTER, MOTHER, MOTHER),
        (SISTER, FATHER, FATHER),
        (BROTHER, MOTHER, MOTHER),
        (BROTHER, FATHER, FATHER),
        (DAUGHTER, DAUGHTER, DAUGHTER),
        (SON, SON, SON),
        (DAUGHTER, SISTER, DAUGHTER),
        (SON, BROTHER, SON),
        (SISTER, SISTER, SISTER),
        (BROTHER, BROTHER, BROTHER),
        (SISTER, BROTHER, BROTHER),
        (BROTHER, SISTER, SISTER),
        (MOTHER, DAUGHTER, SISTER),
        (FATHER, SON, BROTHER),
    ]
}

/// One generated CLUTRR sample.
#[derive(Debug, Clone)]
pub struct ClutrrSample {
    /// Stated kinship facts along the chain: `(relation, a, b, probability)`.
    pub stated: Vec<(u32, u32, u32, f64)>,
    /// The query pair.
    pub target: (u32, u32),
    /// The ground-truth answer relation, when derivable from the chain.
    pub answer: Option<u32>,
    /// Chain length.
    pub chain_length: usize,
}

impl ClutrrSample {
    /// The facts fed to the symbolic program.
    pub fn facts(&self) -> WorkloadFacts {
        let mut facts = WorkloadFacts::new();
        for &(r, a, b, p) in &self.stated {
            facts.push(
                "kinship",
                vec![Value::U32(r), Value::U32(a), Value::U32(b)],
                Some(p),
            );
        }
        for (r1, r2, r3) in composition_table() {
            facts.push(
                "composition",
                vec![Value::U32(r1), Value::U32(r2), Value::U32(r3)],
                None,
            );
        }
        facts.push(
            "target",
            vec![Value::U32(self.target.0), Value::U32(self.target.1)],
            None,
        );
        facts
    }
}

/// Generates a kinship chain of the given length. Each link is stated with
/// high probability along with a lower-probability distractor relation.
pub fn generate(chain_length: usize, rng: &mut impl Rng) -> ClutrrSample {
    assert!(chain_length >= 1);
    let table = composition_table();
    let mut stated = Vec::new();
    // Person 0 .. chain_length form a chain; derive the composed relation
    // between person 0 and the last person when the table allows it.
    // `relation_so_far` is the composed relation between person 0 and the
    // current chain end. Some compositions dead-end (e.g. nothing composes
    // after `grandmother`); from then on the chain has no derivable answer
    // and `relation_so_far` must stay `None` — re-seeding it from a later
    // link would claim a whole-chain answer that only covers that link.
    let mut relation_so_far: Option<u32> = None;
    for link in 0..chain_length {
        let (a, b) = (link as u32, link as u32 + 1);
        let r = match (link, relation_so_far) {
            (0, _) => {
                let r = rng.gen_range(0..relations::COUNT);
                relation_so_far = Some(r);
                r
            }
            (_, None) => rng.gen_range(0..relations::COUNT),
            (_, Some(prev)) => {
                // Prefer a link that composes with what we have so far.
                let candidates: Vec<u32> = table
                    .iter()
                    .filter(|(r1, _, _)| *r1 == prev)
                    .map(|(_, r2, _)| *r2)
                    .collect();
                let r = if candidates.is_empty() {
                    rng.gen_range(0..relations::COUNT)
                } else {
                    candidates[rng.gen_range(0..candidates.len())]
                };
                relation_so_far = table
                    .iter()
                    .find(|(r1, r2, _)| *r1 == prev && *r2 == r)
                    .map(|(_, _, r3)| *r3);
                r
            }
        };
        stated.push((r, a, b, rng.gen_range(0.85..0.98)));
        // A distractor extraction for the same pair.
        let distractor = (r + 1 + rng.gen_range(0..relations::COUNT - 1)) % relations::COUNT;
        stated.push((distractor, a, b, rng.gen_range(0.02..0.2)));
    }
    let answer = if chain_length == 1 {
        Some(stated[0].0)
    } else {
        relation_so_far
    };
    ClutrrSample {
        stated,
        target: (0, chain_length as u32),
        answer,
        chain_length,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::Lobster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn program_compiles() {
        lobster_datalog::parse(PROGRAM).unwrap();
    }

    #[test]
    fn composition_table_is_consistent() {
        let table = composition_table();
        assert!(table.len() >= 15);
        assert!(table.iter().all(|&(a, b, c)| a < relations::COUNT
            && b < relations::COUNT
            && c < relations::COUNT));
    }

    #[test]
    fn short_chains_derive_the_expected_answer() {
        let mut rng = StdRng::seed_from_u64(9);
        for length in [2usize, 3, 4] {
            let sample = generate(length, &mut rng);
            let Some(answer) = sample.answer else {
                continue;
            };
            let program = Lobster::builder(PROGRAM)
                .provenance(lobster::ProvenanceKind::DiffTop1Proof)
                .compile()
                .unwrap();
            let mut session = program.session();
            sample.facts().add_to_session(&mut session).unwrap();
            let result = session.run().unwrap();
            let best = result
                .relation("answer")
                .iter()
                .max_by(|a, b| a.1.probability.total_cmp(&b.1.probability))
                .map(|(t, _)| t[0].as_u32().unwrap());
            assert_eq!(best, Some(answer), "chain length {length}");
        }
    }
}
