//! Probabilistic Static Analysis (PSA): a dataflow/taint analysis whose
//! inputs carry confidence scores, used to rank alarms and suppress false
//! positives (paper Section 6.1, Figure 11).
//!
//! The analysis facts for each subject program (named after DaCapo-style
//! benchmarks) are generated synthetically: a call graph, intraprocedural
//! dataflow edges, taint sources, sinks, and sanitizers, each with a
//! confidence reflecting how certain the fact extractor is.

use crate::WorkloadFacts;
use lobster::Value;
use rand::Rng;

/// The probabilistic static analysis program (uses the `minmaxprob`
/// provenance: an alarm's severity is the strength of its weakest link along
/// its strongest derivation).
pub const PROGRAM: &str = "
    type flow_edge(x: u32, y: u32)
    type call_edge(x: u32, y: u32)
    type ret_edge(x: u32, y: u32)
    type source(x: u32)
    type sink(x: u32)
    type sanitizer(x: u32)
    // Intra- and inter-procedural flow.
    rel step(x, y) = flow_edge(x, y)
    rel step(x, y) = call_edge(x, y)
    rel step(x, y) = ret_edge(x, y)
    rel flow(x, y) = step(x, y)
    rel flow(x, z) = flow(x, y), step(y, z)
    // Tainted nodes and alarms.
    rel tainted(x) = source(x)
    rel tainted(y) = tainted(x), step(x, y)
    rel sanitized(y) = sanitizer(x), flow(x, y)
    rel alarm(s, t) = source(s), sink(t), flow(s, t)
    rel reaches_sink(s) = alarm(s, t)
    query alarm
    query tainted
";

/// The subject programs used by Figure 11, with synthetic-graph sizes scaled
/// so the whole figure regenerates in minutes. Relative sizes follow the
/// originals (sunflow-core is the smallest, graphchi/jme3 the largest).
pub const FIG11_PROGRAMS: [(&str, u32, u32); 7] = [
    ("sunflow-core", 250, 3),
    ("sunflow", 500, 3),
    ("biojava", 700, 4),
    ("graphchi", 900, 4),
    ("avrora", 800, 3),
    ("pmd", 600, 4),
    ("jme3", 1000, 4),
];

/// One generated analysis fact base.
#[derive(Debug, Clone)]
pub struct PsaSample {
    /// Subject program name.
    pub name: String,
    /// Number of program points.
    pub nodes: u32,
    /// Generated facts.
    pub facts: WorkloadFacts,
}

/// Generates the analysis input for a subject program with `nodes` program
/// points and average out-degree `degree`.
pub fn generate(name: &str, nodes: u32, degree: u32, rng: &mut impl Rng) -> PsaSample {
    let mut facts = WorkloadFacts::new();
    // Dataflow edges: mostly local (forward) with a few long jumps.
    for v in 0..nodes {
        for _ in 0..degree {
            let span = if rng.gen_bool(0.8) {
                rng.gen_range(1..8)
            } else {
                rng.gen_range(8..64)
            };
            let t = (v + span).min(nodes - 1);
            if t != v {
                let confidence = rng.gen_range(0.55..0.99);
                facts.push(
                    "flow_edge",
                    vec![Value::U32(v), Value::U32(t)],
                    Some(confidence),
                );
            }
        }
    }
    // Call / return edges between "procedprevious" regions.
    let procedures = (nodes / 40).max(2);
    for _ in 0..procedures * 3 {
        let caller = rng.gen_range(0..nodes);
        let callee = rng.gen_range(0..nodes);
        if caller != callee {
            facts.push(
                "call_edge",
                vec![Value::U32(caller), Value::U32(callee)],
                Some(rng.gen_range(0.7..0.99)),
            );
            facts.push(
                "ret_edge",
                vec![
                    Value::U32(callee),
                    Value::U32(caller.saturating_add(1).min(nodes - 1)),
                ],
                Some(rng.gen_range(0.7..0.99)),
            );
        }
    }
    // Sources, sinks, and sanitizers.
    for _ in 0..(nodes / 30).max(2) {
        facts.push(
            "source",
            vec![Value::U32(rng.gen_range(0..nodes / 2))],
            Some(rng.gen_range(0.6..0.95)),
        );
        facts.push(
            "sink",
            vec![Value::U32(rng.gen_range(nodes / 2..nodes))],
            Some(rng.gen_range(0.6..0.95)),
        );
    }
    for _ in 0..(nodes / 60).max(1) {
        facts.push(
            "sanitizer",
            vec![Value::U32(rng.gen_range(0..nodes))],
            Some(rng.gen_range(0.5..0.9)),
        );
    }
    PsaSample {
        name: name.to_string(),
        nodes,
        facts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::Lobster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn program_compiles_and_runs_on_a_small_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let sample = generate("sunflow-core", 120, 3, &mut rng);
        assert!(sample.facts.len() > 100);
        let program = Lobster::builder(PROGRAM)
            .provenance(lobster::ProvenanceKind::MaxMinProb)
            .compile()
            .unwrap();
        let mut session = program.session();
        sample.facts.add_to_session(&mut session).unwrap();
        let result = session.run().unwrap();
        // Alarms exist and their severities are valid probabilities.
        assert!(!result.relation("alarm").is_empty());
        assert!(result
            .relation("alarm")
            .iter()
            .all(|(_, o)| o.probability > 0.0 && o.probability <= 1.0));
    }

    #[test]
    fn alarm_severity_is_bounded_by_the_weakest_link() {
        let program = Lobster::builder(PROGRAM)
            .provenance(lobster::ProvenanceKind::MaxMinProb)
            .compile()
            .unwrap();
        let mut session = program.session();
        session
            .add_fact("source", &[Value::U32(0)], Some(0.9))
            .unwrap();
        session
            .add_fact("flow_edge", &[Value::U32(0), Value::U32(1)], Some(0.3))
            .unwrap();
        session
            .add_fact("sink", &[Value::U32(1)], Some(0.8))
            .unwrap();
        let result = session.run().unwrap();
        let severity = result.probability("alarm", &[Value::U32(0), Value::U32(1)]);
        assert!((severity - 0.3).abs() < 1e-9);
    }

    #[test]
    fn fig11_program_list_is_complete() {
        assert_eq!(FIG11_PROGRAMS.len(), 7);
        assert!(FIG11_PROGRAMS
            .iter()
            .all(|(_, nodes, degree)| *nodes > 0 && *degree > 0));
    }
}
