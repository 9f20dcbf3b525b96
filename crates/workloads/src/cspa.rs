//! Context-Sensitive Pointer Analysis (CSPA), the discrete benchmark of the
//! paper's Table 4, mirroring the Datalog program and input style of GDLog.
//!
//! The analysis derives value flows, value aliases, and memory aliases from
//! `assign` and `dereference` facts extracted from a program. The three named
//! inputs (httpd, linux, postgres) are generated synthetically at scaled-down
//! sizes with the characteristic structure of assignment graphs: long def-use
//! chains plus pointer loads/stores.

use crate::WorkloadFacts;
use lobster::Value;
use rand::Rng;

/// The CSPA program (10 rules, as in Table 2 of the paper).
pub const PROGRAM: &str = "
    type assign(dst: u32, src: u32)
    type dereference(p: u32, v: u32)
    rel value_flow(x, y) = assign(y, x)
    rel value_flow(x, y) = assign(x, z), memory_alias(z, y)
    rel value_flow(x, y) = value_flow(x, z), value_flow(z, y)
    rel memory_alias(x, w) = dereference(y, x), value_alias(y, z), dereference(z, w)
    rel value_alias(x, y) = value_flow(z, x), value_flow(z, y)
    rel value_alias(x, y) = value_flow(z, x), memory_alias(z, w), value_flow(w, y)
    rel value_flow(x, x) = assign(x, y)
    rel value_flow(x, x) = assign(y, x)
    rel memory_alias(x, x) = assign(y, x)
    rel memory_alias(x, x) = assign(x, y)
    query value_flow
    query value_alias
    query memory_alias
";

/// The subject programs of Table 4 with their scaled-down synthetic sizes.
pub const TABLE4_PROGRAMS: [(&str, u32, u32); 3] =
    [("httpd", 300, 2), ("linux", 500, 2), ("postgres", 400, 2)];

/// One generated CSPA input.
#[derive(Debug, Clone)]
pub struct CspaSample {
    /// Subject program name.
    pub name: String,
    /// Generated facts.
    pub facts: WorkloadFacts,
}

/// Generates an assignment / dereference graph with `vars` variables and the
/// given average assignment out-degree.
pub fn generate(name: &str, vars: u32, degree: u32, rng: &mut impl Rng) -> CspaSample {
    let mut facts = WorkloadFacts::new();
    // Def-use chains: assignments mostly flow forward within a "function".
    for v in 0..vars {
        for _ in 0..degree {
            let span = rng.gen_range(1..12);
            let src = (v + span).min(vars - 1);
            if src != v {
                facts.push("assign", vec![Value::U32(v), Value::U32(src)], None);
            }
        }
    }
    // Pointer loads/stores: a subset of variables act as pointers.
    for _ in 0..(vars / 4) {
        let p = rng.gen_range(0..vars);
        let v = rng.gen_range(0..vars);
        if p != v {
            facts.push("dereference", vec![Value::U32(p), Value::U32(v)], None);
        }
    }
    CspaSample {
        name: name.to_string(),
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
    fn program_has_ten_rules() {
        let compiled = lobster_datalog::parse(PROGRAM).unwrap();
        let rules: usize = compiled.ram.strata.iter().map(|s| s.rules.len()).sum();
        assert_eq!(rules, 10);
    }

    #[test]
    fn analysis_runs_on_a_small_input() {
        let mut rng = StdRng::seed_from_u64(8);
        let sample = generate("httpd", 60, 2, &mut rng);
        let program = Lobster::builder(PROGRAM)
            .provenance(lobster::ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let mut session = program.session();
        sample.facts.add_to_session(&mut session).unwrap();
        let result = session.run().unwrap();
        assert!(!result.relation("value_flow").is_empty());
        // Reflexive value flows exist for every assigned variable.
        assert!(result.len("value_flow") >= 60);
    }

    #[test]
    fn value_alias_is_symmetric() {
        let program = Lobster::builder(PROGRAM)
            .provenance(lobster::ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let mut session = program.session();
        session
            .add_fact("assign", &[Value::U32(1), Value::U32(0)], None)
            .unwrap();
        session
            .add_fact("assign", &[Value::U32(2), Value::U32(0)], None)
            .unwrap();
        let result = session.run().unwrap();
        assert!(result.contains("value_alias", &[Value::U32(1), Value::U32(2)]));
        assert!(result.contains("value_alias", &[Value::U32(2), Value::U32(1)]));
    }
}
