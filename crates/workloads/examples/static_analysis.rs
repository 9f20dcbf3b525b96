//! Probabilistic static analysis example: rank taint-analysis alarms by
//! severity using the `minmaxprob` provenance.
//!
//! Run with `cargo run -p lobster-workloads --example static_analysis`.

use lobster::Lobster;
use lobster_workloads::psa;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let sample = psa::generate("sunflow-core", 250, 3, &mut rng);
    println!(
        "analyzing `{}`: {} extracted facts",
        sample.name,
        sample.facts.len()
    );

    let program = Lobster::builder(psa::PROGRAM)
        .provenance(lobster::ProvenanceKind::MaxMinProb)
        .compile()?;
    let mut session = program.session();
    sample.facts.add_to_session(&mut session)?;
    let result = session.run()?;

    let mut alarms: Vec<(f64, String)> = result
        .relation("alarm")
        .iter()
        .map(|(tuple, out)| {
            (
                out.probability,
                format!("source {} -> sink {}", tuple[0], tuple[1]),
            )
        })
        .collect();
    alarms.sort_by(|a, b| b.0.total_cmp(&a.0));

    println!("{} alarms, top 10 by severity:", alarms.len());
    for (severity, alarm) in alarms.iter().take(10) {
        println!("  [{severity:.3}] {alarm}");
    }
    println!(
        "symbolic execution: {} iterations, {} kernel launches, {:?}",
        result.stats.iterations, result.stats.kernel_launches, result.stats.elapsed
    );
    Ok(())
}
