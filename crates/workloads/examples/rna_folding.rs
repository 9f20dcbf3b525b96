//! RNA secondary structure example: fold a synthetic RNA sequence with the
//! probabilistic CFG program and report the most likely folded spans.
//!
//! Run with `cargo run -p lobster-workloads --example rna_folding`.

use lobster::Lobster;
use lobster_workloads::rna;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(11);
    let sample = rna::generate(60, &mut rng);
    let sequence: String = sample.sequence.iter().collect();
    println!("sequence ({} nt): {sequence}", sample.len());
    println!(
        "{} candidate base pairs from the pairing model",
        sample.pairings.len()
    );

    let program = Lobster::builder(rna::PROGRAM)
        .provenance(lobster::ProvenanceKind::Top1Proof)
        .compile()?;
    let mut session = program.session();
    sample.facts().add_to_session(&mut session)?;
    let result = session.run()?;

    let mut spans: Vec<(f64, u32, u32)> = result
        .relation("fold")
        .iter()
        .map(|(t, o)| {
            (
                o.probability,
                t[0].as_u32().unwrap_or(0),
                t[1].as_u32().unwrap_or(0),
            )
        })
        .collect();
    spans.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("{} folded spans; the 8 most likely:", spans.len());
    for (p, i, j) in spans.iter().take(8) {
        println!("  [{p:.3}] ({i}, {j}) width {}", j - i + 1);
    }
    println!(
        "P(whole sequence folds) = {:.4}",
        result.probability("folded", &[])
    );
    println!(
        "symbolic execution: {} iterations, {} kernel launches, {:?}",
        result.stats.iterations, result.stats.kernel_launches, result.stats.elapsed
    );
    Ok(())
}
