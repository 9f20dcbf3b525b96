//! Pathfinder end-to-end example: generate a synthetic "image" (a lattice
//! graph with a hidden dashed path), run the differentiable symbolic program,
//! and inspect the prediction and its gradients.
//!
//! Run with `cargo run -p lobster-workloads --example pathfinder`.

use lobster::Lobster;
use lobster_workloads::pathfinder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2026);
    for (label, positive) in [("positive", true), ("negative", false)] {
        let sample = pathfinder::generate(8, positive, &mut rng);
        let program = Lobster::builder(pathfinder::PROGRAM)
            .provenance(lobster::ProvenanceKind::DiffTop1Proof)
            .compile()?;
        let mut session = program.session();
        sample.facts().add_to_session(&mut session)?;
        let result = session.run()?;
        let p = result.probability("endpoints_connected", &[]);
        println!(
            "{label} sample: grid {}x{}, {} predicted edges, P(connected) = {p:.4} (truth: {})",
            sample.grid_size,
            sample.grid_size,
            sample.edges.len(),
            sample.label,
        );
        let grads = result.gradient("endpoints_connected", &[]);
        println!(
            "  gradient flows to {} input facts (the edges on the most likely path)",
            grads.len()
        );
        println!(
            "  symbolic work: {} fix-point iterations, {} kernels",
            result.stats.iterations, result.stats.kernel_launches
        );
    }
    Ok(())
}
