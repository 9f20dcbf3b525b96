//! PacMan-Maze example: plan the next safe action from noisy per-cell safety
//! predictions and compare against the ground-truth optimal moves.
//!
//! Run with `cargo run -p lobster-workloads --example pacman_planning`.

use lobster::Lobster;
use lobster_workloads::pacman;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ACTION_NAMES: [&str; 5] = ["right", "left", "down", "up", "stay"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(5);
    let sample = pacman::generate(8, &mut rng);
    println!(
        "maze {}x{}, actor at {:?}, goal at {:?}",
        sample.grid_size, sample.grid_size, sample.actor, sample.goal
    );

    let program = Lobster::builder(pacman::PROGRAM)
        .provenance(lobster::ProvenanceKind::DiffTop1Proof)
        .compile()?;
    let mut session = program.session();
    sample.facts().add_to_session(&mut session)?;
    let result = session.run()?;

    println!(
        "P(maze solvable) = {:.4}",
        result.probability("solvable", &[])
    );
    let mut actions: Vec<(f64, u32)> = result
        .relation("action")
        .iter()
        .map(|(t, o)| (o.probability, t[0].as_u32().unwrap_or(0)))
        .collect();
    actions.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("planned actions (by probability):");
    for (p, action) in &actions {
        println!("  [{p:.3}] {}", ACTION_NAMES[*action as usize]);
    }
    let optimal: Vec<&str> = sample
        .optimal_actions
        .iter()
        .map(|&a| ACTION_NAMES[a as usize])
        .collect();
    println!("ground-truth optimal first moves: {optimal:?}");
    println!(
        "symbolic execution: {} iterations, {} kernel launches, {:?}",
        result.stats.iterations, result.stats.kernel_launches, result.stats.elapsed
    );
    Ok(())
}
