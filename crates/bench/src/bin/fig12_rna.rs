//! Figure 12: Lobster's speedup over Scallop on RNA Secondary Structure
//! Prediction as a function of sequence length (28–175 nt in the ArchiveII
//! dataset; the paper reports speedups growing with length, up to two orders
//! of magnitude, with a slowdown on the very shortest sequence).
//!
//! Run with `cargo run -p lobster-bench --release --bin fig12_rna`.

use lobster::{Lobster, ProvenanceKind};
use lobster_bench::{print_header, quick_mode, run_lobster, run_scallop, scallop_facts};
use lobster_provenance::{InputFactRegistry, Top1Proof};
use lobster_workloads::rna;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    print_header(
        "Figure 12 — RNA SSP, speedup over Scallop vs sequence length",
        "paper: 0.6x on the shortest sequence (28 nt), rising to >100x on long sequences",
    );
    let lengths: Vec<usize> = if quick_mode() {
        vec![28, 60]
    } else {
        vec![28, 40, 60, 80, 100, 120, 140, 160, 175]
    };
    let mut rng = StdRng::seed_from_u64(12);
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "length", "pairs", "scallop (s)", "lobster (s)", "speedup"
    );
    let program = Lobster::builder(rna::PROGRAM)
        .provenance(ProvenanceKind::Top1Proof)
        .compile()
        .expect("program compiles");
    for &length in &lengths {
        let sample = rna::generate(length, &mut rng);
        let (lobster, _) = run_lobster(&program, &sample.facts());
        let registry = InputFactRegistry::new();
        let prov = Top1Proof::new(registry);
        let scallop = run_scallop(
            rna::PROGRAM,
            prov.clone(),
            &scallop_facts(&prov, &sample.facts()),
            None,
        );
        let speedup = match (scallop.seconds(), lobster.seconds()) {
            (Some(b), Some(s)) => format!("{:.2}x", b / s.max(1e-9)),
            _ => "-".to_string(),
        };
        println!(
            "{:<8} {:>10} {:>12} {:>12} {:>10}",
            length,
            sample.pairings.len(),
            scallop.cell(),
            lobster.cell(),
            speedup
        );
    }
}
