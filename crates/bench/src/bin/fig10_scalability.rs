//! Figure 10: scalability of Lobster vs Scallop on Pacman (10a) and
//! Pathfinder (10b) as the grid size grows, with the optimization ablation
//! ("None", "Static", "Alloc", "Both": static registers and buffer reuse,
//! each off and on).
//!
//! Run with `cargo run -p lobster-bench --release --bin fig10_scalability`
//! (optionally pass `pacman` or `pathfinder` to run one sub-figure).

use lobster::{Lobster, Program, ProvenanceKind, RuntimeOptions};
use lobster_bench::{print_header, quick_mode, run_lobster, run_scallop, scaled, scallop_facts};
use lobster_provenance::{DiffTop1Proof, InputFactRegistry};
use lobster_workloads::{pacman, pathfinder, WorkloadFacts};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four cells of the ablation: (label, runtime options).
fn configurations() -> [(&'static str, RuntimeOptions); 4] {
    [
        ("None", RuntimeOptions::unoptimized()),
        (
            "Static",
            RuntimeOptions::unoptimized().with_static_registers(true),
        ),
        (
            "Alloc",
            RuntimeOptions::unoptimized().with_buffer_reuse(true),
        ),
        ("Both", RuntimeOptions::optimized()),
    ]
}

fn run_sweep(
    task: &str,
    sizes: &[u32],
    facts_of: impl Fn(u32, &mut StdRng) -> WorkloadFacts,
    program: &str,
) {
    println!(
        "\n--- {task}: symbolic-only runtime, speedup over Scallop per optimization level ---"
    );
    println!(
        "{:<6} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "size", "scallop (s)", "None", "Static", "Alloc", "Both"
    );
    let mut rng = StdRng::seed_from_u64(10);
    // One compiled program per ablation configuration, reused across sizes.
    let programs: Vec<Program> = configurations()
        .into_iter()
        .map(|(_, options)| {
            Lobster::builder(program)
                .options(options)
                .provenance(ProvenanceKind::DiffTop1Proof)
                .compile()
                .expect("program compiles")
        })
        .collect();
    for &size in sizes {
        let facts = facts_of(size, &mut rng);
        let registry = InputFactRegistry::new();
        let prov = DiffTop1Proof::new(registry);
        let scallop = run_scallop(program, prov.clone(), &scallop_facts(&prov, &facts), None);
        let mut row = format!("{:<6} {:>12}", size, scallop.cell());
        for compiled in &programs {
            let (outcome, _) = run_lobster(compiled, &facts);
            let speedup = match (scallop.seconds(), outcome.seconds()) {
                (Some(b), Some(s)) => format!("{:.2}x", b / s.max(1e-9)),
                _ => outcome.cell(),
            };
            row.push_str(&format!(" {speedup:>10}"));
        }
        println!("{row}");
    }
}

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "both".to_string());
    print_header(
        "Figure 10 — scalability and optimization ablation",
        "paper: speedup grows with problem size and collapses toward 1x without the Static/Alloc optimizations",
    );
    let sizes: Vec<u32> = if quick_mode() {
        vec![5, 8]
    } else {
        vec![5, 10, 15, 20, 25]
    };
    if which == "both" || which == "pacman" {
        run_sweep(
            "Pacman (Fig. 10a)",
            &sizes[..sizes.len().min(scaled(5, 2))],
            |size, rng| pacman::generate(size, rng).facts(),
            pacman::PROGRAM,
        );
    }
    if which == "both" || which == "pathfinder" {
        run_sweep(
            "Pathfinder (Fig. 10b)",
            &sizes,
            |size, rng| pathfinder::generate(size, true, rng).facts(),
            pathfinder::PROGRAM,
        );
    }
}
