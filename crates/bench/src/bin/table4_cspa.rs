//! Table 4: runtime of Lobster versus FVLog on the Context-Sensitive Pointer
//! Analysis (httpd, linux, postgres).
//!
//! Run with `cargo run -p lobster-bench --release --bin table4_cspa`.

use lobster::{Device, Lobster, ProvenanceKind};
use lobster_baselines::FvlogEngine;
use lobster_bench::{print_header, quick_mode, run_lobster, time_it, Outcome};
use lobster_workloads::cspa;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    print_header(
        "Table 4 — CSPA runtime (seconds)",
        "paper: Lobster and FVLog are approximately matched (geomean 1.27x in Lobster's favour)",
    );
    let mut rng = StdRng::seed_from_u64(4);
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>10}",
        "dataset", "facts", "lobster (s)", "fvlog (s)", "ratio"
    );
    let mut ratios = Vec::new();
    let program = Lobster::builder(cspa::PROGRAM)
        .provenance(ProvenanceKind::Unit)
        .compile()
        .expect("program compiles");
    for (name, vars, degree) in cspa::TABLE4_PROGRAMS {
        let vars = if quick_mode() { vars / 4 } else { vars };
        let sample = cspa::generate(name, vars.max(40), degree, &mut rng);
        let (lobster, _) = run_lobster(&program, &sample.facts);
        let ram = lobster_datalog::parse(cspa::PROGRAM).expect("compiles").ram;
        let fvlog_engine = FvlogEngine::new(Device::default());
        let discrete = sample.facts.encoded_discrete();
        let (fvlog_result, fvlog_time) = time_it(|| fvlog_engine.run(&ram, &discrete));
        let fvlog = match fvlog_result {
            Ok(_) => Outcome::Ok(fvlog_time),
            Err(_) => Outcome::Oom,
        };
        let ratio = match (fvlog.seconds(), lobster.seconds()) {
            (Some(f), Some(l)) => {
                ratios.push(f / l.max(1e-9));
                format!("{:.2}x", f / l.max(1e-9))
            }
            _ => "-".to_string(),
        };
        println!(
            "{:<12} {:>8} {:>12} {:>12} {:>10}",
            sample.name,
            sample.facts.len(),
            lobster.cell(),
            fvlog.cell(),
            ratio
        );
    }
    if !ratios.is_empty() {
        let geomean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        println!(
            "geometric-mean speedup of Lobster over FVLog: {:.2}x (paper: 1.27x)",
            geomean.exp()
        );
    }
}
