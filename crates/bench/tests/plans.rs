//! The golden plans: `Program::explain` of the nine Table 2 programs, each
//! under a `== name` header, pinned in `tests/plans.txt`, so a compiler,
//! planner or storage change that moves a plan moves a line here whether
//! or not it moves a digest or a counter of the ledger. A change that means
//! to move one lists the lines and why, and rewrites the file by hand:
//!
//! ```text
//! cargo test -p lobster-bench --test plans -- --ignored rewrite_plans
//! ```

mod golden;

use lobster::Program;
use lobster_workloads::suite::table2;

const PLANS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/plans.txt");

/// The plans of every Table 2 program, as one text.
fn render() -> String {
    let mut text = String::from(
        "# The golden plans of crates/bench/tests/plans.rs: regenerate them with\n\
         # `cargo test -p lobster-bench --test plans -- --ignored rewrite_plans`.\n",
    );
    for info in table2() {
        let program = Program::compile(info.program, info.provenance)
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        text += &format!("== {}\n{}", info.name, program.explain());
    }
    text
}

#[test]
fn plans_match_the_committed_file() {
    golden::assert_golden(PLANS, &render(), &render(), "rewrite_plans");
}

/// Rewrites `tests/plans.txt` from the current code. Run by hand, only for
/// a change that means to move a plan.
#[test]
#[ignore]
fn rewrite_plans() {
    golden::rewrite(PLANS, &render());
}
