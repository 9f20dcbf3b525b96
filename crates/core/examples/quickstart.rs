//! Quickstart: compile a Datalog program once, open a session per request,
//! and read back probabilities and gradients. The reasoning mode comes from
//! configuration, as a server would read it.
//!
//! Run with `cargo run -p lobster --example quickstart`, or pick another
//! semiring: `LOBSTER_PROVENANCE=addmultprob cargo run -p lobster --example
//! quickstart`.
//!
//! Serving this at scale is the `lobster-serve` crate: a compiled-program
//! cache plus a batching scheduler on a persistent runtime (long-lived
//! shard workers, recycled sessions — nothing is rebuilt per batch). See
//! `docs/ARCHITECTURE.md` for the request lifecycle and knobs, and the
//! `serve` example in `lobster-serve` for the runnable version.

use lobster::{Lobster, ProvenanceKind, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The symbolic program: graph reachability (the paper's running
    //    example). Facts for `edge` will come from "a neural network" — here
    //    we just make them up.
    let source = "
        type edge(x: u32, y: u32)
        type is_endpoint(x: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        rel endpoints_connected() = is_endpoint(x), is_endpoint(y), path(x, y), x != y
        query path
        query endpoints_connected
    ";

    // 2. Compile ONCE. The reasoning mode is the provenance semiring, picked
    //    from the library by name — here from the environment, the way a
    //    server reads it from its configuration instead of baking it into
    //    the binary. The default, `diff-top-1-proofs`, is the differentiable
    //    provenance used by the paper's training benchmarks. The resulting
    //    `Program` is immutable and Arc-shared: clone it freely across
    //    threads and requests.
    let kind: ProvenanceKind = match std::env::var("LOBSTER_PROVENANCE") {
        Ok(name) => name.parse()?,
        Err(_) => ProvenanceKind::DiffTop1Proof,
    };
    let program = Lobster::builder(source).provenance(kind).compile()?;

    // 3. Open a cheap per-request session and add probabilistic input facts
    //    (these would be network outputs).
    let mut session = program.session();
    let chain = [(0u32, 1u32, 0.95), (1, 2, 0.9), (2, 3, 0.8)];
    for (a, b, p) in chain {
        session.add_fact("edge", &[Value::U32(a), Value::U32(b)], Some(p))?;
    }
    session.add_fact("is_endpoint", &[Value::U32(0)], None)?;
    session.add_fact("is_endpoint", &[Value::U32(3)], None)?;

    // 4. Run the program on the (simulated) GPU.
    let result = session.run()?;

    println!("[{kind}] derived {} path facts", result.len("path"));
    let connected = result.probability("endpoints_connected", &[]);
    println!("P(endpoints connected) = {connected:.4}");

    // 5. Gradients with respect to every input fact let an upstream network
    //    train end-to-end (empty unless the semiring is differentiable).
    for (fact, grad) in result.gradient("endpoints_connected", &[]) {
        println!("  d P / d Pr({fact}) = {grad:.4}");
    }

    println!(
        "symbolic execution: {} iterations, {} kernel launches, {:?}",
        result.stats.iterations, result.stats.kernel_launches, result.stats.elapsed
    );
    Ok(())
}
