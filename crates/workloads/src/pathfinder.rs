//! The Pathfinder task (paper Section 2): decide whether two dots in an image
//! are connected by a sequence of dashes.
//!
//! The neural model overlays an `n × n` lattice on the image and predicts,
//! for each lattice edge, the probability that a dash connects the two cells,
//! plus the probability that each cell contains a dot. The symbolic program
//! computes reachability over the predicted graph. The generator below
//! produces the same structure directly: a hidden ground-truth dashed path,
//! confident probabilities along it, and low-probability clutter elsewhere.

use crate::WorkloadFacts;
use lobster::Value;
use rand::Rng;

/// The Pathfinder Datalog program (Figure 3c of the paper).
pub const PROGRAM: &str = "
    type Cell = u32
    type edge(x: Cell, y: Cell)
    type is_endpoint(x: Cell)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    rel endpoints_connected() = is_endpoint(x), is_endpoint(y), path(x, y), x != y
    query endpoints_connected
";

/// One generated Pathfinder sample.
#[derive(Debug, Clone)]
pub struct PathfinderSample {
    /// Lattice resolution (cells per side).
    pub grid_size: u32,
    /// Predicted edges `(from, to, probability)` (both directions included).
    pub edges: Vec<(u32, u32, f64)>,
    /// The two endpoint cells.
    pub endpoints: (u32, u32),
    /// Ground truth: whether the endpoints are connected by the dashed path.
    pub label: bool,
}

impl PathfinderSample {
    /// The facts fed to the symbolic program.
    pub fn facts(&self) -> WorkloadFacts {
        let mut facts = WorkloadFacts::new();
        for &(a, b, p) in &self.edges {
            facts.push("edge", vec![Value::U32(a), Value::U32(b)], Some(p));
        }
        facts.push(
            "is_endpoint",
            vec![Value::U32(self.endpoints.0)],
            Some(0.99),
        );
        facts.push(
            "is_endpoint",
            vec![Value::U32(self.endpoints.1)],
            Some(0.99),
        );
        facts
    }
}

fn cell(grid: u32, x: u32, y: u32) -> u32 {
    y * grid + x
}

/// Generates one Pathfinder sample on an `grid_size × grid_size` lattice.
///
/// `positive` controls the ground-truth label: positive samples contain an
/// unbroken dashed path between the endpoints; negative samples have the path
/// broken in the middle.
pub fn generate(grid_size: u32, positive: bool, rng: &mut impl Rng) -> PathfinderSample {
    assert!(grid_size >= 3, "grid must be at least 3x3");
    // Random monotone lattice walk from the left edge to the right edge.
    let mut x = 0u32;
    let mut y = rng.gen_range(0..grid_size);
    let mut walk = vec![(x, y)];
    while x + 1 < grid_size {
        if rng.gen_bool(0.6) || y == 0 || y + 1 == grid_size {
            x += 1;
        } else if rng.gen_bool(0.5) {
            y -= 1;
        } else {
            y += 1;
        }
        walk.push((x, y));
    }
    let endpoints = (cell(grid_size, walk[0].0, walk[0].1), cell(grid_size, x, y));

    let mut edges = Vec::new();
    let push_both = |edges: &mut Vec<(u32, u32, f64)>, a: u32, b: u32, p: f64| {
        edges.push((a, b, p));
        edges.push((b, a, p));
    };
    // Dashes along the walk: confident predictions, with a gap in the middle
    // for negative samples.
    let break_at = walk.len() / 2;
    for (i, window) in walk.windows(2).enumerate() {
        let a = cell(grid_size, window[0].0, window[0].1);
        let b = cell(grid_size, window[1].0, window[1].1);
        if !positive && i == break_at {
            // The broken dash still shows up as a low-confidence edge.
            push_both(&mut edges, a, b, rng.gen_range(0.01..0.1));
        } else {
            push_both(&mut edges, a, b, rng.gen_range(0.85..0.99));
        }
    }
    // Background clutter: a sparse sample of other lattice edges with low
    // probability (the network is unsure about faint texture).
    for cy in 0..grid_size {
        for cx in 0..grid_size {
            if cx + 1 < grid_size && rng.gen_bool(0.25) {
                let p = rng.gen_range(0.01..0.2);
                push_both(
                    &mut edges,
                    cell(grid_size, cx, cy),
                    cell(grid_size, cx + 1, cy),
                    p,
                );
            }
            if cy + 1 < grid_size && rng.gen_bool(0.25) {
                let p = rng.gen_range(0.01..0.2);
                push_both(
                    &mut edges,
                    cell(grid_size, cx, cy),
                    cell(grid_size, cx, cy + 1),
                    p,
                );
            }
        }
    }
    PathfinderSample {
        grid_size,
        edges,
        endpoints,
        label: positive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::Lobster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generator_produces_a_path_shaped_sample() {
        let mut rng = StdRng::seed_from_u64(3);
        let sample = generate(6, true, &mut rng);
        assert_eq!(sample.grid_size, 6);
        assert!(sample.label);
        assert!(sample.edges.len() > 10);
        assert_ne!(sample.endpoints.0, sample.endpoints.1);
        assert!(!sample.facts().is_empty());
    }

    #[test]
    fn positive_samples_are_connected_and_negative_ones_are_not() {
        let mut rng = StdRng::seed_from_u64(11);
        for positive in [true, false] {
            let sample = generate(5, positive, &mut rng);
            let program = Lobster::builder(PROGRAM)
                .provenance(lobster::ProvenanceKind::DiffTop1Proof)
                .compile()
                .unwrap();
            let mut session = program.session();
            sample.facts().add_to_session(&mut session).unwrap();
            let result = session.run().unwrap();
            let p = result.probability("endpoints_connected", &[]);
            if positive {
                assert!(
                    p > 0.3,
                    "positive sample should be likely connected, got {p}"
                );
            } else {
                assert!(
                    p < 0.2,
                    "negative sample should be unlikely connected, got {p}"
                );
            }
        }
    }
}
