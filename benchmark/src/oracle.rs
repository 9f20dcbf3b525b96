//! Expected answers, computed by the harness from the generated inputs with
//! algorithms of its own — never by the program under test.

use crate::inputs::{ClutrrSample, Graph, CLUTRR_CHAIN, COMPOSITION};
use lobster::{Output, Value};

/// What transitive closure must return for one graph.
#[derive(Debug, Clone)]
pub struct Closure {
    nodes: usize,
    /// `nodes x nodes` bits, row-major: bit `(x, y)` is set when `path(x, y)`
    /// holds.
    reach: Vec<u64>,
    /// With edge probabilities: `nodes x nodes` expected tags (see
    /// [`closure`]); empty for probability-free graphs, whose tags are 1.
    width: Vec<f64>,
    pub count: usize,
    /// Order-independent: the wrapping sum of [`tuple_hash`] over the set.
    pub checksum: u64,
    /// The longest shortest path, in hops: the fix-point needs `depth + 1`
    /// iterations (the last one derives nothing).
    pub depth: usize,
}

/// A 64-bit mix of one tuple (splitmix64's finaliser over the packed pair).
pub fn tuple_hash(x: u32, y: u32) -> u64 {
    let mut z = ((u64::from(x) << 32) | u64::from(y)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Breadth-first search from every node.
///
/// The expected tag of `path(x, y)` is the widest (max over paths of the min
/// edge probability) among the *minimum-hop* paths from `x` to `y`, computed
/// layer by layer. That is what a semi-naive fix-point over an idempotent
/// semiring yields: a tuple keeps the tag of the iteration that first derived
/// it (all derivations of that iteration folded with max), and later,
/// longer derivations of a known tuple are discarded by the set difference.
/// It is *not* the all-pairs widest path, which may prefer a longer route.
pub fn closure(graph: &Graph) -> Closure {
    let n = graph.nodes;
    let weighted = graph.edges.iter().any(|e| e.2.is_some());
    let mut out: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &(x, y, p) in &graph.edges {
        out[x as usize].push((y, p.unwrap_or(1.0)));
    }
    let words = (n * n).div_ceil(64);
    let mut closure = Closure {
        nodes: n,
        reach: vec![0; words],
        width: if weighted {
            vec![0.0; n * n]
        } else {
            Vec::new()
        },
        count: 0,
        checksum: 0,
        depth: 0,
    };
    // Per node: `(source + 1, n * layer + position within that layer)` of the
    // search that last reached it, so one comparison tells "this source, this
    // layer" apart from "this source, an earlier layer".
    let mut reached = vec![(0usize, 0usize); n];
    let mut best = vec![0f64; n];
    for source in 0..n {
        // The source itself is not a path tuple until a cycle returns to it.
        let mut frontier: Vec<u32> = vec![source as u32];
        best[source] = 1.0;
        let mut hops = 0;
        loop {
            let layer = hops + 1;
            let mut next: Vec<u32> = Vec::new();
            let mut next_best: Vec<f64> = Vec::new();
            for &z in &frontier {
                for &(y, p) in &out[z as usize] {
                    let candidate = best[z as usize].min(p);
                    let slot = &mut reached[y as usize];
                    if slot.0 != source + 1 {
                        *slot = (source + 1, next.len() + n * layer);
                        next.push(y);
                        next_best.push(candidate);
                    } else if slot.1 >= n * layer {
                        // Reached again within this same layer: fold with max.
                        let at = slot.1 - n * layer;
                        next_best[at] = next_best[at].max(candidate);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            hops = layer;
            for (&y, &width) in next.iter().zip(&next_best) {
                best[y as usize] = width;
                let bit = source * n + y as usize;
                closure.reach[bit / 64] |= 1 << (bit % 64);
                if weighted {
                    closure.width[bit] = width;
                }
                closure.count += 1;
                closure.checksum = closure.checksum.wrapping_add(tuple_hash(source as u32, y));
            }
            frontier = next;
        }
        closure.depth = closure.depth.max(hops);
    }
    closure
}

impl Closure {
    /// Checks a `path` relation as returned by the program: exactly the
    /// expected tuple set (membership, count and checksum together rule out
    /// missing, extra and duplicated tuples) with the expected probabilities
    /// to 1e-12.
    pub fn check(&self, rows: &[(Vec<Value>, Output)]) -> Result<(), String> {
        if rows.len() != self.count {
            return Err(format!(
                "path has {} tuples, the oracle {}",
                rows.len(),
                self.count
            ));
        }
        let mut checksum = 0u64;
        for (tuple, output) in rows {
            let [Value::U32(x), Value::U32(y)] = tuple.as_slice() else {
                return Err(format!("path holds a malformed tuple {tuple:?}"));
            };
            let (x, y) = (*x, *y);
            if x as usize >= self.nodes || y as usize >= self.nodes {
                return Err(format!("path({x}, {y}) names a node the graph lacks"));
            }
            let bit = x as usize * self.nodes + y as usize;
            if self.reach[bit / 64] & (1 << (bit % 64)) == 0 {
                return Err(format!("path({x}, {y}) is not in the closure"));
            }
            let expected = if self.width.is_empty() {
                1.0
            } else {
                self.width[bit]
            };
            if (output.probability - expected).abs() > 1e-12 {
                return Err(format!(
                    "path({x}, {y}) has probability {}, the oracle {expected}",
                    output.probability
                ));
            }
            checksum = checksum.wrapping_add(tuple_hash(x, y));
        }
        if checksum != self.checksum {
            return Err(format!(
                "path checksum {checksum:#x} differs from the oracle's {:#x}",
                self.checksum
            ));
        }
        Ok(())
    }
}

/// What a CLUTRR request must answer: the relation the stated chain composes
/// to is the most probable `answer`, with the product of the stated
/// probabilities, and a gradient towards each stated link equal to the
/// product of the other four.
#[derive(Debug, Clone)]
pub struct ClutrrExpected {
    pub answer: u32,
    pub probability: f64,
    /// `(position of the stated fact in the request, d probability / d p)`.
    pub gradient: [(u32, f64); CLUTRR_CHAIN],
}

pub fn clutrr_expected(sample: &ClutrrSample) -> ClutrrExpected {
    let mut composed = sample.stated_relations[0];
    for &next in &sample.stated_relations[1..] {
        composed = COMPOSITION
            .iter()
            .find(|&&(r1, r2, _)| r1 == composed && r2 == next)
            .map(|&(_, _, r3)| r3)
            .expect("the generator only emits chains that compose");
    }
    let probability: f64 = sample.stated_probs.iter().product();
    let mut gradient = [(0u32, 0f64); CLUTRR_CHAIN];
    for (link, slot) in gradient.iter_mut().enumerate() {
        let others: f64 = sample
            .stated_probs
            .iter()
            .enumerate()
            .filter(|(other, _)| *other != link)
            .map(|(_, p)| p)
            .product();
        *slot = (sample.stated[link] as u32, others);
    }
    ClutrrExpected {
        answer: composed,
        probability,
        gradient,
    }
}

impl ClutrrExpected {
    /// Checks the `answer` relation of one run.
    pub fn check(&self, rows: &[(Vec<Value>, Output)]) -> Result<(), String> {
        let best = rows
            .iter()
            .max_by(|a, b| a.1.probability.total_cmp(&b.1.probability))
            .ok_or("answer is empty")?;
        if best.0.as_slice() != [Value::U32(self.answer)] {
            return Err(format!(
                "most probable answer is {:?}, the oracle relation {}",
                best.0, self.answer
            ));
        }
        if (best.1.probability - self.probability).abs() > 1e-12 {
            return Err(format!(
                "answer probability {}, the oracle {}",
                best.1.probability, self.probability
            ));
        }
        for (fact, expected) in self.gradient {
            let got = best
                .1
                .gradient
                .iter()
                .find(|(id, _)| id.0 == fact)
                .map(|(_, g)| *g)
                .ok_or_else(|| format!("no gradient towards stated fact {fact}"))?;
            if (got - expected).abs() > 1e-12 {
                return Err(format!(
                    "gradient towards fact {fact} is {got}, the oracle {expected}"
                ));
            }
        }
        Ok(())
    }
}
