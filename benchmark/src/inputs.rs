//! Datalog sources and input generators owned by the harness. The program
//! under test only ever sees what these produce from `--seed`.
//!
//! Every generator keeps the *amount of work* independent of the seed: the
//! seed picks node labels, fact order, probabilities and which pieces get
//! linked, never how many tuples or iterations a run needs. The driver
//! compares runs of different seeds, so a seed that changed the work would
//! show up as noise in every metric.

use crate::prng::SplitMix64;
use lobster::{FactSet, Value};

/// Transitive closure, the program of `tc_chain`, `tc_dense` and
/// `incr_updates`.
pub const TC_SOURCE: &str = "type edge(x: u32, y: u32)
rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
query path";

/// CLUTRR kinship composition, the program of `clutrr_serve`.
pub const CLUTRR_SOURCE: &str = "type kinship(r: u32, a: u32, b: u32)
type composition(r1: u32, r2: u32, r3: u32)
type target(a: u32, b: u32)
rel derived(r, a, b) = kinship(r, a, b)
rel derived(r3, a, c) = derived(r1, a, b), kinship(r2, b, c), composition(r1, r2, r3)
rel answer(r) = target(a, b), derived(r, a, b)
query answer";

/// Edges of `tc_chain`'s chain.
pub const CHAIN_EDGES: usize = 512;
/// Nodes and out-degree of `tc_dense`'s digraph.
pub const DENSE_NODES: usize = 500;
pub const DENSE_OUT_DEGREE: usize = 8;
/// `incr_updates`: a forest of `FOREST_CHAINS` chains of `FOREST_CHAIN_NODES`
/// nodes, a skip edge `i -> i+2` at every `FOREST_SKIP_EVERY`-th node, and
/// `FOREST_LINKS` links inserted and retracted every round, each from the
/// tail of one chain to the node `FOREST_LINK_REACH` from the end of another:
/// a shallow delta (a handful of iterations) against a large materialised
/// relation, which is what an update to a served knowledge base looks like.
pub const FOREST_CHAINS: usize = 30;
pub const FOREST_CHAIN_NODES: usize = 66;
pub const FOREST_SKIP_EVERY: usize = 4;
pub const FOREST_LINKS: usize = 8;
pub const FOREST_LINK_REACH: usize = 6;
/// `clutrr_serve`: samples cycled over, and stated links per sample.
pub const CLUTRR_SAMPLES: usize = 64;
pub const CLUTRR_CHAIN: usize = 5;

/// A directed graph as the `edge` facts handed to the program, in insertion
/// order.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Labels are `0..nodes`.
    pub nodes: usize,
    pub edges: Vec<(u32, u32, Option<f64>)>,
}

impl Graph {
    pub fn fact_set(&self) -> FactSet {
        edge_facts(&self.edges)
    }
}

pub fn edge_facts(edges: &[(u32, u32, Option<f64>)]) -> FactSet {
    let mut facts = FactSet::new();
    for &(x, y, p) in edges {
        facts.add("edge", &[Value::U32(x), Value::U32(y)], p);
    }
    facts
}

/// `tc_chain`: one chain of `CHAIN_EDGES` edges under seeded node labels,
/// inserted in seeded order. The closure is a triangle of
/// `n(n+1)/2` tuples reached in `CHAIN_EDGES + 1` iterations whatever the
/// seed.
pub fn chain(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed, 1);
    let label = rng.permutation(CHAIN_EDGES + 1);
    let mut edges: Vec<_> = (0..CHAIN_EDGES)
        .map(|i| (label[i], label[i + 1], None))
        .collect();
    rng.shuffle(&mut edges);
    Graph {
        nodes: CHAIN_EDGES + 1,
        edges,
    }
}

/// `tc_dense`: a seeded Hamiltonian cycle (so the digraph is strongly
/// connected and the closure is always all `n^2` pairs) plus
/// `DENSE_OUT_DEGREE - 1` further distinct out-edges per node, each edge
/// with a probability in `[0.05, 1)`.
pub fn dense(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed, 2);
    let n = DENSE_NODES;
    let cycle = rng.permutation(n);
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[cycle[i] as usize] = cycle[(i + 1) % n];
    }
    let mut edges = Vec::with_capacity(n * DENSE_OUT_DEGREE);
    for x in 0..n as u32 {
        let mut targets = vec![next[x as usize]];
        while targets.len() < DENSE_OUT_DEGREE {
            let y = rng.below(n) as u32;
            if y != x && !targets.contains(&y) {
                targets.push(y);
            }
        }
        for y in targets {
            edges.push((x, y, Some(rng.uniform(0.05, 1.0))));
        }
    }
    rng.shuffle(&mut edges);
    Graph { nodes: n, edges }
}

/// `incr_updates`: the base forest plus the links every round inserts and
/// retracts.
#[derive(Debug, Clone)]
pub struct Forest {
    pub base: Graph,
    /// Each link joins the tail of one chain to a node near the end of
    /// another; the `2 * FOREST_LINKS` chains involved are distinct, so every
    /// link adds exactly `FOREST_CHAIN_NODES * FOREST_LINK_REACH` path tuples
    /// whatever the seed.
    pub links: Vec<(u32, u32)>,
}

pub fn forest(seed: u64) -> Forest {
    let mut rng = SplitMix64::new(seed, 3);
    let (chains, len) = (FOREST_CHAINS, FOREST_CHAIN_NODES);
    let label = rng.permutation(chains * len);
    let node = |chain: usize, pos: usize| label[chain * len + pos];
    let mut edges = Vec::new();
    for c in 0..chains {
        for pos in 0..len - 1 {
            edges.push((node(c, pos), node(c, pos + 1), None));
            if pos % FOREST_SKIP_EVERY == 0 && pos + 2 < len {
                edges.push((node(c, pos), node(c, pos + 2), None));
            }
        }
    }
    rng.shuffle(&mut edges);
    let order = rng.permutation(chains);
    let links = (0..FOREST_LINKS)
        .map(|k| {
            let (from, to) = (order[2 * k] as usize, order[2 * k + 1] as usize);
            (node(from, len - 1), node(to, len - FOREST_LINK_REACH))
        })
        .collect();
    Forest {
        base: Graph {
            nodes: chains * len,
            edges,
        },
        links,
    }
}

/// Kinship relation codes of the CLUTRR program.
mod kin {
    pub const MOTHER: u32 = 0;
    pub const FATHER: u32 = 1;
    pub const DAUGHTER: u32 = 2;
    pub const SON: u32 = 3;
    pub const GRANDMOTHER: u32 = 4;
    pub const GRANDFATHER: u32 = 5;
    pub const SISTER: u32 = 6;
    pub const BROTHER: u32 = 7;
    pub const COUNT: u32 = 8;
}

/// `(r1, r2, r3)`: if `a` is `r1` of `b` and `b` is `r2` of `c` then `a` is
/// `r3` of `c`.
pub const COMPOSITION: [(u32, u32, u32); 18] = {
    use kin::*;
    [
        (MOTHER, MOTHER, GRANDMOTHER),
        (MOTHER, FATHER, GRANDMOTHER),
        (FATHER, MOTHER, GRANDFATHER),
        (FATHER, FATHER, GRANDFATHER),
        (SISTER, MOTHER, MOTHER),
        (SISTER, FATHER, FATHER),
        (BROTHER, MOTHER, MOTHER),
        (BROTHER, FATHER, FATHER),
        (DAUGHTER, DAUGHTER, DAUGHTER),
        (SON, SON, SON),
        (DAUGHTER, SISTER, DAUGHTER),
        (SON, BROTHER, SON),
        (SISTER, SISTER, SISTER),
        (BROTHER, BROTHER, BROTHER),
        (SISTER, BROTHER, BROTHER),
        (BROTHER, SISTER, SISTER),
        (MOTHER, DAUGHTER, SISTER),
        (FATHER, SON, BROTHER),
    ]
};

/// One CLUTRR request and what the generator knows about its answer.
#[derive(Debug, Clone)]
pub struct ClutrrSample {
    pub facts: FactSet,
    /// Position in `facts` of each stated link of the chain, in chain order;
    /// the server reports gradients against these request-local positions.
    pub stated: [usize; CLUTRR_CHAIN],
    pub stated_probs: [f64; CLUTRR_CHAIN],
    /// The relations stated along the chain, for the oracle to compose.
    pub stated_relations: [u32; CLUTRR_CHAIN],
}

/// A chain of `CLUTRR_CHAIN` stated links that composes all the way (each
/// link is drawn among those the table can continue from), each with a
/// low-probability distractor relation on the same pair, plus the
/// composition table and the query pair.
pub fn clutrr_sample(rng: &mut SplitMix64) -> ClutrrSample {
    let continues = |r: u32| COMPOSITION.iter().any(|&(r1, _, _)| r1 == r);
    let relations = 'retry: loop {
        let mut relations = [0u32; CLUTRR_CHAIN];
        let mut composed = rng.below(kin::COUNT as usize) as u32;
        relations[0] = composed;
        for (link, slot) in relations.iter_mut().enumerate().skip(1) {
            let last = link == CLUTRR_CHAIN - 1;
            let candidates: Vec<(u32, u32)> = COMPOSITION
                .iter()
                .filter(|&&(r1, _, r3)| r1 == composed && (last || continues(r3)))
                .map(|&(_, r2, r3)| (r2, r3))
                .collect();
            if candidates.is_empty() {
                continue 'retry;
            }
            let (r2, r3) = candidates[rng.below(candidates.len())];
            *slot = r2;
            composed = r3;
        }
        break relations;
    };
    let first_person = rng.below(100) as u32;
    let mut facts = FactSet::new();
    let mut stated = [0usize; CLUTRR_CHAIN];
    let mut stated_probs = [0f64; CLUTRR_CHAIN];
    for (link, &r) in relations.iter().enumerate() {
        let (a, b) = (first_person + link as u32, first_person + link as u32 + 1);
        let kinship = |r: u32| [Value::U32(r), Value::U32(a), Value::U32(b)];
        stated[link] = facts.len();
        stated_probs[link] = rng.uniform(0.85, 0.98);
        facts.add("kinship", &kinship(r), Some(stated_probs[link]));
        let distractor = (r + 1 + rng.below(kin::COUNT as usize - 1) as u32) % kin::COUNT;
        facts.add(
            "kinship",
            &kinship(distractor),
            Some(rng.uniform(0.02, 0.2)),
        );
    }
    for (r1, r2, r3) in COMPOSITION {
        facts.add(
            "composition",
            &[Value::U32(r1), Value::U32(r2), Value::U32(r3)],
            None,
        );
    }
    facts.add(
        "target",
        &[
            Value::U32(first_person),
            Value::U32(first_person + CLUTRR_CHAIN as u32),
        ],
        None,
    );
    ClutrrSample {
        facts,
        stated,
        stated_probs,
        stated_relations: relations,
    }
}

pub fn clutrr_samples(seed: u64) -> Vec<ClutrrSample> {
    let mut rng = SplitMix64::new(seed, 4);
    (0..CLUTRR_SAMPLES)
        .map(|_| clutrr_sample(&mut rng))
        .collect()
}
