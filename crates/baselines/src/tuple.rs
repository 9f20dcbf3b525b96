//! A CPU, tuple-at-a-time, BTree-indexed semi-naive Datalog engine.
//!
//! This is the execution model shared by the Scallop and Soufflé stand-ins:
//! relations are `BTreeMap<tuple, tag>`, every relational operator works one
//! tuple at a time (allocating a fresh `Vec` per derived tuple), and joins
//! build a per-call BTree index on the build side. Compared to Lobster's
//! columnar, bulk-kernel execution this is exactly the architectural profile
//! the paper attributes to CPU engines.

use lobster_provenance::Provenance;
use lobster_ram::{RamExpr, RamProgram, RamRule, Stratum};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Errors produced by the baseline engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The configured timeout was exceeded.
    Timeout {
        /// Where the timeout hit.
        phase: &'static str,
    },
    /// The per-stratum iteration cap was exceeded.
    IterationLimit,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Timeout { phase } => write!(f, "baseline timed out during {phase}"),
            BaselineError::IterationLimit => write!(f, "baseline exceeded its iteration limit"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// A tuple-oriented database: every relation maps encoded tuples to tags.
pub type TupleDatabase<P> = BTreeMap<String, BTreeMap<Vec<u64>, <P as Provenance>::Tag>>;

/// Rows produced by evaluating one rule: encoded tuple plus tag.
type TaggedRows<T> = Vec<(Vec<u64>, T)>;

/// The shared tuple-at-a-time engine.
#[derive(Debug, Clone)]
pub struct TupleEngine<P: Provenance> {
    provenance: P,
    /// Number of worker threads used to split join probes (1 = sequential,
    /// the Scallop configuration; >1 models Soufflé's multi-threading).
    pub parallelism: usize,
    /// Optional wall-clock budget.
    pub timeout: Option<Duration>,
    /// Iteration cap per stratum.
    pub max_iterations: usize,
}

impl<P: Provenance> TupleEngine<P> {
    /// Creates a sequential engine.
    pub fn new(provenance: P) -> Self {
        TupleEngine {
            provenance,
            parallelism: 1,
            timeout: None,
            max_iterations: 1_000_000,
        }
    }

    /// Sets the number of join worker threads.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// The provenance used by this engine.
    pub fn provenance(&self) -> &P {
        &self.provenance
    }

    /// Runs a RAM program over the given input facts.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Timeout`] when the budget is exceeded.
    pub fn run(
        &self,
        ram: &RamProgram,
        facts: &[(String, Vec<u64>, P::Tag)],
    ) -> Result<TupleDatabase<P>, BaselineError> {
        let start = Instant::now();
        let mut db: TupleDatabase<P> = BTreeMap::new();
        for name in ram.schemas.keys() {
            db.insert(name.clone(), BTreeMap::new());
        }
        for (rel, tuple, tag) in facts {
            let relation = db.entry(rel.clone()).or_default();
            match relation.get_mut(tuple) {
                Some(existing) => *existing = self.provenance.add(existing, tag),
                None => {
                    relation.insert(tuple.clone(), tag.clone());
                }
            }
        }
        for stratum in &ram.strata {
            self.run_stratum(stratum, &mut db, start)?;
        }
        Ok(db)
    }

    fn check_deadline(&self, start: Instant, phase: &'static str) -> Result<(), BaselineError> {
        if let Some(budget) = self.timeout {
            if start.elapsed() > budget {
                return Err(BaselineError::Timeout { phase });
            }
        }
        Ok(())
    }

    fn run_stratum(
        &self,
        stratum: &Stratum,
        db: &mut TupleDatabase<P>,
        start: Instant,
    ) -> Result<(), BaselineError> {
        // Semi-naive bookkeeping: recent = frontier discovered last iteration.
        let mut recent: BTreeMap<String, BTreeMap<Vec<u64>, P::Tag>> = BTreeMap::new();
        for rel in &stratum.relations {
            recent.insert(rel.clone(), db.get(rel).cloned().unwrap_or_default());
        }
        let mut iteration = 0usize;
        loop {
            if iteration >= self.max_iterations {
                return Err(BaselineError::IterationLimit);
            }
            self.check_deadline(start, "fix-point iteration")?;
            let mut delta: BTreeMap<String, BTreeMap<Vec<u64>, P::Tag>> = BTreeMap::new();
            for rule in &stratum.rules {
                let produced = self.eval_rule(rule, stratum, db, &recent, iteration, start)?;
                let slot = delta.entry(rule.target.clone()).or_default();
                for (tuple, tag) in produced {
                    if !self.provenance.accept(&tag) {
                        continue;
                    }
                    // Skip tuples that already exist in the database.
                    if db
                        .get(&rule.target)
                        .map(|r| r.contains_key(&tuple))
                        .unwrap_or(false)
                    {
                        continue;
                    }
                    match slot.get_mut(&tuple) {
                        Some(existing) => *existing = self.provenance.add(existing, &tag),
                        None => {
                            slot.insert(tuple, tag);
                        }
                    }
                }
            }
            // Fold the delta into the database.
            let mut changed = false;
            for (rel, tuples) in &delta {
                let relation = db.entry(rel.clone()).or_default();
                for (tuple, tag) in tuples {
                    if !relation.contains_key(tuple) {
                        relation.insert(tuple.clone(), tag.clone());
                        changed = true;
                    }
                }
            }
            recent = delta;
            iteration += 1;
            if !changed || !stratum.recursive {
                break;
            }
        }
        Ok(())
    }

    /// Evaluates one rule. On iteration 0 all relations are read in full; on
    /// later iterations the rule is evaluated once per recursive leaf with
    /// that leaf restricted to the recent frontier (standard semi-naive
    /// expansion).
    fn eval_rule(
        &self,
        rule: &RamRule,
        stratum: &Stratum,
        db: &TupleDatabase<P>,
        recent: &BTreeMap<String, BTreeMap<Vec<u64>, P::Tag>>,
        iteration: usize,
        start: Instant,
    ) -> Result<TaggedRows<P::Tag>, BaselineError> {
        let mut recursive_leaves = 0usize;
        rule.expr.visit(&mut |e| {
            if let RamExpr::Relation(name) = e {
                if stratum.relations.contains(name) {
                    recursive_leaves += 1;
                }
            }
        });
        if iteration == 0 || recursive_leaves == 0 {
            if iteration > 0 {
                // Base rules contribute nothing new after the first pass.
                return Ok(Vec::new());
            }
            let mut counter = 0usize;
            return self.eval_expr(&rule.expr, stratum, db, recent, None, &mut counter, start);
        }
        let mut out = Vec::new();
        for focus in 0..recursive_leaves {
            let mut counter = 0usize;
            out.extend(self.eval_expr(
                &rule.expr,
                stratum,
                db,
                recent,
                Some(focus),
                &mut counter,
                start,
            )?);
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_expr(
        &self,
        expr: &RamExpr,
        stratum: &Stratum,
        db: &TupleDatabase<P>,
        recent: &BTreeMap<String, BTreeMap<Vec<u64>, P::Tag>>,
        focus: Option<usize>,
        recursive_counter: &mut usize,
        start: Instant,
    ) -> Result<TaggedRows<P::Tag>, BaselineError> {
        self.check_deadline(start, "expression evaluation")?;
        match expr {
            RamExpr::Relation(name) => {
                let is_recursive = stratum.relations.contains(name);
                let use_recent = if is_recursive {
                    let this = *recursive_counter;
                    *recursive_counter += 1;
                    focus == Some(this)
                } else {
                    false
                };
                let source: Box<dyn Iterator<Item = (&Vec<u64>, &P::Tag)>> = if use_recent {
                    Box::new(recent.get(name).into_iter().flatten())
                } else {
                    Box::new(db.get(name).into_iter().flatten())
                };
                Ok(source.map(|(t, tag)| (t.clone(), tag.clone())).collect())
            }
            RamExpr::Project { input, proj } => {
                let rows =
                    self.eval_expr(input, stratum, db, recent, focus, recursive_counter, start)?;
                Ok(rows
                    .into_iter()
                    .filter_map(|(row, tag)| proj.eval(&row).map(|out| (out, tag)))
                    .collect())
            }
            RamExpr::Select { input, cond } => {
                let rows =
                    self.eval_expr(input, stratum, db, recent, focus, recursive_counter, start)?;
                let program = cond.compile();
                Ok(rows
                    .into_iter()
                    .filter(|(row, _)| program.eval_bool(row))
                    .collect())
            }
            RamExpr::Join { left, right, width } => {
                let l =
                    self.eval_expr(left, stratum, db, recent, focus, recursive_counter, start)?;
                let r =
                    self.eval_expr(right, stratum, db, recent, focus, recursive_counter, start)?;
                self.check_deadline(start, "join")?;
                Ok(self.join(&l, &r, *width))
            }
            RamExpr::Union(left, right) => {
                let mut l =
                    self.eval_expr(left, stratum, db, recent, focus, recursive_counter, start)?;
                let r =
                    self.eval_expr(right, stratum, db, recent, focus, recursive_counter, start)?;
                l.extend(r);
                Ok(l)
            }
        }
    }

    /// BTree-indexed hash join on the first `width` columns, optionally
    /// splitting the probe side across worker threads.
    fn join(
        &self,
        left: &[(Vec<u64>, P::Tag)],
        right: &[(Vec<u64>, P::Tag)],
        width: usize,
    ) -> Vec<(Vec<u64>, P::Tag)> {
        // Build an index on the right side.
        let mut index: BTreeMap<&[u64], Vec<usize>> = BTreeMap::new();
        for (i, (row, _)) in right.iter().enumerate() {
            index.entry(&row[..width]).or_default().push(i);
        }
        let probe = |range: std::ops::Range<usize>| -> Vec<(Vec<u64>, P::Tag)> {
            let mut out = Vec::new();
            for (lrow, ltag) in &left[range] {
                if let Some(matches) = index.get(&lrow[..width]) {
                    for &ri in matches {
                        let (rrow, rtag) = &right[ri];
                        let mut row = lrow.clone();
                        row.extend_from_slice(&rrow[width..]);
                        out.push((row, self.provenance.mul(ltag, rtag)));
                    }
                }
            }
            out
        };
        if self.parallelism <= 1 || left.len() < 1024 {
            return probe(0..left.len());
        }
        let chunk = left.len().div_ceil(self.parallelism);
        let mut pieces: Vec<Vec<(Vec<u64>, P::Tag)>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut startx = 0;
            while startx < left.len() {
                let end = (startx + chunk).min(left.len());
                let probe = &probe;
                handles.push(scope.spawn(move || probe(startx..end)));
                startx = end;
            }
            for handle in handles {
                pieces.push(handle.join().expect("join worker panicked"));
            }
        });
        pieces.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_datalog::parse;
    use lobster_provenance::{MaxMinProb, Unit};

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn tuple_engine_computes_transitive_closure() {
        let compiled = parse(TC).unwrap();
        let engine = TupleEngine::new(Unit::new());
        let facts: Vec<(String, Vec<u64>, ())> = (0..4u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1], ()))
            .collect();
        let db = engine.run(&compiled.ram, &facts).unwrap();
        assert_eq!(db["path"].len(), 10);
        assert!(db["path"].contains_key(&vec![0, 4]));
    }

    #[test]
    fn tuple_engine_tracks_probabilities() {
        let compiled = parse(TC).unwrap();
        let engine = TupleEngine::new(MaxMinProb::new());
        let facts = vec![
            ("edge".to_string(), vec![0, 1], 0.9),
            ("edge".to_string(), vec![1, 2], 0.4),
        ];
        let db = engine.run(&compiled.ram, &facts).unwrap();
        assert!((db["path"][&vec![0, 2]] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>, ())> = (0..300u64)
            .map(|i| ("edge".to_string(), vec![i % 50, (i * 7) % 50], ()))
            .collect();
        let seq = TupleEngine::new(Unit::new())
            .run(&compiled.ram, &facts)
            .unwrap();
        let par = TupleEngine::new(Unit::new())
            .with_parallelism(8)
            .run(&compiled.ram, &facts)
            .unwrap();
        assert_eq!(seq["path"], par["path"]);
    }

    #[test]
    fn timeout_is_respected() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>, ())> = (0..2000u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1], ()))
            .collect();
        let engine = TupleEngine::new(Unit::new()).with_timeout(Some(Duration::from_millis(0)));
        assert!(matches!(
            engine.run(&compiled.ram, &facts),
            Err(BaselineError::Timeout { .. })
        ));
    }

    #[test]
    fn agrees_with_lobster_on_random_graphs() {
        use lobster::Lobster;
        use lobster_ram::Value;
        let compiled = parse(TC).unwrap();
        // Pseudo-random but deterministic edge set.
        let edges: Vec<(u64, u64)> = (0..120u64)
            .map(|i| ((i * 37) % 23, (i * 61 + 7) % 23))
            .collect();
        let engine = TupleEngine::new(Unit::new());
        let facts: Vec<(String, Vec<u64>, ())> = edges
            .iter()
            .map(|&(a, b)| ("edge".to_string(), vec![a, b], ()))
            .collect();
        let baseline = engine.run(&compiled.ram, &facts).unwrap();

        let program = Lobster::builder(TC)
            .provenance(lobster::ProvenanceKind::Unit)
            .compile()
            .unwrap();
        let mut session = program.session();
        for &(a, b) in &edges {
            session
                .add_fact("edge", &[Value::U32(a as u32), Value::U32(b as u32)], None)
                .unwrap();
        }
        let lobster_rows = session.run().unwrap();
        assert_eq!(baseline["path"].len(), lobster_rows.len("path"));
    }
}
