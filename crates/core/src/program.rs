//! The compile-once half of the Lobster API: [`Lobster::builder`],
//! [`LobsterBuilder`], and the immutable, shareable [`Program`].
//!
//! A [`Program`] is everything that can be computed *before* any facts
//! arrive: the parsed and stratified Datalog program, its RAM compilation,
//! the batch-transformed RAM variant used by [`Program::run_batch`], the APM
//! compilation of every stratum of both and the storage plan of both (a
//! `RunPlan` each), and the execution configuration (device, runtime options,
//! provenance kind). The compiled part sits behind an [`Arc`], so cloning a
//! `Program` — or sending clones to other threads to serve concurrent
//! requests — costs a pointer copy. Per-request state lives in
//! [`Session`](crate::Session).

use crate::error::LobsterError;
use crate::session::Session;
use lobster_apm::{
    batch_transform, compile_stratum_with_options, lane_groups, secondary_orders, CompiledStratum,
    RuntimeOptions, StoragePlan,
};
use lobster_datalog::CompiledProgram;
use lobster_gpu::Device;
use lobster_provenance::ProvenanceKind;
use lobster_ram::passes::{eliminate_dead_rules, lint_program, CostModel};
use lobster_ram::{Diagnostic, RamProgram, Severity, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Entry point of the Lobster API: start a [`LobsterBuilder`] with
/// [`Lobster::builder`].
#[derive(Debug)]
pub struct Lobster;

impl Lobster {
    /// Starts building a compiled [`Program`] from Datalog source.
    pub fn builder(source: impl Into<String>) -> LobsterBuilder {
        LobsterBuilder {
            source: source.into(),
            device: Device::default(),
            options: RuntimeOptions::default(),
            provenance: None,
        }
    }
}

/// Configures and compiles a Lobster program: set the provenance semiring
/// with [`LobsterBuilder::provenance`] — a [`ProvenanceKind`] named in the
/// code or parsed from configuration — and finish with
/// [`LobsterBuilder::compile`].
#[derive(Debug, Clone)]
pub struct LobsterBuilder {
    source: String,
    device: Device,
    options: RuntimeOptions,
    provenance: Option<ProvenanceKind>,
}

impl LobsterBuilder {
    /// Sets the execution device (memory budget, parallelism).
    pub fn device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Sets the runtime options (optimization toggles, timeout).
    pub fn options(mut self, options: RuntimeOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the provenance semiring the program's sessions reason in —
    /// e.g. `ProvenanceKind::DiffTop1Proof`, or from configuration:
    /// `"diff-top-1-proofs".parse()?`.
    pub fn provenance(mut self, kind: ProvenanceKind) -> Self {
        self.provenance = Some(kind);
        self
    }

    /// Compiles into a [`Program`] over the [`ProvenanceKind`] set with
    /// [`LobsterBuilder::provenance`].
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::Config`] when no provenance kind was set, a
    /// [`LobsterError::Frontend`] when the program does not parse, compile
    /// or pass IR validation (see [`lobster_datalog::parse`]), or
    /// [`LobsterError::BadFact`] when an inline fact is malformed.
    pub fn compile(self) -> Result<crate::Program, LobsterError> {
        let Some(kind) = self.provenance else {
            return Err(LobsterError::Config {
                message: "no provenance selected: call `.provenance(kind)` before `.compile()`"
                    .to_string(),
            });
        };
        let mut compiled = lobster_datalog::parse(&self.source)?;
        // The lint reads the program as written, so its `dead-rule`
        // warnings name the rules the next line drops.
        let diagnostics = lint_program(&compiled.ram);
        compiled.ram = eliminate_dead_rules(&compiled.ram);
        let batched = batch_transform(&compiled.ram);
        let program = Program {
            artifact: Arc::new(Artifact {
                plan: RunPlan::new(&compiled.ram, &self.options),
                batched_plan: RunPlan::new(&batched, &self.options),
                compiled,
                batched,
                diagnostics,
            }),
            device: self.device,
            options: self.options,
            kind,
        };
        // Validate inline program facts once, here, so that opening a
        // session is infallible and cheap.
        for fact in &program.artifact.compiled.facts {
            program.check_fact(&fact.relation, &fact.values)?;
        }
        Ok(program)
    }
}

/// The immutable compiled artifact shared by every [`Program`] clone.
#[derive(Debug)]
pub(crate) struct Artifact {
    /// Parsed, stratified, RAM-compiled program, its dead rules dropped.
    pub(crate) compiled: CompiledProgram,
    /// The batch-transformed RAM program (Section 4.3), computed once at
    /// compile time instead of on every `run_batch` call.
    pub(crate) batched: RamProgram,
    /// The static-analysis lint report, computed once at compile time and
    /// shared by every clone (and cached alongside the program in
    /// `ProgramCache`).
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// What a run of `compiled.ram` needs beyond its facts.
    pub(crate) plan: RunPlan,
    /// What a run of `batched` needs beyond its facts.
    pub(crate) batched_plan: RunPlan,
}

/// Everything a run of one RAM program derives from the program alone,
/// built once when the [`Program`] is compiled: every stratum compiled to
/// APM with the program's [`RuntimeOptions`] (which are fixed before
/// `compile()`), and the storage plan its databases start from. A run then
/// pays only for its facts.
#[derive(Debug)]
pub(crate) struct RunPlan {
    /// One per stratum of the RAM program, in order.
    pub(crate) strata: Vec<CompiledStratum>,
    /// The storage every database of a run starts from.
    pub(crate) storage: StoragePlan,
}

impl RunPlan {
    fn new(ram: &RamProgram, options: &RuntimeOptions) -> RunPlan {
        let compile = |stratum| compile_stratum_with_options(stratum, ram, options);
        RunPlan {
            strata: ram.strata.iter().map(compile).collect(),
            storage: StoragePlan::for_program(ram),
        }
    }

    fn size_estimate(&self) -> usize {
        self.strata.iter().map(CompiledStratum::size_estimate).sum()
    }
}

/// An immutable compiled Lobster program.
///
/// A `Program` holds no fact state and no registry: it is safe to share one
/// instance (or cheap clones of it) across threads and requests. Open a
/// [`Session`] per request with [`Program::session`], or run a whole batch
/// of independent samples in one fix-point with [`Program::run_batch`].
///
/// The provenance semiring is a property of the program
/// ([`Program::kind`]), not of its type: the compiled artifact is the same
/// for every semiring, and a session binds the kind to its semiring when it
/// is opened.
///
/// Built with [`Lobster::builder`] or the [`Program::compile`] shortcut; see
/// the crate-level docs for the full workflow.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) artifact: Arc<Artifact>,
    pub(crate) device: Device,
    pub(crate) options: RuntimeOptions,
    kind: ProvenanceKind,
}

impl Program {
    /// Compiles `source` for the given provenance kind with default device
    /// and options. Use [`Lobster::builder`] for full control.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError::Frontend`] when the program does not parse
    /// or compile.
    pub fn compile(source: &str, kind: ProvenanceKind) -> Result<Self, LobsterError> {
        Lobster::builder(source).provenance(kind).compile()
    }

    /// The provenance kind this program's sessions reason in.
    pub fn kind(&self) -> ProvenanceKind {
        self.kind
    }

    /// The device this program's sessions execute on; its statistics
    /// (kernel launches, per-kernel wall time) attribute serving cost to
    /// individual kernels.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The runtime options in effect.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// The compiled RAM program: only what a `query` reads. A rule whose
    /// relation no query reaches is dropped, and a stratum it leaves empty
    /// with it (`lobster_ram::passes::eliminate_dead_rules`); every schema
    /// stays, so a fact for a dead relation still validates and inserts. A
    /// program with no `query` keeps every rule.
    pub fn ram(&self) -> &RamProgram {
        &self.artifact.compiled.ram
    }

    /// The APM compilation of every stratum of [`Program::ram`], in order:
    /// made once, with the program's [`RuntimeOptions`], when the program
    /// was compiled, and run as it is by every from-scratch run and by the
    /// recompute tier of an incremental one.
    pub fn compiled_strata(&self) -> &[CompiledStratum] {
        &self.artifact.plan.strata
    }

    /// The relations named in `query` declarations.
    pub fn queries(&self) -> &[String] {
        &self.artifact.compiled.queries
    }

    /// The static-analysis lint report for this program as written, before
    /// its dead rules are dropped: validator errors (never present —
    /// compilation fails on them) plus structural warnings such as
    /// cartesian products, non-linear recursion, unused relations,
    /// constant-false filters, and dead rules, each with rule provenance.
    /// Computed once at compile time; cloning the program shares the report.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.artifact.diagnostics
    }

    /// The program as it is compiled and run, as text. The first line sums
    /// it up — `strata= rules= joins= merge= hash= errors= warnings=[code:n
    /// …]`, what `lobster-lint` prints: what was compiled
    /// ([`Program::compiled_strata`]; `merge` and `hash` count join sites
    /// across every semi-naive variant) and the lint report of the program
    /// as written ([`Program::diagnostics`]). Then every stratum's plain and
    /// batched APM listing, with every operand the executor reads, and last
    /// every relation's lane groups and the secondary orders a materialized
    /// database keeps. Printed from what was compiled: nothing is compiled
    /// again, and a program prints the same text in every process.
    pub fn explain(&self) -> String {
        let ram = self.ram();
        let strata = self.compiled_strata();
        let rules: usize = ram.strata.iter().map(|s| s.rules.len()).sum();
        let joins: usize = CostModel::analyze(ram).strata.iter().map(|s| s.joins).sum();
        let merge: usize = strata.iter().map(|s| s.merge_joins).sum();
        let hash: usize = strata.iter().map(|s| s.hash_joins).sum();
        let mut errors = 0;
        let mut warnings = BTreeMap::new();
        for d in self.diagnostics() {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => *warnings.entry(d.code).or_insert(0usize) += 1,
            }
        }
        let by_code: Vec<String> = warnings.iter().map(|(c, n)| format!("{c}:{n}")).collect();
        let mut out = format!(
            "strata={} rules={rules} joins={joins} merge={merge} hash={hash} \
             errors={errors} warnings=[{}]\n",
            strata.len(),
            by_code.join(" "),
        );
        let batched = &self.artifact.batched_plan.strata;
        for (i, pair) in strata.iter().zip(batched).enumerate() {
            for (form, stratum) in [("plain", pair.0), ("batched", pair.1)] {
                out += &format!(
                    "stratum {i} {form} [{}] recursive={} registers={} merge={} hash={}\n{}",
                    stratum.relations.join(" "),
                    stratum.recursive,
                    stratum.program.register_count,
                    stratum.merge_joins,
                    stratum.hash_joins,
                    stratum.program.listing(),
                );
            }
        }
        let orders = secondary_orders(ram);
        for relation in ram.schemas.keys() {
            let lanes = self.artifact.plan.storage.lanes(relation).unwrap_or(&[]);
            let keys: Vec<&[usize]> = orders
                .iter()
                .filter(|order| &order.relation == relation)
                .map(|order| order.key.as_slice())
                .collect();
            let lanes = lane_groups(lanes);
            out += &format!("relation {relation}: lanes {lanes}, orders {keys:?}\n");
        }
        out
    }

    /// A deterministic estimate of the compiled artifact's resident size in
    /// bytes (the plain RAM program plus its batch-transformed variant, and
    /// the compiled strata of both). Serving-layer caches use this as the
    /// eviction weight.
    pub fn compiled_size_bytes(&self) -> usize {
        let artifact = &self.artifact;
        artifact.compiled.ram.size_estimate()
            + artifact.batched.size_estimate()
            + artifact.plan.size_estimate()
            + artifact.batched_plan.size_estimate()
    }

    /// Interns a string constant, producing a `Value::Symbol` usable in
    /// facts. The interner is shared (and append-only) across all clones of
    /// this program and their sessions.
    pub fn symbol(&self, name: &str) -> Value {
        Value::Symbol(self.artifact.compiled.symbols.intern(name))
    }

    /// The one rule a fact must meet to enter this program, whichever way it
    /// arrives (inline in the source, [`Session::add_fact`],
    /// [`Session::insert_facts`], a batch sample): the relation exists, the
    /// tuple has its arity, and every value has its column's type — a value
    /// of another type would be stored as a different value, or not fit its
    /// column's storage at all.
    ///
    /// [`Session::add_fact`]: crate::Session::add_fact
    /// [`Session::insert_facts`]: crate::Session::insert_facts
    pub(crate) fn check_fact(&self, relation: &str, values: &[Value]) -> Result<(), LobsterError> {
        let bad = |message: String| Err(LobsterError::BadFact { message });
        let Some(schema) = self.ram().schema(relation) else {
            return bad(format!("unknown relation `{relation}`"));
        };
        if schema.arity() != values.len() {
            return bad(format!(
                "fact for `{relation}` has arity {}, expected {}",
                values.len(),
                schema.arity()
            ));
        }
        for (column, (value, expected)) in values.iter().zip(&schema.arg_types).enumerate() {
            let got = value.value_type();
            if got != *expected {
                return bad(format!(
                    "fact for `{relation}` has a {got} value in column {column}, expected {expected}"
                ));
            }
        }
        Ok(())
    }

    /// Checks every fact of `facts` against this program's relation schemas
    /// — the same relation, arity and value-type rule [`Session::add_fact`]
    /// and [`Program::run_batch`] enforce, exposed so a serving layer can
    /// reject a malformed request at submission instead of failing the batch
    /// it would have landed in.
    ///
    /// [`Session::add_fact`]: crate::Session::add_fact
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::BadFact`] for the first offending fact.
    pub fn validate_facts(&self, facts: &crate::FactSet) -> Result<(), LobsterError> {
        facts
            .facts()
            .try_for_each(|(relation, values, _, _)| self.check_fact(relation, values))
    }

    /// Opens a session: cheap per-request state holding this request's facts
    /// and its own input-fact registry. The program's inline facts are
    /// pre-registered.
    pub fn session(&self) -> Session {
        Session::new(self.clone())
    }

    /// Runs a whole batch of independent samples in a single fix-point using
    /// the batched evaluation of Section 4.3 (a sample-id column is prepended
    /// to every relation so all samples share one database and one run).
    ///
    /// Equivalent to `self.session().run_batch(samples)`: the program's
    /// inline facts are shared by every sample, and all fact registration is
    /// scoped to this call — nothing accumulates across batches.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError`] on bad facts or execution failure.
    pub fn run_batch(
        &self,
        samples: &[crate::FactSet],
    ) -> Result<Vec<crate::RunResult>, LobsterError> {
        self.session().run_batch(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    fn unit(source: &str) -> Program {
        Program::compile(source, ProvenanceKind::Unit).unwrap()
    }

    #[test]
    fn programs_are_cheaply_cloneable_and_shareable() {
        let program = unit(TC);
        let clone = program.clone();
        assert!(Arc::ptr_eq(&program.artifact, &clone.artifact));
        assert_eq!(clone.kind(), program.kind());
    }

    #[test]
    fn batch_transform_happens_once_at_compile_time() {
        let program = unit(TC);
        // The batched RAM has the sample column prepended: arity 3.
        assert_eq!(program.artifact.batched.schema("edge").unwrap().arity(), 3);
        assert_eq!(program.ram().schema("edge").unwrap().arity(), 2);
    }

    #[test]
    fn both_plans_hold_what_the_compiler_emits() {
        for options in [RuntimeOptions::default(), RuntimeOptions::unoptimized()] {
            let program = Lobster::builder(TC)
                .options(options.clone())
                .provenance(ProvenanceKind::Unit)
                .compile()
                .unwrap();
            for (ram, plan) in [
                (program.ram(), &program.artifact.plan),
                (&program.artifact.batched, &program.artifact.batched_plan),
            ] {
                let compile = |stratum| compile_stratum_with_options(stratum, ram, &options);
                let emitted: Vec<CompiledStratum> = ram.strata.iter().map(compile).collect();
                assert_eq!(plan.strata, emitted);
                assert!(plan.storage.lanes("edge").is_some());
            }
        }
    }

    #[test]
    fn builder_configures_device_options_and_scheduling() {
        let program = Lobster::builder(TC)
            .device(Device::sequential())
            .options(RuntimeOptions::unoptimized())
            .provenance(ProvenanceKind::Unit)
            .compile()
            .unwrap();
        assert_eq!(program.device().parallelism(), 1);
        assert_eq!(program.options(), &RuntimeOptions::unoptimized());
    }

    #[test]
    fn size_estimate_weighs_every_compiled_part() {
        let program = unit(TC);
        // The size estimate is stable and monotone: the batched variant adds
        // a sample column, so the combined estimate exceeds the plain RAM's.
        assert_eq!(
            program.compiled_size_bytes(),
            unit(TC).compiled_size_bytes()
        );
        assert!(program.compiled_size_bytes() > program.ram().size_estimate());
        // The compiled strata weigh in too.
        let rams = program.ram().size_estimate() + program.artifact.batched.size_estimate();
        assert!(program.compiled_size_bytes() > rams);
    }

    #[test]
    fn compile_without_provenance_kind_is_a_config_error() {
        let err = Lobster::builder(TC).compile().unwrap_err();
        assert!(matches!(err, LobsterError::Config { .. }));
        assert!(err.to_string().contains("provenance"));
    }

    #[test]
    fn kind_parsed_from_a_string_selects_the_semiring() {
        let kind: ProvenanceKind = "diff-top-1-proofs".parse().unwrap();
        let program = Lobster::builder(TC).provenance(kind).compile().unwrap();
        assert_eq!(program.kind(), ProvenanceKind::DiffTop1Proof);
        let mut session = program.session();
        let e01 = session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.9))
            .unwrap();
        session
            .add_fact("edge", &[Value::U32(1), Value::U32(2)], Some(0.5))
            .unwrap();
        let result = session.run().unwrap();
        let target = [Value::U32(0), Value::U32(2)];
        assert!((result.probability("path", &target) - 0.45).abs() < 1e-9);
        let grad = result.gradient("path", &target);
        assert!(grad
            .iter()
            .any(|(id, g)| *id == e01 && (*g - 0.5).abs() < 1e-9));
    }

    #[test]
    fn diagnostics_ride_the_compiled_artifact() {
        // Linear transitive closure lints clean.
        assert!(unit(TC).diagnostics().is_empty());

        // A declared-but-never-used relation surfaces as a warning, computed
        // once at compile time and shared by every clone of the artifact.
        let noisy = unit(
            "type edge(x: u32, y: u32)
             type orphan(x: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        );
        assert!(noisy
            .diagnostics()
            .iter()
            .any(|d| d.code == "unused-relation" && d.message.contains("orphan")));
        assert!(noisy
            .diagnostics()
            .iter()
            .all(|d| d.severity == crate::Severity::Warning));
        // `explain` sums the report up on its first line.
        let summary = "strata=1 rules=2 joins=1 merge=0 hash=1 errors=0 \
                       warnings=[unused-relation:1]\n";
        assert!(noisy.explain().starts_with(summary));
    }

    #[test]
    fn frontend_errors_surface() {
        assert!(matches!(
            Program::compile("rel x(", ProvenanceKind::Unit),
            Err(LobsterError::Frontend(_))
        ));
    }

    #[test]
    fn a_fact_is_checked_against_relation_arity_and_column_types() {
        let program = unit(TC);
        let check = |relation: &str, values: &[Value]| {
            program
                .check_fact(relation, values)
                .map_err(|e| e.to_string())
        };
        assert_eq!(check("edge", &[Value::U32(0), Value::U32(1)]), Ok(()));
        assert!(check("ghost", &[Value::U32(0)])
            .unwrap_err()
            .contains("unknown relation `ghost`"));
        assert!(check("edge", &[Value::U32(0)])
            .unwrap_err()
            .contains("arity 1, expected 2"));
        // 2^40 does not fit a u32 column: unchecked, a release build stores
        // its low bits (a different fact) and a debug build panics when the
        // column is packed.
        let wide = check("edge", &[Value::U32(1), Value::I64(1 << 40)]).unwrap_err();
        for part in ["`edge`", "column 1", "i64", "u32"] {
            assert!(wide.contains(part), "{wide}");
        }
        assert!(check("edge", &[Value::F64(0.5), Value::U32(1)]).is_err());
        assert!(check("edge", &[Value::Bool(true), Value::U32(1)]).is_err());
        assert!(check("edge", &[program.symbol("a"), Value::U32(1)]).is_err());
    }
}
