//! The compile-once half of the Lobster API: [`Lobster::builder`],
//! [`LobsterBuilder`], and the immutable, shareable [`Program`].
//!
//! A [`Program`] is everything that can be computed *before* any facts
//! arrive: the parsed and stratified Datalog program, its RAM compilation,
//! the batch-transformed RAM variant used by [`Program::run_batch`], and the
//! execution configuration (device, runtime options). All of it
//! sits behind an [`Arc`], so cloning a `Program` — or sending clones to
//! other threads to serve concurrent requests — costs a pointer copy.
//! Per-request state lives in [`Session`](crate::Session).

use crate::error::LobsterError;
use crate::session::Session;
use lobster_apm::{
    batch_transform, Database, EncodingSpec, ExecutionStats, Executor, RuntimeOptions,
};
use lobster_datalog::CompiledProgram;
use lobster_gpu::{Device, TransferDirection};
use lobster_provenance::{InputFactRegistry, Provenance, ProvenanceKind, SessionProvenance};
use lobster_ram::passes::{lint_program, validate_program, CostModel};
use lobster_ram::{Diagnostic, RamProgram, Value};
use std::marker::PhantomData;
use std::sync::Arc;

/// Entry point of the Lobster API: start a [`LobsterBuilder`] with
/// [`Lobster::builder`].
#[derive(Debug)]
pub struct Lobster;

impl Lobster {
    /// Starts building a compiled [`Program`] (or [`DynProgram`]) from
    /// Datalog source.
    ///
    /// [`DynProgram`]: crate::DynProgram
    pub fn builder(source: impl Into<String>) -> LobsterBuilder {
        LobsterBuilder {
            source: source.into(),
            device: Device::default(),
            options: RuntimeOptions::default(),
            provenance: None,
        }
    }

    /// A stable 64-bit hash (FNV-1a) of Datalog source text. Compiled
    /// programs record this hash ([`Program::source_hash`]), so a serving
    /// layer can key a cache of compiled artifacts by
    /// `(source hash, provenance kind, options fingerprint)` without keeping
    /// the source around.
    pub fn source_hash(source: &str) -> u64 {
        lobster_apm::fnv1a(source.as_bytes())
    }
}

/// Configures and compiles a Lobster program.
///
/// Two terminal methods exist:
///
/// * [`LobsterBuilder::compile_typed`] picks the provenance semiring at the
///   type level and produces a [`Program<P>`] — zero-cost dispatch, for call
///   sites that know their reasoning mode at compile time.
/// * [`LobsterBuilder::compile`] picks it at *run time* from the
///   [`ProvenanceKind`] set with [`LobsterBuilder::provenance`] and produces
///   a [`DynProgram`](crate::DynProgram) — for servers that read the
///   reasoning mode from a config file or request field.
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

    /// Selects the provenance semiring for [`LobsterBuilder::compile`] at run
    /// time — e.g. from configuration: `"diff-top-1-proofs".parse()?`.
    pub fn provenance(mut self, kind: ProvenanceKind) -> Self {
        self.provenance = Some(kind);
        self
    }

    /// Compiles into a provenance-erased [`DynProgram`](crate::DynProgram)
    /// using the [`ProvenanceKind`] set with [`LobsterBuilder::provenance`].
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::Config`] when no provenance kind was set, or a
    /// [`LobsterError::Frontend`] when the program does not compile.
    pub fn compile(self) -> Result<crate::DynProgram, LobsterError> {
        let Some(kind) = self.provenance else {
            return Err(LobsterError::Config {
                message: "no provenance selected: call `.provenance(kind)` before `.compile()`, \
                          or use `.compile_typed::<P>()` for a statically-typed program"
                    .to_string(),
            });
        };
        crate::DynProgram::from_builder(self, kind)
    }

    /// Compiles into a statically-typed [`Program<P>`].
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError::Frontend`] when the program does not parse
    /// or compile, or [`LobsterError::BadFact`] when an inline fact is
    /// malformed.
    pub fn compile_typed<P: SessionProvenance>(self) -> Result<Program<P>, LobsterError> {
        let compiled = lobster_datalog::parse(&self.source)?;
        // Validate inline program facts once, here, so that opening a
        // session is infallible and cheap.
        for fact in &compiled.facts {
            let schema =
                compiled
                    .ram
                    .schema(&fact.relation)
                    .ok_or_else(|| LobsterError::BadFact {
                        message: format!("inline fact for unknown relation `{}`", fact.relation),
                    })?;
            if schema.arity() != fact.values.len() {
                return Err(LobsterError::BadFact {
                    message: format!(
                        "inline fact for `{}` has arity {}, expected {}",
                        fact.relation,
                        fact.values.len(),
                        schema.arity()
                    ),
                });
            }
        }
        // Full structural validation of the compiled RAM: the front-end is
        // expected to always produce valid IR, but a validator failure here
        // (with rule provenance) beats executor misbehaviour at request time.
        if let Err(errors) = validate_program(&compiled.ram) {
            let rendered: Vec<String> = errors.iter().map(ToString::to_string).collect();
            return Err(LobsterError::Frontend(
                lobster_datalog::DatalogError::Semantic {
                    message: format!(
                        "compiled program failed IR validation:\n{}",
                        rendered.join("\n")
                    ),
                },
            ));
        }
        let diagnostics = lint_program(&compiled.ram);
        let cost_model = CostModel::analyze(&compiled.ram);
        let batched = batch_transform(&compiled.ram);
        let source_hash = Lobster::source_hash(&self.source);
        Ok(Program {
            artifact: Arc::new(ProgramArtifact {
                compiled,
                batched,
                source_hash,
                diagnostics,
                cost_model,
            }),
            device: self.device,
            options: self.options,
            _marker: PhantomData,
        })
    }
}

/// The immutable compiled artifact shared by every [`Program`] clone.
#[derive(Debug)]
pub(crate) struct ProgramArtifact {
    /// Parsed, stratified, RAM-compiled program.
    pub(crate) compiled: CompiledProgram,
    /// The batch-transformed RAM program (Section 4.3), computed once at
    /// compile time instead of on every `run_batch` call.
    pub(crate) batched: RamProgram,
    /// Stable hash of the source text this artifact was compiled from.
    pub(crate) source_hash: u64,
    /// The static-analysis lint report, computed once at compile time and
    /// shared by every clone (and cached alongside the program in
    /// `ProgramCache`).
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// Static per-relation cost weights for batch planners.
    pub(crate) cost_model: CostModel,
}

/// An immutable compiled Lobster program, generic over its provenance
/// semiring.
///
/// A `Program` holds no fact state and no registry: it is safe to share one
/// instance (or cheap clones of it) across threads and requests. Open a
/// [`Session`] per request with [`Program::session`], or run a whole batch
/// of independent samples in one fix-point with [`Program::run_batch`].
///
/// Built with [`Lobster::builder`]; see the crate-level docs for the full
/// workflow.
#[derive(Debug)]
pub struct Program<P: Provenance> {
    pub(crate) artifact: Arc<ProgramArtifact>,
    pub(crate) device: Device,
    pub(crate) options: RuntimeOptions,
    _marker: PhantomData<fn() -> P>,
}

impl<P: Provenance> Clone for Program<P> {
    fn clone(&self) -> Self {
        Program {
            artifact: Arc::clone(&self.artifact),
            device: self.device.clone(),
            options: self.options.clone(),
            _marker: PhantomData,
        }
    }
}

impl<P: Provenance> Program<P> {
    /// The device used for execution.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The runtime options in effect.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// A clone of this program bound to a different execution device. The
    /// compiled artifact is shared (`Arc`), so this is how one compilation
    /// is fanned out across several devices — see
    /// [`ShardedExecutor`](crate::ShardedExecutor).
    pub fn with_device(&self, device: Device) -> Program<P> {
        Program {
            artifact: Arc::clone(&self.artifact),
            device,
            options: self.options.clone(),
            _marker: PhantomData,
        }
    }

    /// The compiled RAM program.
    pub fn ram(&self) -> &RamProgram {
        &self.artifact.compiled.ram
    }

    /// The batch-transformed RAM program used by [`Program::run_batch`].
    pub fn batched_ram(&self) -> &RamProgram {
        &self.artifact.batched
    }

    /// The relations named in `query` declarations.
    pub fn queries(&self) -> &[String] {
        &self.artifact.compiled.queries
    }

    /// The stable hash of the source this program was compiled from; equals
    /// [`Lobster::source_hash`] of the original source text.
    pub fn source_hash(&self) -> u64 {
        self.artifact.source_hash
    }

    /// The static-analysis lint report for this program: validator errors
    /// (never present — compilation fails on them) plus structural warnings
    /// such as cartesian products, non-linear recursion, unused relations,
    /// constant-false filters, and dead rules, each with rule provenance.
    /// Computed once at compile time; cloning the program shares the report.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.artifact.diagnostics
    }

    /// The static cost model (per-relation weights) the sharded batch
    /// planner uses to refine fact-count costs.
    pub(crate) fn cost_model(&self) -> &CostModel {
        &self.artifact.cost_model
    }

    /// A deterministic estimate of the compiled artifact's resident size in
    /// bytes (the plain RAM program plus its batch-transformed variant).
    /// Serving-layer caches use this as the eviction weight.
    pub fn compiled_size_bytes(&self) -> usize {
        self.artifact.compiled.ram.size_estimate() + self.artifact.batched.size_estimate()
    }

    /// Interns a string constant, producing a `Value::Symbol` usable in
    /// facts. The interner is shared (and append-only) across all clones of
    /// this program and their sessions.
    pub fn symbol(&self, name: &str) -> Value {
        Value::Symbol(self.artifact.compiled.symbols.intern(name))
    }

    /// Checks every fact of `facts` against this program's relation schemas
    /// — the same unknown-relation and arity rules [`Session::add_fact`] and
    /// [`Program::run_batch`] enforce, exposed so a serving layer can reject
    /// a malformed request at submission instead of failing the batch it
    /// would have landed in.
    ///
    /// [`Session::add_fact`]: crate::Session::add_fact
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::BadFact`] for the first offending fact.
    pub fn validate_facts(&self, facts: &crate::FactSet) -> Result<(), LobsterError> {
        for (relation, values, _, _) in facts.facts() {
            let schema = self
                .ram()
                .schema(relation)
                .ok_or_else(|| LobsterError::BadFact {
                    message: format!("unknown relation `{relation}`"),
                })?;
            if schema.arity() != values.len() {
                return Err(LobsterError::BadFact {
                    message: format!(
                        "fact for `{relation}` has arity {}, expected {}",
                        values.len(),
                        schema.arity()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Creates the database a run of `ram` executes against: narrow
    /// dictionary-encoded storage when the program is eligible, full-width
    /// otherwise.
    ///
    /// Eligibility: programs applying arithmetic to `Symbol`/`Bool` operands
    /// (the `symbol-arithmetic` lint) treat raw interner ids as numbers, so
    /// their results are not invariant under re-encoding — they get
    /// full-width storage. Programs with `u32` arithmetic stay encoded but
    /// keep `u32` lanes at word width (see
    /// `lobster_ram::RelationLayout::plan`).
    pub(crate) fn new_database(&self, provenance: P, ram: &RamProgram) -> Database<P> {
        if ram.has_symbol_arithmetic() {
            Database::new(ram.schemas.clone(), provenance)
        } else {
            let spec = EncodingSpec {
                symbol_constants: ram.symbol_constants(),
                widen_u32: ram.has_u32_arithmetic(),
            };
            Database::new_encoded(ram.schemas.clone(), provenance, &spec)
        }
    }

    /// Runs `ram` against the sealed `db` with the given provenance
    /// instance. The whole program runs on the device, so the run records
    /// one host→device transfer of the input database and one device→host
    /// transfer of the fix point (Section 5.3's placement, with nothing left
    /// to place while there is a single executor).
    pub(crate) fn execute(
        &self,
        provenance: &P,
        db: &mut Database<P>,
        ram: &RamProgram,
    ) -> Result<ExecutionStats, LobsterError> {
        let executor = Executor::new(
            self.device.clone(),
            provenance.clone(),
            self.options.clone(),
        );
        self.device
            .record_transfer(TransferDirection::HostToDevice, db.size_bytes());
        let stats = executor.run_program(db, ram)?;
        self.device
            .record_transfer(TransferDirection::DeviceToHost, db.size_bytes());
        Ok(stats)
    }
}

impl<P: SessionProvenance> Program<P> {
    /// Opens a session: cheap per-request state holding this request's facts
    /// and its own input-fact registry. The program's inline facts are
    /// pre-registered.
    pub fn session(&self) -> Session<P> {
        let registry = InputFactRegistry::new();
        let provenance = P::bind(registry.clone());
        Session::new(self.clone(), provenance, registry)
    }

    /// Opens a session over an explicit provenance instance and registry —
    /// for custom provenance configuration (e.g. a non-default proof-size
    /// limit). The provenance must have been built over `registry`.
    pub fn session_with(&self, provenance: P, registry: InputFactRegistry) -> Session<P> {
        Session::new(self.clone(), provenance, registry)
    }

    /// A pool recycling this program's sessions across requests — acquired
    /// sessions are [`reset`](Session::reset) and returned on drop; see
    /// [`SessionPool`](crate::SessionPool).
    pub fn session_pool(&self) -> crate::SessionPool<Program<P>> {
        crate::SessionPool::new(self.clone())
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

    /// Runs a batch partitioned across `num_shards` devices derived from
    /// this program's device ([`lobster_gpu::Device::split_shards`]), each
    /// shard paying its own fix-point over its slice of the samples.
    /// Results are merged back into the caller's order and are identical to
    /// [`Program::run_batch`] — same tuples, probabilities, and (globally
    /// remapped) gradients.
    ///
    /// This is a one-off convenience: it builds a throwaway
    /// [`ShardedExecutor`](crate::ShardedExecutor) — persistent worker pool
    /// included — and tears it down before returning, so every call pays
    /// shard-thread spawn and join. When more than one batch will run, hold
    /// an executor (its workers then serve every batch) or tune skew/spill
    /// knobs through [`ShardConfig`](crate::ShardConfig) on it directly.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError`] on bad facts or execution failure.
    pub fn run_batch_sharded(
        &self,
        samples: &[crate::FactSet],
        num_shards: usize,
    ) -> Result<Vec<crate::RunResult>, LobsterError> {
        self.run_batch_sharded_with_stats(samples, num_shards)
            .map(|(results, _)| results)
    }

    /// Like [`Program::run_batch_sharded`], additionally reporting how the
    /// batch was partitioned and what each shard did
    /// ([`ShardRunStats`](crate::ShardRunStats) — chunk counts, steals,
    /// spills, per-shard device deltas).
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError`] on bad facts or execution failure.
    pub fn run_batch_sharded_with_stats(
        &self,
        samples: &[crate::FactSet],
        num_shards: usize,
    ) -> Result<(Vec<crate::RunResult>, crate::ShardRunStats), LobsterError> {
        crate::ShardedExecutor::new(
            self.clone(),
            crate::ShardConfig::default().with_num_shards(num_shards),
        )
        .run_batch_with_stats(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_provenance::Unit;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn programs_are_cheaply_cloneable_and_shareable() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let clone = program.clone();
        assert!(Arc::ptr_eq(&program.artifact, &clone.artifact));
        // Program is Send + Sync: usable from worker threads.
        fn assert_shareable<T: Send + Sync>(_: &T) {}
        assert_shareable(&program);
    }

    #[test]
    fn batch_transform_happens_once_at_compile_time() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        // The batched RAM has the sample column prepended: arity 3.
        assert_eq!(program.batched_ram().schema("edge").unwrap().arity(), 3);
        assert_eq!(program.ram().schema("edge").unwrap().arity(), 2);
    }

    #[test]
    fn builder_configures_device_options_and_scheduling() {
        let program = Lobster::builder(TC)
            .device(Device::sequential())
            .options(RuntimeOptions::unoptimized())
            .compile_typed::<Unit>()
            .unwrap();
        assert_eq!(program.device().parallelism(), 1);
        assert_eq!(program.options(), &RuntimeOptions::unoptimized());
    }

    #[test]
    fn source_hash_and_size_support_cache_keys() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        assert_eq!(program.source_hash(), Lobster::source_hash(TC));
        // Different sources hash differently (the cache key discriminates).
        assert_ne!(
            Lobster::source_hash(TC),
            Lobster::source_hash("type edge(x: u32, y: u32)\nquery edge")
        );
        // The size estimate is stable and monotone: the batched variant adds
        // a sample column, so the combined estimate exceeds the plain RAM's.
        assert_eq!(
            program.compiled_size_bytes(),
            Lobster::builder(TC)
                .compile_typed::<Unit>()
                .unwrap()
                .compiled_size_bytes()
        );
        assert!(program.compiled_size_bytes() > program.ram().size_estimate());
    }

    #[test]
    fn compile_without_provenance_kind_is_a_config_error() {
        let err = Lobster::builder(TC).compile().unwrap_err();
        assert!(matches!(err, LobsterError::Config { .. }));
        assert!(err.to_string().contains("provenance"));
    }

    #[test]
    fn diagnostics_ride_the_compiled_artifact() {
        // Linear transitive closure lints clean.
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        assert!(program.diagnostics().is_empty());

        // A declared-but-never-used relation surfaces as a warning, computed
        // once at compile time and shared by every clone of the artifact.
        let noisy = Lobster::builder(
            "type edge(x: u32, y: u32)
             type orphan(x: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .compile_typed::<Unit>()
        .unwrap();
        assert!(noisy
            .diagnostics()
            .iter()
            .any(|d| d.code == "unused-relation" && d.message.contains("orphan")));
        assert!(noisy
            .diagnostics()
            .iter()
            .all(|d| d.severity == crate::Severity::Warning));
    }

    #[test]
    fn cost_model_weights_join_heavy_relations_higher() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let model = program.cost_model();
        // `edge` feeds both the base rule and the recursive join; `path` only
        // the recursive side. Both outrank an unreferenced default.
        assert!(model.relation_weight("edge") > model.relation_weight("path"));
        assert!(model.relation_weight("path") > 1);
        assert_eq!(model.relation_weight("no_such_relation"), 1);
    }

    #[test]
    fn frontend_errors_surface() {
        assert!(matches!(
            Lobster::builder("rel x(").compile_typed::<Unit>(),
            Err(LobsterError::Frontend(_))
        ));
    }
}
