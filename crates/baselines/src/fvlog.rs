//! The FVLog stand-in: a GPU columnar engine without APM-level optimizations.

use crate::tuple::BaselineError;
use lobster_apm::{Database, ExecError, ExecutionStats, Executor, RuntimeOptions};
use lobster_gpu::Device;
use lobster_provenance::Unit;
use lobster_ram::RamProgram;
use std::collections::BTreeMap;

/// The output of an FVLog run: encoded tuples per relation.
pub type FvlogDatabase = BTreeMap<String, Vec<Vec<u64>>>;

/// A discrete-only, GPU (simulated) columnar Datalog engine standing in for
/// FVLog. It shares Lobster's device, kernels and packed storage but, like
/// FVLog, has no
/// intermediate representation to optimize over: hash indices are rebuilt on
/// every fix-point iteration, per-iteration buffers are not reused, and no
/// provenance is supported.
#[derive(Debug, Clone)]
pub struct FvlogEngine {
    device: Device,
    options: RuntimeOptions,
}

impl Default for FvlogEngine {
    fn default() -> Self {
        Self::new(Device::default())
    }
}

impl FvlogEngine {
    /// Creates the engine on the given device.
    pub fn new(device: Device) -> Self {
        FvlogEngine {
            device,
            options: RuntimeOptions::unoptimized(),
        }
    }

    /// Sets the wall-clock budget in milliseconds.
    pub fn with_timeout_ms(mut self, timeout: Option<u64>) -> Self {
        self.options = self.options.with_timeout_ms(timeout);
        self
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Runs a (discrete) RAM program and returns the tuples of every
    /// relation, plus execution statistics.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Timeout`] on timeout and propagates device
    /// out-of-memory failures as [`ExecError`] wrapped in the `Err` variant.
    pub fn run(
        &self,
        ram: &RamProgram,
        facts: &[(String, Vec<u64>)],
    ) -> Result<(FvlogDatabase, ExecutionStats), FvlogError> {
        let mut db = Database::new(ram.schemas.clone(), Unit::new());
        for (rel, row) in facts {
            db.insert_encoded(rel, row, ());
        }
        db.seal(&self.device);
        let executor = Executor::new(self.device.clone(), Unit::new(), self.options.clone());
        let stats = executor
            .run_program(&mut db, ram)
            .map_err(FvlogError::Execution)?;
        let mut out = BTreeMap::new();
        for rel in ram.schemas.keys() {
            let rows: Vec<Vec<u64>> = db
                .rows(rel)
                .into_iter()
                .map(|(tuple, _)| tuple.iter().map(|v| v.encode()).collect())
                .collect();
            out.insert(rel.clone(), rows);
        }
        Ok((out, stats))
    }
}

/// Errors produced by the FVLog stand-in.
#[derive(Debug, Clone, PartialEq)]
pub enum FvlogError {
    /// Execution failed (OOM or timeout on the device).
    Execution(ExecError),
    /// A baseline-level failure.
    Baseline(BaselineError),
}

impl std::fmt::Display for FvlogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FvlogError::Execution(e) => write!(f, "{e}"),
            FvlogError::Baseline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FvlogError {}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_datalog::parse;
    use lobster_gpu::DeviceConfig;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn fvlog_computes_transitive_closure() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>)> = (0..6u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1]))
            .collect();
        let engine = FvlogEngine::new(Device::sequential());
        let (db, stats) = engine.run(&compiled.ram, &facts).unwrap();
        assert_eq!(db["path"].len(), 21);
        assert!(stats.kernel_launches > 0);
    }

    #[test]
    fn fvlog_runs_out_of_memory_on_tight_budgets() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>)> = (0..500u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1]))
            .collect();
        let device = Device::new(DeviceConfig {
            memory_limit: Some(10_000),
            ..DeviceConfig::default()
        });
        let engine = FvlogEngine::new(device);
        assert!(matches!(
            engine.run(&compiled.ram, &facts),
            Err(FvlogError::Execution(ExecError::Device(_)))
        ));
    }

    #[test]
    fn fvlog_never_reuses_indices() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>)> = (0..50u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1]))
            .collect();
        let fvlog_device = Device::sequential();
        let (_, _) = FvlogEngine::new(fvlog_device.clone())
            .run(&compiled.ram, &facts)
            .unwrap();
        // Count build kernels: FVLog rebuilds per iteration, so there must be
        // roughly one build per iteration; Lobster with static registers
        // builds once per join.
        let fvlog_kernels = fvlog_device.metrics().get("kernel_launches").unwrap();
        let lobster_device = Device::sequential();
        let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
        for (rel, row) in &facts {
            db.insert_encoded(rel, row, ());
        }
        db.seal(&lobster_device);
        let exec = Executor::new(
            lobster_device.clone(),
            Unit::new(),
            RuntimeOptions::optimized(),
        );
        exec.run_program(&mut db, &compiled.ram).unwrap();
        let lobster_kernels = lobster_device.metrics().get("kernel_launches").unwrap();
        assert!(
            lobster_kernels < fvlog_kernels,
            "optimized run should launch fewer kernels ({lobster_kernels} vs {fvlog_kernels})"
        );
    }
}
