//! End-to-end neurosymbolic training harness used by the Figure 3e / Figure 8
//! reproductions.
//!
//! The pipeline mirrors the paper's training setup: a small perception model
//! (an MLP over per-fact feature vectors, standing in for the CNN /
//! transformer encoders) produces the probability of every probabilistic
//! input fact; the symbolic program computes the probability of the target
//! tuple; binary cross entropy against the sample label is back-propagated
//! through the symbolic layer (via the provenance gradients) into the model.
//! The harness runs the identical loop with Lobster or with the Scallop
//! baseline as the symbolic engine, and reports the wall-clock time.

use lobster::{
    DiffTop1Proof, InputFactId, InputFactRegistry, Lobster, Provenance, ProvenanceKind, Session,
    Value,
};
use lobster_baselines::ScallopEngine;
use lobster_neural::{bce_grad, bce_loss, Activation, Adam, Mlp};
use lobster_workloads::{clutrr, hwf, pacman, pathfinder, WorkloadFacts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Number of features the perception model sees per fact.
pub const FEATURES: usize = 8;

/// Which symbolic engine executes the logic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// This work (GPU-simulated APM runtime).
    Lobster,
    /// The CPU tuple-at-a-time baseline.
    Scallop,
}

/// One training sample.
#[derive(Debug, Clone)]
pub struct TrainSample {
    /// The input facts; probabilistic facts get their probabilities replaced
    /// by the model's predictions every step.
    pub facts: WorkloadFacts,
    /// Target probability of the target tuple (1 = positive sample).
    pub label: f64,
    /// Relation of the supervised output tuple.
    pub target_relation: String,
    /// The supervised output tuple.
    pub target_tuple: Vec<Value>,
}

/// A training task: a program plus its samples.
#[derive(Debug, Clone)]
pub struct TrainingTask {
    /// Task name (matches the paper's figure labels).
    pub name: &'static str,
    /// The Datalog program.
    pub program: &'static str,
    /// The samples of the (synthetic) training set.
    pub samples: Vec<TrainSample>,
}

/// The result of one training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Wall-clock time of the training loop.
    pub elapsed: Duration,
    /// Mean loss over the last epoch.
    pub final_loss: f64,
}

/// Deterministic per-fact feature vector (stands in for the raw image / text
/// features the real perception model would see).
fn features_of(relation: &str, tuple: &[Value], sample: usize) -> Vec<f32> {
    let mut hash: u64 = 0xcbf29ce484222325 ^ sample as u64;
    for b in relation.bytes() {
        hash = hash.wrapping_mul(0x100000001b3) ^ u64::from(b);
    }
    for v in tuple {
        hash = hash.wrapping_mul(0x100000001b3) ^ v.encode();
    }
    (0..FEATURES)
        .map(|i| {
            let h = hash.rotate_left(i as u32 * 8) & 0xFFFF;
            (h as f32) / 65535.0
        })
        .collect()
}

/// Builds the Pathfinder training task.
pub fn pathfinder_task(samples: usize, grid: u32, rng: &mut StdRng) -> TrainingTask {
    let samples = (0..samples)
        .map(|i| {
            let sample = pathfinder::generate(grid, i % 2 == 0, rng);
            TrainSample {
                facts: sample.facts(),
                label: if sample.label { 1.0 } else { 0.0 },
                target_relation: "endpoints_connected".to_string(),
                target_tuple: vec![],
            }
        })
        .collect();
    TrainingTask {
        name: "Pathfinder",
        program: pathfinder::PROGRAM,
        samples,
    }
}

/// Builds the PacMan training task.
pub fn pacman_task(samples: usize, grid: u32, rng: &mut StdRng) -> TrainingTask {
    let samples = (0..samples)
        .map(|_| {
            let sample = pacman::generate(grid, rng);
            TrainSample {
                facts: sample.facts(),
                label: 1.0,
                target_relation: "solvable".to_string(),
                target_tuple: vec![],
            }
        })
        .collect();
    TrainingTask {
        name: "Pacman",
        program: pacman::PROGRAM,
        samples,
    }
}

/// Builds the HWF training task.
pub fn hwf_task(samples: usize, digits: usize, rng: &mut StdRng) -> TrainingTask {
    let samples = (0..samples)
        .map(|_| {
            let sample = hwf::generate(digits, rng);
            TrainSample {
                facts: sample.facts(),
                label: 1.0,
                target_relation: "result".to_string(),
                target_tuple: vec![Value::F64(sample.expected)],
            }
        })
        .collect();
    TrainingTask {
        name: "HWF",
        program: hwf::PROGRAM,
        samples,
    }
}

/// Builds the CLUTRR training task.
pub fn clutrr_task(samples: usize, chain: usize, rng: &mut StdRng) -> TrainingTask {
    let samples = (0..samples)
        .filter_map(|_| {
            let sample = clutrr::generate(chain, rng);
            let answer = sample.answer?;
            Some(TrainSample {
                facts: sample.facts(),
                label: 1.0,
                target_relation: "answer".to_string(),
                target_tuple: vec![Value::U32(answer)],
            })
        })
        .collect();
    TrainingTask {
        name: "CLUTTR",
        program: clutrr::PROGRAM,
        samples,
    }
}

/// Runs the end-to-end training loop for `epochs` epochs and reports the
/// wall-clock time (symbolic + neural, as in the paper's Figure 8).
///
/// # Panics
///
/// Panics if the task's program fails to compile or its facts are malformed.
pub fn run_training(task: &TrainingTask, engine: Engine, epochs: usize) -> TrainingReport {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut model = Mlp::new(&[FEATURES, 16, 1], Activation::Sigmoid, &mut rng);
    let mut optimizer = Adam::new(0.01);
    let ram = lobster_datalog::parse(task.program)
        .expect("training program compiles")
        .ram;

    // Compile the program once and open one cheap session per sample
    // (program compilation is not part of the per-step cost for either
    // engine, and all sessions share the same compiled artifact).
    // A session per sample plus the (fact index, registered id) pairs of
    // its probabilistic facts.
    type SampleSession = (Session, Vec<(usize, InputFactId)>);
    let mut lobster_sessions: Vec<SampleSession> = Vec::new();
    if engine == Engine::Lobster {
        let program = Lobster::builder(task.program)
            .provenance(ProvenanceKind::DiffTop1Proof)
            .compile()
            .expect("training program compiles");
        for sample in &task.samples {
            let mut session = program.session();
            let mut prob_facts = Vec::new();
            for (i, (rel, values, prob)) in sample.facts.facts.iter().enumerate() {
                let id = session.add_fact(rel, values, *prob).expect("valid fact");
                if prob.is_some() {
                    prob_facts.push((i, id));
                }
            }
            lobster_sessions.push((session, prob_facts));
        }
    }

    let start = Instant::now();
    let mut last_epoch_loss = 0.0;
    for _epoch in 0..epochs {
        let mut epoch_loss = 0.0;
        for (si, sample) in task.samples.iter().enumerate() {
            // 1. Perception: predict the probability of every probabilistic fact.
            let prob_fact_indices: Vec<usize> = sample
                .facts
                .facts
                .iter()
                .enumerate()
                .filter(|(_, (_, _, p))| p.is_some())
                .map(|(i, _)| i)
                .collect();
            let mut predictions = Vec::with_capacity(prob_fact_indices.len());
            for &i in &prob_fact_indices {
                let (rel, values, _) = &sample.facts.facts[i];
                let feats = features_of(rel, values, si);
                predictions.push(model.forward(&feats)[0] as f64);
            }

            // 2. Symbolic execution with those probabilities.
            let (prediction, gradient): (f64, HashMap<usize, f64>) = match engine {
                Engine::Lobster => {
                    let (session, prob_facts) = &lobster_sessions[si];
                    for (k, (_, id)) in prob_facts.iter().enumerate() {
                        session.set_fact_probability(*id, predictions[k]);
                    }
                    let result = session.run().expect("training run succeeds");
                    let p = result.probability(&sample.target_relation, &sample.target_tuple);
                    let id_to_index: HashMap<InputFactId, usize> =
                        prob_facts.iter().map(|(i, id)| (*id, *i)).collect();
                    let grad = result
                        .gradient(&sample.target_relation, &sample.target_tuple)
                        .into_iter()
                        .filter_map(|(id, g)| id_to_index.get(&id).map(|&i| (i, g)))
                        .collect();
                    (p, grad)
                }
                Engine::Scallop => {
                    let registry = InputFactRegistry::new();
                    let prov = DiffTop1Proof::new(registry.clone());
                    let mut facts = Vec::with_capacity(sample.facts.facts.len());
                    let mut id_to_index = HashMap::new();
                    let mut prediction_index = 0usize;
                    for (i, (rel, values, prob)) in sample.facts.facts.iter().enumerate() {
                        let prob = prob.map(|_| {
                            let p = predictions[prediction_index];
                            prediction_index += 1;
                            p
                        });
                        let id = registry.register(prob, None);
                        id_to_index.insert(id, i);
                        let tag = prov.input_tag(id, prob);
                        facts.push((
                            rel.clone(),
                            values.iter().map(Value::encode).collect::<Vec<u64>>(),
                            tag,
                        ));
                    }
                    let scallop = ScallopEngine::new(prov.clone());
                    let db = scallop.run(&ram, &facts).expect("baseline run succeeds");
                    let key: Vec<u64> = sample.target_tuple.iter().map(Value::encode).collect();
                    let (p, grad) = db
                        .get(&sample.target_relation)
                        .and_then(|rel| rel.get(&key))
                        .map(|tag| {
                            let out = prov.output(tag);
                            let grad = out
                                .gradient
                                .into_iter()
                                .filter_map(|(id, g)| id_to_index.get(&id).map(|&i| (i, g)))
                                .collect();
                            (out.probability, grad)
                        })
                        .unwrap_or((0.0, HashMap::new()));
                    (p, grad)
                }
            };

            // 3. Loss and back-propagation through the symbolic layer into
            //    the perception model.
            epoch_loss += bce_loss(prediction as f32, sample.label as f32) as f64;
            let dl_dp =
                f64::from(bce_grad(prediction as f32, sample.label as f32).clamp(-5.0, 5.0));
            for (k, &fact_index) in prob_fact_indices.iter().enumerate() {
                let d_fact = gradient.get(&fact_index).copied().unwrap_or(0.0);
                if d_fact == 0.0 {
                    continue;
                }
                let (rel, values, _) = &sample.facts.facts[fact_index];
                let feats = features_of(rel, values, si);
                let _ = model.forward(&feats);
                model.backward(&[(dl_dp * d_fact) as f32]);
                let _ = k;
            }
            model.apply_gradients(&mut optimizer);
        }
        last_epoch_loss = epoch_loss / task.samples.len().max(1) as f64;
    }
    TrainingReport {
        elapsed: start.elapsed(),
        final_loss: last_epoch_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_runs_with_both_engines_and_produces_finite_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let task = pathfinder_task(2, 4, &mut rng);
        for engine in [Engine::Lobster, Engine::Scallop] {
            let report = run_training(&task, engine, 1);
            assert!(report.final_loss.is_finite());
            assert!(report.elapsed.as_nanos() > 0);
        }
    }

    #[test]
    fn task_builders_produce_samples() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(pathfinder_task(3, 4, &mut rng).samples.len(), 3);
        assert_eq!(pacman_task(2, 4, &mut rng).samples.len(), 2);
        assert_eq!(hwf_task(2, 3, &mut rng).samples.len(), 2);
        assert!(!clutrr_task(3, 3, &mut rng).samples.is_empty());
        assert_eq!(features_of("edge", &[Value::U32(1)], 0).len(), FEATURES);
    }
}
