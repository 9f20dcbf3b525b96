//! The PacMan-Maze task: plan a safe next step from an image of the maze.
//!
//! The neural component predicts, for every grid cell, the probability that
//! the cell is *safe* (contains no enemy). The symbolic program finds which
//! of the four first moves from the actor's cell can still reach the goal
//! through safe cells, giving the agent its next action. The paper uses the
//! task both for training (reinforcement-style curriculum from 5×5 to 20×20
//! mazes) and as a scalability benchmark (Figure 10a scales the maze size).

use crate::WorkloadFacts;
use lobster::Value;
use rand::Rng;
use std::collections::VecDeque;

/// The PacMan planning program (14 rules).
pub const PROGRAM: &str = "
    type safe(x: u32, y: u32)
    type actor(x: u32, y: u32)
    type goal(x: u32, y: u32)
    // Legal single-step moves between safe cells (4 directions).
    rel move(x, y, xx, y) = safe(x, y), safe(xx, y), xx == x + 1
    rel move(x, y, xx, y) = safe(x, y), safe(xx, y), x == xx + 1
    rel move(x, y, x, yy) = safe(x, y), safe(x, yy), yy == y + 1
    rel move(x, y, x, yy) = safe(x, y), safe(x, yy), y == yy + 1
    // Cells the actor can reach through safe cells.
    rel reachable(x, y) = actor(x, y)
    rel reachable(x, y) = reachable(a, b), move(a, b, x, y)
    // Cells from which the goal is reachable through safe cells.
    rel can_reach(x, y) = goal(x, y)
    rel can_reach(x, y) = move(x, y, a, b), can_reach(a, b)
    // Whether the whole maze is solvable from the actor position.
    rel solvable() = reachable(x, y), goal(x, y)
    // The next action: 0 = right, 1 = left, 2 = down, 3 = up.
    rel action(0) = actor(x, y), move(x, y, xx, y), xx == x + 1, can_reach(xx, y)
    rel action(1) = actor(x, y), move(x, y, xx, y), x == xx + 1, can_reach(xx, y)
    rel action(2) = actor(x, y), move(x, y, x, yy), yy == y + 1, can_reach(x, yy)
    rel action(3) = actor(x, y), move(x, y, x, yy), y == yy + 1, can_reach(x, yy)
    // Staying put is also an action when the actor already sits on the goal.
    rel action(4) = actor(x, y), goal(x, y)
    rel done() = action(4)
    query action
    query solvable
";

/// One generated maze.
#[derive(Debug, Clone)]
pub struct PacmanSample {
    /// Maze side length.
    pub grid_size: u32,
    /// Per-cell safety probabilities, indexed `y * grid + x`.
    pub safety: Vec<f64>,
    /// Actor position.
    pub actor: (u32, u32),
    /// Goal position.
    pub goal: (u32, u32),
    /// Ground-truth optimal first actions (BFS over truly safe cells);
    /// encoded like the program's `action` relation.
    pub optimal_actions: Vec<u32>,
}

impl PacmanSample {
    /// The facts fed to the symbolic program.
    pub fn facts(&self) -> WorkloadFacts {
        let mut facts = WorkloadFacts::new();
        for y in 0..self.grid_size {
            for x in 0..self.grid_size {
                let p = self.safety[(y * self.grid_size + x) as usize];
                if p > 0.02 {
                    facts.push("safe", vec![Value::U32(x), Value::U32(y)], Some(p));
                }
            }
        }
        facts.push(
            "actor",
            vec![Value::U32(self.actor.0), Value::U32(self.actor.1)],
            None,
        );
        facts.push(
            "goal",
            vec![Value::U32(self.goal.0), Value::U32(self.goal.1)],
            None,
        );
        facts
    }
}

/// Generates a maze with a guaranteed safe corridor from actor to goal and a
/// few enemies elsewhere.
pub fn generate(grid_size: u32, rng: &mut impl Rng) -> PacmanSample {
    assert!(grid_size >= 3);
    let n = (grid_size * grid_size) as usize;
    let actor = (0u32, 0u32);
    let goal = (grid_size - 1, grid_size - 1);
    // True enemy placement: ~15% of cells, never on the L-shaped corridor.
    let mut enemy = vec![false; n];
    for y in 0..grid_size {
        for x in 0..grid_size {
            let on_corridor = y == 0 || x == grid_size - 1;
            if !on_corridor && rng.gen_bool(0.15) {
                enemy[(y * grid_size + x) as usize] = true;
            }
        }
    }
    // Predicted safety: confident but noisy.
    let safety: Vec<f64> = enemy
        .iter()
        .map(|&e| {
            if e {
                rng.gen_range(0.01..0.15)
            } else {
                rng.gen_range(0.85..0.99)
            }
        })
        .collect();

    // Ground-truth optimal actions via BFS over truly safe cells.
    let optimal_actions = optimal_first_moves(grid_size, &enemy, actor, goal);
    PacmanSample {
        grid_size,
        safety,
        actor,
        goal,
        optimal_actions,
    }
}

/// BFS distances from the goal over safe cells; returns the first moves from
/// the actor that lie on a shortest safe path.
fn optimal_first_moves(grid: u32, enemy: &[bool], actor: (u32, u32), goal: (u32, u32)) -> Vec<u32> {
    let idx = |x: u32, y: u32| (y * grid + x) as usize;
    let mut dist = vec![u32::MAX; (grid * grid) as usize];
    let mut queue = VecDeque::new();
    dist[idx(goal.0, goal.1)] = 0;
    queue.push_back(goal);
    while let Some((x, y)) = queue.pop_front() {
        let d = dist[idx(x, y)];
        let mut neighbors = Vec::new();
        if x + 1 < grid {
            neighbors.push((x + 1, y));
        }
        if x > 0 {
            neighbors.push((x - 1, y));
        }
        if y + 1 < grid {
            neighbors.push((x, y + 1));
        }
        if y > 0 {
            neighbors.push((x, y - 1));
        }
        for (nx, ny) in neighbors {
            if !enemy[idx(nx, ny)] && dist[idx(nx, ny)] == u32::MAX {
                dist[idx(nx, ny)] = d + 1;
                queue.push_back((nx, ny));
            }
        }
    }
    let (ax, ay) = actor;
    let here = dist[idx(ax, ay)];
    if here == u32::MAX {
        return Vec::new();
    }
    if (ax, ay) == goal {
        return vec![4];
    }
    let mut actions = Vec::new();
    let candidates: [(i64, i64, u32); 4] = [(1, 0, 0), (-1, 0, 1), (0, 1, 2), (0, -1, 3)];
    for (dx, dy, action) in candidates {
        let nx = ax as i64 + dx;
        let ny = ay as i64 + dy;
        if nx < 0 || ny < 0 || nx >= grid as i64 || ny >= grid as i64 {
            continue;
        }
        let (nx, ny) = (nx as u32, ny as u32);
        if !enemy[idx(nx, ny)] && dist[idx(nx, ny)] != u32::MAX && dist[idx(nx, ny)] < here {
            actions.push(action);
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::Lobster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn program_compiles_with_fourteen_rules() {
        let compiled = lobster_datalog::parse(PROGRAM).unwrap();
        let rules: usize = compiled.ram.strata.iter().map(|s| s.rules.len()).sum();
        assert!(
            rules >= 14,
            "expected at least 14 compiled rules, got {rules}"
        );
    }

    #[test]
    fn generated_maze_is_solvable_and_the_planner_agrees() {
        let mut rng = StdRng::seed_from_u64(42);
        let sample = generate(5, &mut rng);
        assert!(
            !sample.optimal_actions.is_empty(),
            "the corridor guarantees solvability"
        );
        let program = Lobster::builder(PROGRAM)
            .provenance(lobster::ProvenanceKind::DiffTop1Proof)
            .compile()
            .unwrap();
        let mut session = program.session();
        sample.facts().add_to_session(&mut session).unwrap();
        let result = session.run().unwrap();
        assert!(result.probability("solvable", &[]) > 0.2);
        // The planner's best-scoring action should be one of the ground-truth
        // optimal first moves.
        let best = result
            .relation("action")
            .iter()
            .max_by(|a, b| a.1.probability.total_cmp(&b.1.probability))
            .map(|(t, _)| t[0].as_u32().unwrap())
            .unwrap();
        assert!(
            sample.optimal_actions.contains(&best),
            "planner chose {best}, optimal set {:?}",
            sample.optimal_actions
        );
    }
}
