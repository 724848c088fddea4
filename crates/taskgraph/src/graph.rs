//! The macro-dataflow graph: tasks connected through timestamped channels.

use std::collections::HashSet;
use std::fmt;

use crate::cost::{CostModel, Micros, SizeModel};
use crate::decomp::DataParallelSpec;
use crate::ids::{ChanId, TaskId};
use crate::state::AppState;

/// One node of the task graph: a long-lived operator that, per timestamp,
/// consumes one item from each input channel and produces one item on each
/// output channel.
#[derive(Clone, Debug)]
pub struct Task {
    /// Human-readable name ("Digitizer", "Target Detection", …).
    pub name: String,
    /// Execution-time model.
    pub cost: CostModel,
    /// Data-parallel decomposition options, if the task supports them.
    pub dp: Option<DataParallelSpec>,
    /// Channels this task reads (one item per timestamp from each).
    pub inputs: Vec<ChanId>,
    /// Channels this task writes (one item per timestamp to each).
    pub outputs: Vec<ChanId>,
}

/// One edge-bundle of the graph: a timestamped stream with a single producer
/// and any number of consumers.
#[derive(Clone, Debug)]
pub struct ChannelSpec {
    /// Human-readable name ("Frame", "Motion Mask", …).
    pub name: String,
    /// Item size model (drives communication costs).
    pub item_size: SizeModel,
    /// The producing task (set when the producer connects).
    pub producer: Option<TaskId>,
    /// The consuming tasks.
    pub consumers: Vec<TaskId>,
}

/// Validation failures for a [`TaskGraph`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// A channel has no producing task.
    ChannelWithoutProducer(ChanId),
    /// A channel has no consumer, so its items would accumulate forever.
    ChannelWithoutConsumer(ChanId),
    /// The per-iteration dependence graph has a cycle through these tasks.
    Cycle(Vec<TaskId>),
    /// The graph has no source task (nothing generates timestamps).
    NoSource,
    /// Two tasks share a name, which would make traces ambiguous.
    DuplicateTaskName(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ChannelWithoutProducer(c) => write!(f, "channel {c} has no producer"),
            GraphError::ChannelWithoutConsumer(c) => write!(f, "channel {c} has no consumer"),
            GraphError::Cycle(ts) => write!(f, "dependence cycle through {ts:?}"),
            GraphError::NoSource => write!(f, "graph has no source task"),
            GraphError::DuplicateTaskName(n) => write!(f, "duplicate task name {n:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A complete application task graph.
///
/// Construct with [`TaskGraphBuilder`]; the pre-built color tracker of the
/// paper's Fig. 2 lives in [`crate::builders::color_tracker`].
#[derive(Clone, Debug)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    chans: Vec<ChannelSpec>,
}

impl TaskGraph {
    /// All tasks, indexed by [`TaskId`].
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All channels, indexed by [`ChanId`].
    #[must_use]
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.chans
    }

    /// The task with the given id.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// The channel with the given id.
    #[must_use]
    pub fn channel(&self, id: ChanId) -> &ChannelSpec {
        &self.chans[id.0]
    }

    /// Number of tasks.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Look up a task by name.
    #[must_use]
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// All task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Dependence edges `(producer, consumer, channel)` of the per-iteration
    /// DAG: one edge per (channel, consumer) pair.
    #[must_use]
    pub fn edges(&self) -> Vec<(TaskId, TaskId, ChanId)> {
        let mut out = Vec::new();
        for (ci, ch) in self.chans.iter().enumerate() {
            if let Some(p) = ch.producer {
                for &c in &ch.consumers {
                    out.push((p, c, ChanId(ci)));
                }
            }
        }
        out
    }

    /// Direct predecessors of `task` in the per-iteration DAG.
    #[must_use]
    pub fn predecessors(&self, task: TaskId) -> Vec<TaskId> {
        let mut preds: Vec<TaskId> = self.tasks[task.0]
            .inputs
            .iter()
            .filter_map(|c| self.chans[c.0].producer)
            .collect();
        preds.sort();
        preds.dedup();
        preds
    }

    /// Direct successors of `task` in the per-iteration DAG.
    #[must_use]
    pub fn successors(&self, task: TaskId) -> Vec<TaskId> {
        let mut succs: Vec<TaskId> = self.tasks[task.0]
            .outputs
            .iter()
            .flat_map(|c| self.chans[c.0].consumers.iter().copied())
            .collect();
        succs.sort();
        succs.dedup();
        succs
    }

    /// Tasks with no inputs (the digitizer in the tracker).
    #[must_use]
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.tasks[t.0].inputs.is_empty())
            .collect()
    }

    /// Tasks with no consumers of any output (model locations).
    #[must_use]
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.successors(t).is_empty())
            .collect()
    }

    /// Sum of all task costs in `state` (serial iteration time, ignoring
    /// decomposition and communication).
    #[must_use]
    pub fn total_work(&self, state: &AppState) -> Micros {
        self.tasks.iter().map(|t| t.cost.eval(state)).sum()
    }

    /// Check structural well-formedness. Returns the first problem found.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut names = HashSet::new();
        for t in &self.tasks {
            if !names.insert(t.name.as_str()) {
                return Err(GraphError::DuplicateTaskName(t.name.clone()));
            }
        }
        for (ci, ch) in self.chans.iter().enumerate() {
            if ch.producer.is_none() {
                return Err(GraphError::ChannelWithoutProducer(ChanId(ci)));
            }
            if ch.consumers.is_empty() {
                return Err(GraphError::ChannelWithoutConsumer(ChanId(ci)));
            }
        }
        // Kahn's algorithm; leftovers form a cycle.
        let mut indeg = vec![0usize; self.tasks.len()];
        for (_, to, _) in self.edges() {
            indeg[to.0] += 1;
        }
        let mut queue: Vec<TaskId> = self.task_ids().filter(|t| indeg[t.0] == 0).collect();
        let mut seen = 0usize;
        while let Some(t) = queue.pop() {
            seen += 1;
            for s in self.successors(t) {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    queue.push(s);
                }
            }
        }
        if seen != self.tasks.len() {
            let cyclic: Vec<TaskId> = self.task_ids().filter(|t| indeg[t.0] > 0).collect();
            return Err(GraphError::Cycle(cyclic));
        }
        if self.sources().is_empty() && !self.tasks.is_empty() {
            return Err(GraphError::NoSource);
        }
        Ok(())
    }
}

/// Incremental construction of a [`TaskGraph`].
#[derive(Default, Debug)]
pub struct TaskGraphBuilder {
    tasks: Vec<Task>,
    chans: Vec<ChannelSpec>,
}

impl TaskGraphBuilder {
    /// Start an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sequential task.
    pub fn task(&mut self, name: impl Into<String>, cost: CostModel) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            name: name.into(),
            cost,
            dp: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
        });
        id
    }

    /// Add a data-parallel task.
    pub fn dp_task(
        &mut self,
        name: impl Into<String>,
        cost: CostModel,
        dp: DataParallelSpec,
    ) -> TaskId {
        let id = self.task(name, cost);
        self.tasks[id.0].dp = Some(dp);
        id
    }

    /// Add a channel.
    pub fn channel(&mut self, name: impl Into<String>, item_size: SizeModel) -> ChanId {
        let id = ChanId(self.chans.len());
        self.chans.push(ChannelSpec {
            name: name.into(),
            item_size,
            producer: None,
            consumers: Vec::new(),
        });
        id
    }

    /// Declare `task` the producer of `chan`. Panics if the channel already
    /// has a producer (STM channels are single-writer in this model).
    pub fn produces(&mut self, task: TaskId, chan: ChanId) -> &mut Self {
        assert!(
            self.chans[chan.0].producer.is_none(),
            "channel {chan} already has a producer"
        );
        self.chans[chan.0].producer = Some(task);
        self.tasks[task.0].outputs.push(chan);
        self
    }

    /// Declare `task` a consumer of `chan`.
    pub fn consumes(&mut self, task: TaskId, chan: ChanId) -> &mut Self {
        assert!(
            !self.chans[chan.0].consumers.contains(&task),
            "task {task} already consumes {chan}"
        );
        self.chans[chan.0].consumers.push(task);
        self.tasks[task.0].inputs.push(chan);
        self
    }

    /// Finish construction (call [`TaskGraph::validate`] to check structure).
    #[must_use]
    pub fn build(self) -> TaskGraph {
        TaskGraph {
            tasks: self.tasks,
            chans: self.chans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // a → (x) → b,c → (y,z) → d
        let mut b = TaskGraphBuilder::new();
        let a = b.task("a", CostModel::Const(Micros(10)));
        let t_b = b.task("b", CostModel::Const(Micros(20)));
        let t_c = b.task("c", CostModel::Const(Micros(30)));
        let d = b.task("d", CostModel::Const(Micros(5)));
        let x = b.channel("x", SizeModel::Const(100));
        let y = b.channel("y", SizeModel::Const(100));
        let z = b.channel("z", SizeModel::Const(100));
        b.produces(a, x);
        b.consumes(t_b, x);
        b.consumes(t_c, x);
        b.produces(t_b, y);
        b.produces(t_c, z);
        b.consumes(d, y);
        b.consumes(d, z);
        b.build()
    }

    #[test]
    fn diamond_validates() {
        let g = diamond();
        g.validate().unwrap();
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
    }

    #[test]
    fn edges_and_neighbours() {
        let g = diamond();
        assert_eq!(g.edges().len(), 4);
        assert_eq!(g.predecessors(TaskId(3)), vec![TaskId(1), TaskId(2)]);
        assert_eq!(g.successors(TaskId(0)), vec![TaskId(1), TaskId(2)]);
        assert_eq!(g.predecessors(TaskId(0)), vec![]);
    }

    #[test]
    fn total_work_sums_costs() {
        let g = diamond();
        assert_eq!(g.total_work(&AppState::new(1)), Micros(65));
    }

    #[test]
    fn task_lookup_by_name() {
        let g = diamond();
        assert_eq!(g.task_by_name("c"), Some(TaskId(2)));
        assert_eq!(g.task_by_name("nope"), None);
    }

    #[test]
    fn missing_producer_detected() {
        let mut b = TaskGraphBuilder::new();
        let t = b.task("t", CostModel::Const(Micros(1)));
        let c = b.channel("orphan", SizeModel::Const(1));
        b.consumes(t, c);
        let g = b.build();
        assert_eq!(g.validate(), Err(GraphError::ChannelWithoutProducer(c)));
    }

    #[test]
    fn missing_consumer_detected() {
        let mut b = TaskGraphBuilder::new();
        let t = b.task("t", CostModel::Const(Micros(1)));
        let c = b.channel("sink", SizeModel::Const(1));
        b.produces(t, c);
        let g = b.build();
        assert_eq!(g.validate(), Err(GraphError::ChannelWithoutConsumer(c)));
    }

    #[test]
    fn cycle_detected() {
        let mut b = TaskGraphBuilder::new();
        let t1 = b.task("t1", CostModel::Const(Micros(1)));
        let t2 = b.task("t2", CostModel::Const(Micros(1)));
        let c1 = b.channel("c1", SizeModel::Const(1));
        let c2 = b.channel("c2", SizeModel::Const(1));
        b.produces(t1, c1);
        b.consumes(t2, c1);
        b.produces(t2, c2);
        b.consumes(t1, c2);
        let g = b.build();
        match g.validate() {
            Err(GraphError::Cycle(ts)) => assert_eq!(ts.len(), 2),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_detected() {
        let mut b = TaskGraphBuilder::new();
        b.task("same", CostModel::Const(Micros(1)));
        b.task("same", CostModel::Const(Micros(1)));
        let g = b.build();
        assert_eq!(
            g.validate(),
            Err(GraphError::DuplicateTaskName("same".into()))
        );
    }

    #[test]
    #[should_panic(expected = "already has a producer")]
    fn double_producer_panics() {
        let mut b = TaskGraphBuilder::new();
        let t1 = b.task("t1", CostModel::Const(Micros(1)));
        let t2 = b.task("t2", CostModel::Const(Micros(1)));
        let c = b.channel("c", SizeModel::Const(1));
        b.produces(t1, c);
        b.produces(t2, c);
    }

    #[test]
    fn error_display() {
        assert!(GraphError::NoSource.to_string().contains("no source"));
        assert!(GraphError::ChannelWithoutConsumer(ChanId(1))
            .to_string()
            .contains("C1"));
    }
}
