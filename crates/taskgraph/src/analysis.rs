//! Static analyses over the per-iteration DAG: topological order, critical
//! path (span), and work/span-derived bounds used by the scheduler's
//! branch-and-bound and by the initiation-interval search.

use crate::cost::Micros;
use crate::graph::TaskGraph;
use crate::ids::TaskId;
use crate::state::AppState;

/// The longest cost-weighted path through the DAG for a given state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CriticalPath {
    /// Total cost along the path.
    pub length: Micros,
    /// Tasks on the path in dependence order.
    pub tasks: Vec<TaskId>,
}

/// Cached analysis results for one (graph, state) pair.
#[derive(Clone, Debug)]
pub struct GraphAnalysis {
    topo: Vec<TaskId>,
    /// `bottom[t]` = longest path cost from the *start* of `t` to any sink
    /// end (inclusive of `t`'s own cost) — the branch-and-bound lower bound.
    bottom: Vec<Micros>,
    work: Micros,
    critical: CriticalPath,
}

impl GraphAnalysis {
    /// Analyse `graph` under `state`. Panics if the graph is cyclic —
    /// validate first.
    #[must_use]
    pub fn new(graph: &TaskGraph, state: &AppState) -> Self {
        let topo = topo_sort(graph);
        assert_eq!(
            topo.len(),
            graph.n_tasks(),
            "graph must be acyclic (validate() first)"
        );
        let costs: Vec<Micros> = graph.tasks().iter().map(|t| t.cost.eval(state)).collect();

        let mut bottom = vec![Micros::ZERO; graph.n_tasks()];
        let mut next_on_path: Vec<Option<TaskId>> = vec![None; graph.n_tasks()];
        for &t in topo.iter().rev() {
            let mut best = Micros::ZERO;
            let mut best_succ = None;
            for s in graph.successors(t) {
                if bottom[s.0] > best {
                    best = bottom[s.0];
                    best_succ = Some(s);
                }
            }
            bottom[t.0] = costs[t.0] + best;
            next_on_path[t.0] = best_succ;
        }

        let start = graph
            .task_ids()
            .max_by_key(|t| bottom[t.0])
            .expect("non-empty graph");
        let mut tasks = vec![start];
        while let Some(next) = next_on_path[tasks.last().unwrap().0] {
            tasks.push(next);
        }
        let critical = CriticalPath {
            length: bottom[start.0],
            tasks,
        };

        GraphAnalysis {
            topo,
            bottom,
            work: costs.into_iter().sum(),
            critical,
        }
    }

    /// A topological order of the tasks.
    #[must_use]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Longest path from the start of `t` through the DAG (the classic
    /// "bottom level" priority of list scheduling).
    #[must_use]
    pub fn bottom_level(&self, t: TaskId) -> Micros {
        self.bottom[t.0]
    }

    /// Total sequential work.
    #[must_use]
    pub fn work(&self) -> Micros {
        self.work
    }

    /// The critical path (span). No schedule, on any number of processors,
    /// can beat this latency without decomposing tasks.
    #[must_use]
    pub fn critical_path(&self) -> &CriticalPath {
        &self.critical
    }

    /// Lower bound on makespan with `p` processors:
    /// `max(span, ceil(work / p))`.
    #[must_use]
    pub fn makespan_lower_bound(&self, p: u32) -> Micros {
        self.critical.length.max(self.work.div_ceil(u64::from(p)))
    }
}

/// Kahn topological sort with deterministic (task-id) tie-breaking. Returns
/// fewer than `n_tasks` entries if the graph is cyclic.
#[must_use]
pub(crate) fn topo_sort(graph: &TaskGraph) -> Vec<TaskId> {
    let mut indeg = vec![0usize; graph.n_tasks()];
    for (_, to, _) in graph.edges() {
        indeg[to.0] += 1;
    }
    // BinaryHeap of Reverse would work; a sorted Vec is simpler at this size.
    let mut ready: Vec<TaskId> = graph.task_ids().filter(|t| indeg[t.0] == 0).collect();
    ready.sort();
    let mut out = Vec::with_capacity(graph.n_tasks());
    while !ready.is_empty() {
        let t = ready.remove(0);
        out.push(t);
        for s in graph.successors(t) {
            indeg[s.0] -= 1;
            if indeg[s.0] == 0 {
                let pos = ready.binary_search(&s).unwrap_err();
                ready.insert(pos, s);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::cost::CostModel;
    use crate::graph::TaskGraphBuilder;
    use crate::SizeModel;

    fn chain(costs: &[u64]) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let ids: Vec<TaskId> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| b.task(format!("t{i}"), CostModel::Const(Micros(c))))
            .collect();
        for w in ids.windows(2) {
            let c = b.channel(format!("c{}", w[0]), SizeModel::Const(1));
            b.produces(w[0], c);
            b.consumes(w[1], c);
        }
        b.build()
    }

    #[test]
    fn chain_critical_path_is_total() {
        let g = chain(&[10, 20, 30]);
        let a = GraphAnalysis::new(&g, &AppState::new(1));
        assert_eq!(a.critical_path().length, Micros(60));
        assert_eq!(a.work(), Micros(60));
        assert_eq!(
            a.critical_path().tasks,
            vec![TaskId(0), TaskId(1), TaskId(2)]
        );
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = builders::color_tracker();
        let order = topo_sort(&g);
        assert_eq!(order.len(), g.n_tasks());
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for (from, to, _) in g.edges() {
            assert!(pos(from) < pos(to), "{from} must precede {to}");
        }
    }

    #[test]
    fn bottom_levels_decrease_along_edges() {
        let g = builders::color_tracker();
        let a = GraphAnalysis::new(&g, &AppState::new(4));
        for (from, to, _) in g.edges() {
            assert!(a.bottom_level(from) > a.bottom_level(to));
        }
    }

    #[test]
    fn tracker_critical_path_grows_with_models() {
        let g = builders::color_tracker();
        let a1 = GraphAnalysis::new(&g, &AppState::new(1));
        let a8 = GraphAnalysis::new(&g, &AppState::new(8));
        assert!(a8.critical_path().length > a1.critical_path().length);
        // T4 (target detection) dominates and must sit on the path.
        let t4 = g.task_by_name("Target Detection").unwrap();
        assert!(a8.critical_path().tasks.contains(&t4));
    }

    #[test]
    fn makespan_lower_bound_transitions_from_work_to_span() {
        // Two parallel branches of cost 50 after a source of 10.
        let mut b = TaskGraphBuilder::new();
        let s = b.task("s", CostModel::Const(Micros(10)));
        let x = b.task("x", CostModel::Const(Micros(50)));
        let y = b.task("y", CostModel::Const(Micros(50)));
        let sink = b.task("k", CostModel::Const(Micros(0)));
        let c1 = b.channel("c1", SizeModel::Const(1));
        let c2 = b.channel("c2", SizeModel::Const(1));
        let c3 = b.channel("c3", SizeModel::Const(1));
        let c4 = b.channel("c4", SizeModel::Const(1));
        b.produces(s, c1);
        b.consumes(x, c1);
        b.produces(s, c2);
        b.consumes(y, c2);
        b.produces(x, c3);
        b.consumes(sink, c3);
        b.produces(y, c4);
        b.consumes(sink, c4);
        let g = b.build();
        let a = GraphAnalysis::new(&g, &AppState::new(1));
        assert_eq!(a.work(), Micros(110));
        assert_eq!(a.critical_path().length, Micros(60));
        assert_eq!(a.makespan_lower_bound(1), Micros(110));
        assert_eq!(a.makespan_lower_bound(2), Micros(60));
        assert_eq!(a.makespan_lower_bound(16), Micros(60));
    }

    #[test]
    fn cyclic_graph_topo_is_partial() {
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
        assert!(topo_sort(&g).is_empty());
    }
}
