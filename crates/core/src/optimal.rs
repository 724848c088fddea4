//! The paper's scheduling algorithm (Fig. 6):
//!
//! > Compute the minimal latency `L` for a single iteration.
//! > Compute the set `S` of all single-iteration schedules that exhibit
//! > latency `L`.
//! > Compute the multi-iteration schedule `M`, created from multiple
//! > instances of a schedule from `S`.
//!
//! "Notice that the algorithm is not a heuristic … our applications have a
//! very small number of tasks. Even if we include the various data parallel
//! options for any given task, we still have a manageable number of options.
//! Since the resulting schedule will be operating for months, we can afford
//! to evaluate all legal schedules and choose the best one."
//!
//! The search enumerates, per candidate data decomposition, all *semi-active*
//! single-iteration schedules (each instance starts as early as its
//! processor and dependences allow; deliberately inserted idle time can
//! never reduce latency) via depth-first branch-and-bound:
//!
//! * the incumbent is seeded with the list schedule so pruning bites from
//!   the first branch;
//! * the bound is `start + bottom_level` (communication excluded, hence a
//!   true lower bound);
//! * identical chunks of one task are interchangeable, so only the
//!   lowest-indexed unplaced chunk branches;
//! * processors that are indistinguishable (same node, same ready time) are
//!   branched once;
//! * placements are generated in non-decreasing start order, so each
//!   schedule is visited essentially once;
//! * partial schedules that are *dominated* — same set of placed instances
//!   on the same processors, with every finish time and the start-order
//!   watermark pointwise no earlier than a previously seen partial — are
//!   pruned via a bounded memo table ([`OptimalConfig::dominance_cap`]).
//!
//! The per-decomposition searches are independent, so they fan out across
//! worker threads ([`OptimalConfig::threads`]); the incumbent latency bound
//! is shared through an atomic so a fast decomposition prunes the slow
//! ones. The parallel search returns the same minimal latency `L` as the
//! serial one (the property tests assert this); the tie set `S` may differ
//! in membership order when ties race, which is why results are merged in
//! deterministic decomposition order.
//!
//! The node budget is a backstop, not a tuning knob: if it is exceeded the
//! result is flagged `complete = false` and the affected decomposition falls
//! back to its list schedule.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use cluster::{ClusterSpec, ProcId};
use taskgraph::{AppState, Decomposition, Micros, TaskGraph, TaskId};

use crate::expand::ExpandedGraph;
use crate::ii::find_best_ii;
use crate::listsched::list_schedule;
use crate::schedule::{IterationSchedule, PipelinedSchedule, Placement};

/// Search configuration.
#[derive(Clone, Debug)]
pub struct OptimalConfig {
    /// Cap on the number of minimal-latency schedules retained in `S`.
    pub max_schedules: usize,
    /// Search-node budget per decomposition (backstop against blowup).
    pub max_nodes: u64,
    /// Explore data-parallel decompositions (`false` = serial tasks only,
    /// the "task parallelism only" setting of Fig. 5(a)).
    pub explore_decompositions: bool,
    /// Worker threads for the per-decomposition fan-out. `0` means one per
    /// available CPU; `1` runs the whole search on the calling thread.
    pub threads: usize,
    /// Cap on retained dominance-memo entries per decomposition search
    /// (`0` disables the dominance prune entirely).
    pub dominance_cap: usize,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        OptimalConfig {
            max_schedules: 32,
            max_nodes: 2_000_000,
            explore_decompositions: true,
            threads: 0,
            dominance_cap: 100_000,
        }
    }
}

impl OptimalConfig {
    /// The configured thread count resolved against the host.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// This config with the fan-out disabled (single-threaded search).
    #[must_use]
    pub fn serial(&self) -> Self {
        OptimalConfig {
            threads: 1,
            ..self.clone()
        }
    }
}

/// The outcome of the Fig. 6 algorithm for one state.
#[derive(Clone, Debug)]
pub struct OptimalResult {
    /// The multi-iteration schedule `M`: a minimal-latency iteration from
    /// `S` pipelined at the smallest feasible initiation interval.
    pub best: PipelinedSchedule,
    /// The minimal latency `L`.
    pub minimal_latency: Micros,
    /// How many distinct minimal-latency schedules were collected into `S`
    /// (across all decompositions, capped at `max_schedules`).
    pub candidates: usize,
    /// Total branch-and-bound nodes explored.
    pub nodes_explored: u64,
    /// Decompositions skipped outright because their makespan lower bound
    /// exceeded the shared incumbent.
    pub combos_pruned: usize,
    /// Partial schedules pruned by the dominance memo.
    pub dominance_prunes: u64,
    /// False if any decomposition hit the node budget (its exploration fell
    /// back to the list schedule, so optimality is no longer guaranteed).
    pub complete: bool,
}

/// What one decomposition search produced (sent back to the merge step).
struct ComboOutcome {
    /// Candidate schedules: what the search collected, or the list-schedule
    /// fallback when the search was truncated or collected nothing.
    found: Vec<IterationSchedule>,
    nodes: u64,
    truncated: bool,
    dominance_prunes: u64,
    /// True when the combo was skipped via the shared-incumbent bound.
    pruned: bool,
}

/// Run the Fig. 6 algorithm for `state` on `cluster`.
#[must_use]
pub fn optimal_schedule(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    state: &AppState,
    cfg: &OptimalConfig,
) -> OptimalResult {
    optimal_schedule_warm(graph, cluster, state, cfg, None)
}

/// [`optimal_schedule`] warm-started from a previous incumbent for the same
/// regime, e.g. when re-searching a state whose costs were re-measured.
///
/// The warm schedule's *placements* are not reused (a re-search under
/// changed costs makes the old start times stale), but two things carry
/// over:
///
/// * the warm schedule's decomposition is searched **first**, ahead of the
///   lower-bound ordering — under moderate cost changes the optimal
///   decomposition rarely changes, so the best combo seeds the incumbent
///   immediately;
/// * its list-schedule latency is installed into the shared incumbent
///   *before* the fan-out starts, so every worker's dominated-combo prune
///   (`lb > incumbent`) bites from the very first queue pull instead of
///   only after some combo finishes seeding.
///
/// A `warm` whose decomposition is not among the current combos (e.g. the
/// state clamps a variant away) degrades silently to a cold search.
#[must_use]
pub fn optimal_schedule_warm(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    state: &AppState,
    cfg: &OptimalConfig,
    warm: Option<&PipelinedSchedule>,
) -> OptimalResult {
    let combos = decomposition_combos(graph, state, cfg.explore_decompositions);

    // Expand every combo and order by its makespan lower bound: good
    // decompositions search first, so the dominated-combo prune below
    // eliminates most of the cartesian product (graphs with several DP
    // tasks have hundreds of combos).
    let mut expansions: Vec<(Micros, ExpandedGraph)> = combos
        .into_iter()
        .map(|decomp| {
            let expanded = ExpandedGraph::build(graph, state, &decomp);
            let lb = expanded
                .span()
                .max(expanded.work().div_ceil(u64::from(cluster.n_procs())));
            (lb, expanded)
        })
        .collect();
    expansions.sort_by_key(|(lb, e)| (*lb, e.len()));

    // The incumbent latency bound, shared across all decomposition
    // searches (and across worker threads): monotonically decreasing, only
    // ever set from the latency of an actual legal schedule, so `lb >
    // incumbent` proves a decomposition cannot contribute to `S`.
    let incumbent = AtomicU64::new(u64::MAX);

    if let Some(w) = warm {
        if let Some(pos) = expansions
            .iter()
            .position(|(_, e)| e.decomp() == &w.iteration.decomp)
        {
            let entry = expansions.remove(pos);
            // Pre-seed the shared bound with a legal schedule of the warm
            // decomposition under the *current* costs.
            let seed = list_schedule(&entry.1, cluster);
            incumbent.fetch_min(seed.latency.0, Ordering::Relaxed);
            expansions.insert(0, entry);
        }
    }
    // Work queue: combo indices in sorted order.
    let next = AtomicUsize::new(0);

    let threads = cfg.effective_threads().clamp(1, expansions.len().max(1));
    let mut outcomes: Vec<(usize, ComboOutcome)> = if threads <= 1 {
        search_worker(&expansions, cluster, cfg, &incumbent, &next)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| search_worker(&expansions, cluster, cfg, &incumbent, &next))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("search worker panicked"))
                .collect()
        })
    };
    // Merge in decomposition order so the S set is deterministic given the
    // per-combo candidate sets.
    outcomes.sort_by_key(|(i, _)| *i);

    let mut best_latency = Micros(u64::MAX);
    /// Canonical schedule key paired with its decomposition key.
    type ComboKey = (Vec<(u32, u64, u64)>, Vec<(usize, u32, u32)>);
    let mut s_set: Vec<IterationSchedule> = Vec::new();
    let mut keys: HashSet<ComboKey> = HashSet::new();
    let mut nodes_total = 0u64;
    let mut combos_pruned = 0usize;
    let mut dominance_prunes = 0u64;
    let mut complete = true;

    for (_, outcome) in outcomes {
        nodes_total += outcome.nodes;
        dominance_prunes += outcome.dominance_prunes;
        if outcome.pruned {
            combos_pruned += 1;
        }
        if outcome.truncated {
            complete = false;
        }
        for sched in outcome.found {
            if sched.latency < best_latency {
                best_latency = sched.latency;
                s_set.clear();
                keys.clear();
            }
            if sched.latency == best_latency && s_set.len() < cfg.max_schedules {
                let decomp_key: Vec<(usize, u32, u32)> = sched
                    .decomp
                    .iter()
                    .map(|(t, d)| (t.0, d.fp, d.mp))
                    .collect();
                if keys.insert((sched.canonical_key(), decomp_key)) {
                    s_set.push(sched);
                }
            }
        }
    }

    // Step 3: the multi-iteration schedule M — pipeline every member of S
    // and keep the highest throughput (smallest initiation interval).
    let best = s_set
        .iter()
        .map(|iter| find_best_ii(iter, cluster.n_procs()))
        .min_by_key(|p| (p.ii, p.rotation))
        .expect("S is non-empty");

    OptimalResult {
        best,
        minimal_latency: best_latency,
        candidates: s_set.len(),
        nodes_explored: nodes_total,
        combos_pruned,
        dominance_prunes,
        complete,
    }
}

/// One worker: pull decomposition indices off the shared queue until it is
/// drained, searching each and reporting the outcome.
fn search_worker(
    expansions: &[(Micros, ExpandedGraph)],
    cluster: &ClusterSpec,
    cfg: &OptimalConfig,
    incumbent: &AtomicU64,
    next: &AtomicUsize,
) -> Vec<(usize, ComboOutcome)> {
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some((lb, expanded)) = expansions.get(i) else {
            return out;
        };
        // Dominated combo: even a perfect schedule of this decomposition
        // cannot reach the incumbent (strict `>`: ties kept for the S set).
        if lb.0 > incumbent.load(Ordering::Relaxed) {
            out.push((
                i,
                ComboOutcome {
                    found: Vec::new(),
                    nodes: 0,
                    truncated: false,
                    dominance_prunes: 0,
                    pruned: true,
                },
            ));
            continue;
        }
        // Seed with the list schedule so pruning bites from the first
        // branch. The seed is a real legal schedule, so it may tighten the
        // shared incumbent too.
        let seed = list_schedule(expanded, cluster);
        incumbent.fetch_min(seed.latency.0, Ordering::Relaxed);
        let mut search = Search {
            expanded,
            cluster,
            best: Micros(incumbent.load(Ordering::Relaxed)),
            shared: incumbent,
            collected: Vec::new(),
            keys: HashSet::new(),
            nodes: 0,
            max_nodes: cfg.max_nodes,
            max_schedules: cfg.max_schedules,
            truncated: false,
            dom: HashMap::new(),
            dom_entries: 0,
            dom_cap: if cluster.n_procs() <= MAX_DOM_PROCS && expanded.len() <= 64 {
                cfg.dominance_cap
            } else {
                0
            },
            dom_prunes: 0,
        };
        search.run();

        let mut found = search.collected;
        if found.is_empty() {
            found.push(seed);
        }
        out.push((
            i,
            ComboOutcome {
                found,
                nodes: search.nodes,
                truncated: search.truncated,
                dominance_prunes: search.dom_prunes,
                pruned: false,
            },
        ));
    }
}

/// All decomposition combinations to evaluate: the cartesian product of
/// each DP task's variants in `state` (deduplicated after clamping).
#[must_use]
pub fn decomposition_combos(
    graph: &TaskGraph,
    state: &AppState,
    explore: bool,
) -> Vec<BTreeMap<TaskId, Decomposition>> {
    let mut combos: Vec<BTreeMap<TaskId, Decomposition>> = vec![BTreeMap::new()];
    if !explore {
        return combos;
    }
    for t in graph.task_ids() {
        if let Some(dp) = &graph.task(t).dp {
            let variants = dp.variants(state);
            let mut next = Vec::with_capacity(combos.len() * variants.len());
            for combo in &combos {
                for &v in &variants {
                    let mut c = combo.clone();
                    if !v.is_trivial(state) {
                        c.insert(t, v);
                    }
                    if !next.contains(&c) {
                        next.push(c);
                    }
                }
            }
            combos = next;
        }
    }
    combos
}

/// Processor-id ceiling for the dominance memo's compact encoding.
const MAX_DOM_PROCS: u32 = 64;
/// Cap on memo entries sharing one placed-set key (bounds compare cost).
const DOM_PER_KEY: usize = 16;

/// One dominance-memo entry: the schedule-relevant residue of a partial
/// schedule with a given placed-instance set.
struct DomEntry {
    /// Processor of each placed instance, in instance-index order.
    procs: Box<[u8]>,
    /// `[last_start, end of each placed instance in instance-index order]`.
    times: Box<[u64]>,
}

impl DomEntry {
    /// Whether `self` dominates `other`: identical processor assignment and
    /// every time component no later. Any completion reachable from
    /// `other` is then matched by one reachable from `self` with a latency
    /// at most as large (equality included, so exact revisits prune too).
    fn dominates(&self, other: &DomEntry) -> bool {
        self.procs == other.procs
            && self
                .times
                .iter()
                .zip(other.times.iter())
                .all(|(a, b)| a <= b)
    }
}

struct Search<'a> {
    expanded: &'a ExpandedGraph,
    cluster: &'a ClusterSpec,
    /// Best latency known to this search (synced with [`Search::shared`];
    /// equal-latency schedules are collected).
    best: Micros,
    /// The cross-thread incumbent: latencies of real schedules only.
    shared: &'a AtomicU64,
    collected: Vec<IterationSchedule>,
    keys: HashSet<Vec<(u32, u64, u64)>>,
    nodes: u64,
    max_nodes: u64,
    max_schedules: usize,
    truncated: bool,
    /// Dominance memo: placed-instance bitmask → non-dominated entries.
    dom: HashMap<u64, Vec<DomEntry>>,
    dom_entries: usize,
    /// Entry budget (0 = prune disabled for this search).
    dom_cap: usize,
    dom_prunes: u64,
}

struct SearchState {
    placements: Vec<Option<Placement>>,
    preds_left: Vec<usize>,
    proc_ready: Vec<Micros>,
    placed: usize,
    /// Bitmask of placed instances (valid while the DAG has ≤ 64).
    placed_mask: u64,
    partial_latency: Micros,
    last_start: Micros,
}

impl<'a> Search<'a> {
    fn run(&mut self) {
        let n = self.expanded.len();
        let mut st = SearchState {
            placements: vec![None; n],
            preds_left: self
                .expanded
                .instances()
                .iter()
                .map(|i| i.preds.len())
                .collect(),
            proc_ready: vec![Micros::ZERO; self.cluster.n_procs() as usize],
            placed: 0,
            placed_mask: 0,
            partial_latency: Micros::ZERO,
            last_start: Micros::ZERO,
        };
        self.dfs(&mut st);
    }

    /// Earliest dependence-ready time of instance `i` on processor `p`.
    fn est(&self, st: &SearchState, i: usize, p: ProcId) -> Micros {
        let mut t = st.proc_ready[p.0 as usize];
        for e in &self.expanded.instances()[i].preds {
            let pred = st.placements[e.from].expect("pred placed");
            let comm = self
                .cluster
                .comm()
                .transfer(e.bytes, self.cluster.locality(pred.proc, p));
            t = t.max(pred.end + e.delay + comm);
        }
        t
    }

    /// Dependence-only earliest start (processor-independent lower bound).
    fn est_lb(&self, st: &SearchState, i: usize) -> Micros {
        let mut t = Micros::ZERO;
        for e in &self.expanded.instances()[i].preds {
            let pred = st.placements[e.from].expect("pred placed");
            t = t.max(pred.end + e.delay);
        }
        t
    }

    /// Dominance prune: return true when this partial schedule is dominated
    /// by a memoized one; otherwise memoize it (within budget).
    fn dominated(&mut self, st: &SearchState) -> bool {
        let n_placed = st.placed;
        let mut procs = Vec::with_capacity(n_placed);
        let mut times = Vec::with_capacity(n_placed + 1);
        times.push(st.last_start.0);
        for p in st.placements.iter().flatten() {
            procs.push(p.proc.0 as u8);
            times.push(p.end.0);
        }
        let cand = DomEntry {
            procs: procs.into_boxed_slice(),
            times: times.into_boxed_slice(),
        };
        let entries = self.dom.entry(st.placed_mask).or_default();
        if entries.iter().any(|e| e.dominates(&cand)) {
            return true;
        }
        // Keep the list non-dominated and bounded.
        let before = entries.len();
        entries.retain(|e| !cand.dominates(e));
        self.dom_entries -= before - entries.len();
        if self.dom_entries < self.dom_cap && entries.len() < DOM_PER_KEY {
            entries.push(cand);
            self.dom_entries += 1;
        }
        false
    }

    fn dfs(&mut self, st: &mut SearchState) {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.truncated = true;
            return;
        }
        // Adopt improvements from other decomposition searches: anything we
        // collected before the improvement can no longer be minimal.
        let global = self.shared.load(Ordering::Relaxed);
        if global < self.best.0 {
            self.best = Micros(global);
            self.collected.clear();
            self.keys.clear();
        }
        let n = self.expanded.len();
        if st.placed == n {
            let latency = st.partial_latency;
            if latency < self.best {
                self.best = latency;
                self.collected.clear();
                self.keys.clear();
                self.shared.fetch_min(latency.0, Ordering::Relaxed);
            }
            if latency == self.best && self.collected.len() < self.max_schedules {
                let sched = IterationSchedule {
                    placements: st.placements.iter().map(|p| p.unwrap()).collect(),
                    latency,
                    state: *self.expanded.state(),
                    decomp: self.expanded.decomp().clone(),
                };
                if self.keys.insert(sched.canonical_key()) {
                    self.collected.push(sched);
                }
            }
            return;
        }

        // Global lower-bound prune over all ready instances.
        let ready: Vec<usize> = (0..n)
            .filter(|&i| st.placements[i].is_none() && st.preds_left[i] == 0)
            .collect();
        for &i in &ready {
            if self.est_lb(st, i) + self.expanded.bottom_level(i) > self.best {
                return;
            }
        }

        // Dominance prune (after the cheap bound prunes).
        if self.dom_cap > 0 && st.placed >= 2 && self.dominated(st) {
            self.dom_prunes += 1;
            return;
        }

        // Chunk symmetry: only the lowest-indexed unplaced chunk of each
        // task may branch.
        let mut seen_chunk_tasks: Vec<TaskId> = Vec::new();
        for &i in &ready {
            let inst = &self.expanded.instances()[i];
            if inst.chunk.is_some() {
                if seen_chunk_tasks.contains(&inst.task) {
                    continue;
                }
                seen_chunk_tasks.push(inst.task);
            }

            // Processor symmetry: one branch per (node, ready-time) class.
            let mut proc_classes: Vec<(u32, Micros)> = Vec::new();
            for p in self.cluster.procs() {
                let class = (self.cluster.node_of(p).0, st.proc_ready[p.0 as usize]);
                if proc_classes.contains(&class) {
                    continue;
                }
                proc_classes.push(class);

                let start = self.est(st, i, p);
                // Sorted-order constraint: each schedule visited once.
                if start < st.last_start {
                    continue;
                }
                let end = start + self.expanded.instances()[i].duration;
                // Branch bound (communication included in start).
                if start + self.expanded.bottom_level(i) > self.best {
                    continue;
                }

                // Place.
                let placement = Placement {
                    task: self.expanded.instances()[i].task,
                    chunk: self.expanded.instances()[i].chunk,
                    proc: p,
                    start,
                    end,
                };
                st.placements[i] = Some(placement);
                let saved_ready = st.proc_ready[p.0 as usize];
                let saved_latency = st.partial_latency;
                let saved_last = st.last_start;
                st.proc_ready[p.0 as usize] = end;
                st.partial_latency = st.partial_latency.max(end);
                st.last_start = start;
                st.placed += 1;
                st.placed_mask |= 1u64.checked_shl(i as u32).unwrap_or(0);
                for &s in self.expanded.succs(i) {
                    st.preds_left[s] -= 1;
                }

                self.dfs(st);

                // Undo.
                for &s in self.expanded.succs(i) {
                    st.preds_left[s] += 1;
                }
                st.placed_mask &= !(1u64.checked_shl(i as u32).unwrap_or(0));
                st.placed -= 1;
                st.last_start = saved_last;
                st.partial_latency = saved_latency;
                st.proc_ready[p.0 as usize] = saved_ready;
                st.placements[i] = None;

                if self.truncated {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::check_iteration;
    use taskgraph::builders;

    #[test]
    fn combos_cover_dp_variants() {
        let g = builders::color_tracker();
        let combos1 = decomposition_combos(&g, &AppState::new(1), true);
        // 1 model: MP clamps away → FP ∈ {1,2,4} → 3 combos.
        assert_eq!(combos1.len(), 3);
        let combos8 = decomposition_combos(&g, &AppState::new(8), true);
        // 8 models: FP {1,2,4} × MP {1,2,4,8} = 12 combos.
        assert_eq!(combos8.len(), 12);
        assert_eq!(decomposition_combos(&g, &AppState::new(8), false).len(), 1);
    }

    #[test]
    fn optimal_matches_span_on_fork_join() {
        // fork_join(3, 100) on 3 procs: optimal latency = span.
        let g = builders::fork_join(3, 100);
        let c = ClusterSpec::single_node(3);
        let r = optimal_schedule(&g, &c, &AppState::new(1), &OptimalConfig::default());
        assert!(r.complete);
        let e = ExpandedGraph::build(&g, &AppState::new(1), &BTreeMap::new());
        assert_eq!(r.minimal_latency, e.span());
        check_iteration(&r.best.iteration, &e, &c).unwrap();
    }

    #[test]
    fn optimal_beats_or_equals_list_schedule() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        for n in [1u32, 2, 4, 8] {
            let state = AppState::new(n);
            let r = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
            // Compare against the best list schedule over all decompositions.
            let best_list = decomposition_combos(&g, &state, true)
                .into_iter()
                .map(|d| {
                    let e = ExpandedGraph::build(&g, &state, &d);
                    list_schedule(&e, &c).latency
                })
                .min()
                .unwrap();
            assert!(
                r.minimal_latency <= best_list,
                "state {n}: optimal {} vs list {}",
                r.minimal_latency,
                best_list
            );
        }
    }

    #[test]
    fn optimal_schedule_is_legal_and_collision_free() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let state = AppState::new(8);
        let r = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
        let e = ExpandedGraph::build(&g, &state, &r.best.iteration.decomp);
        check_iteration(&r.best.iteration, &e, &c).unwrap();
        assert!(r.best.find_collision().is_none());
        assert!(r.candidates >= 1);
    }

    #[test]
    fn eight_models_prefers_model_decomposition() {
        // The optimal schedule at 8 models on 4 procs should decompose T4
        // (Table 1 / Fig. 5(b) behaviour).
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let r = optimal_schedule(&g, &c, &AppState::new(8), &OptimalConfig::default());
        let t4 = g.task_by_name("Target Detection").unwrap();
        let d = r.best.iteration.decomp.get(&t4).copied();
        assert!(d.is_some(), "T4 must be decomposed at 8 models, got serial");
        // And latency is far below the serial iteration (~7.3 s).
        assert!(r.minimal_latency < Micros::from_secs(3));
    }

    #[test]
    fn task_parallelism_only_still_beats_serial_chain() {
        // Fig. 5(a): with decompositions disabled, T2 ∥ T3 still shortens
        // the iteration relative to a fully serial order.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let state = AppState::new(8);
        let cfg = OptimalConfig {
            explore_decompositions: false,
            ..OptimalConfig::default()
        };
        let r = optimal_schedule(&g, &c, &state, &cfg);
        let serial = g.total_work(&state);
        assert!(r.minimal_latency < serial);
        // Equals the critical path: T2∥T3 overlap is the only slack.
        let e = ExpandedGraph::build(&g, &state, &BTreeMap::new());
        assert_eq!(r.minimal_latency, e.span());
    }

    #[test]
    fn multi_source_graph_schedules_correctly() {
        // The surveillance graph has two independent timestamp sources and
        // four data-parallel tasks — the decomposition product is in the
        // hundreds, exercising the dominated-combo prune.
        let g = builders::stereo_surveillance();
        let c = ClusterSpec::single_node(4);
        let cfg = OptimalConfig {
            max_nodes: 20_000,
            max_schedules: 4,
            ..OptimalConfig::default()
        };
        for n in [1u32, 3] {
            let state = AppState::new(n);
            let r = optimal_schedule(&g, &c, &state, &cfg);
            let e = ExpandedGraph::build(&g, &state, &r.best.iteration.decomp);
            check_iteration(&r.best.iteration, &e, &c).unwrap();
            assert!(r.best.find_collision().is_none());
            // The two camera arms must overlap: latency well below work/1.
            assert!(r.minimal_latency * 2 < g.total_work(&state) + Micros::from_secs(1));
        }
    }

    #[test]
    fn dominated_combo_prune_preserves_optimum() {
        // Pruning by the work/span lower bound must not change the result:
        // compare against a run with the prune disabled by inflating the
        // budget and searching every combo (small state keeps this fast).
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(3);
        let state = AppState::new(2);
        let pruned = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
        // Exhaustive reference: iterate combos manually without pruning.
        let mut best = Micros(u64::MAX);
        for d in decomposition_combos(&g, &state, true) {
            let e = ExpandedGraph::build(&g, &state, &d);
            let ls = list_schedule(&e, &c);
            best = best.min(ls.latency);
        }
        // The enumerator is at least as good as every list schedule, and
        // its own claimed optimum is consistent.
        assert!(pruned.minimal_latency <= best);
        assert!(pruned.complete);
    }

    #[test]
    fn node_budget_falls_back_gracefully() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let cfg = OptimalConfig {
            max_nodes: 10, // absurdly small
            ..OptimalConfig::default()
        };
        let r = optimal_schedule(&g, &c, &AppState::new(8), &cfg);
        assert!(!r.complete);
        // Still returns a legal schedule.
        let e = ExpandedGraph::build(&g, &AppState::new(8), &r.best.iteration.decomp);
        check_iteration(&r.best.iteration, &e, &c).unwrap();
    }

    #[test]
    fn more_processors_never_raise_optimal_latency() {
        let g = builders::color_tracker();
        let state = AppState::new(4);
        let cfg = OptimalConfig::default();
        let l2 = optimal_schedule(&g, &ClusterSpec::single_node(2), &state, &cfg).minimal_latency;
        let l4 = optimal_schedule(&g, &ClusterSpec::single_node(4), &state, &cfg).minimal_latency;
        assert!(l4 <= l2);
    }

    #[test]
    fn parallel_search_matches_serial_latency() {
        // The fan-out must not change the computed optimum, whatever the
        // thread count (workers share the incumbent but merge
        // deterministically).
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        for n in [1u32, 4, 8] {
            let state = AppState::new(n);
            let serial = optimal_schedule(&g, &c, &state, &OptimalConfig::default().serial());
            for threads in [2usize, 3, 8] {
                let cfg = OptimalConfig {
                    threads,
                    ..OptimalConfig::default()
                };
                let par = optimal_schedule(&g, &c, &state, &cfg);
                assert_eq!(
                    par.minimal_latency, serial.minimal_latency,
                    "threads={threads} state={n}"
                );
                assert_eq!(par.best.ii, serial.best.ii, "threads={threads} state={n}");
                let e = ExpandedGraph::build(&g, &state, &par.best.iteration.decomp);
                check_iteration(&par.best.iteration, &e, &c).unwrap();
            }
        }
    }

    #[test]
    fn warm_start_matches_cold_optimum() {
        // Warm-starting from a previous incumbent must never change the
        // result, only the amount of work done to reach it.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let cfg = OptimalConfig::default().serial();
        for n in [1u32, 8] {
            let state = AppState::new(n);
            let cold = optimal_schedule(&g, &c, &state, &cfg);
            let warm = optimal_schedule_warm(&g, &c, &state, &cfg, Some(&cold.best));
            assert_eq!(warm.minimal_latency, cold.minimal_latency, "state {n}");
            assert_eq!(warm.best.ii, cold.best.ii, "state {n}");
            assert!(
                warm.nodes_explored <= cold.nodes_explored,
                "state {n}: warm searched more ({} > {})",
                warm.nodes_explored,
                cold.nodes_explored
            );
            let e = ExpandedGraph::build(&g, &state, &warm.best.iteration.decomp);
            check_iteration(&warm.best.iteration, &e, &c).unwrap();
        }
    }

    #[test]
    fn warm_start_with_foreign_decomp_degrades_to_cold() {
        // A warm schedule from a different state whose decomposition is not
        // among this state's combos must not derail the search.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let cfg = OptimalConfig::default().serial();
        let eight = optimal_schedule(&g, &c, &AppState::new(8), &cfg);
        let one_cold = optimal_schedule(&g, &c, &AppState::new(1), &cfg);
        let one_warm = optimal_schedule_warm(&g, &c, &AppState::new(1), &cfg, Some(&eight.best));
        assert_eq!(one_warm.minimal_latency, one_cold.minimal_latency);
    }

    #[test]
    fn dominance_prune_preserves_optimum() {
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        for n in [1u32, 8] {
            let state = AppState::new(n);
            let with = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
            let without = optimal_schedule(
                &g,
                &c,
                &state,
                &OptimalConfig {
                    dominance_cap: 0,
                    ..OptimalConfig::default()
                },
            );
            assert_eq!(with.minimal_latency, without.minimal_latency, "state {n}");
            // The memo only ever removes work.
            assert!(with.nodes_explored <= without.nodes_explored, "state {n}");
        }
    }

    #[test]
    fn dominance_prune_reduces_search_nodes() {
        // On the 8-model tracker the prune must actually bite.
        let g = builders::color_tracker();
        let c = ClusterSpec::single_node(4);
        let state = AppState::new(8);
        let r = optimal_schedule(&g, &c, &state, &OptimalConfig::default());
        assert!(r.dominance_prunes > 0, "memo never fired");
    }
}
