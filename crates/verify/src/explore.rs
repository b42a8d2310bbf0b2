//! Exhaustive state-space exploration with dynamic partial-order
//! reduction (DPOR).
//!
//! The trace checker in [`crate::checker`] verifies *one* recorded
//! schedule; it is sound for deadlock-freedom only because buffered
//! sends make the greedy replay confluent. The coordination protocols
//! layered on the comm substrate (coordinated checkpoint commit, the
//! drain-verdict broadcast) and the qmc-serve scheduler lifecycle make
//! control decisions from message *contents* and from crash timing, so
//! one schedule proves nothing about the rest. (A rank respawn is not
//! among them: a fresh world resumes from the store, on mailboxes no
//! earlier world touched.) This module explores **every
//! distinguishable interleaving** of a protocol expressed as a pure
//! state machine:
//!
//! * A [`Model`] supplies the initial state, the enabled actions of a
//!   state, a deterministic transition function, a safety invariant
//!   checked at every reached state, and a *dependence* relation over
//!   actions (an over-approximation: independent actions commute from
//!   every state in which both are enabled).
//! * [`explore`] runs a depth-first search with **sleep sets** plus the
//!   classic Flanagan–Godefroid **dynamic partial-order reduction**:
//!   after executing action `a`, the deepest earlier transition
//!   dependent on `a` (by a different process) gains a backtrack point,
//!   so every Mazurkiewicz trace (equivalence class of schedules) is
//!   visited at least once while most commuting permutations are
//!   skipped. Soundness needs `dependent` to over-approximate — when
//!   unsure, return `true`; the penalty is extra states, never a missed
//!   violation.
//! * [`explore_naive`] is the same engine with reduction disabled —
//!   every enabled action at every node — used as the ground-truth
//!   baseline: on a small instance both must return the same verdict,
//!   and the transition-count ratio is the reduction factor recorded in
//!   `VERIFY_explore.json`.
//! * [`explore_states`] is the same engine with reduction disabled and
//!   a visited set: every reachable state once, for a machine behind one
//!   lock, whose interleavings explode while its states stay few.
//! * Faults (crashes, write failures, worker kills) are ordinary
//!   actions flagged by [`Model::is_fault`]; the explorer enforces
//!   [`Budget::max_faults`] per execution, so "crash at any step, up to
//!   k crashes" is part of the explored space rather than a hand-picked
//!   scenario.
//! * A violation (invariant failure, or a quiescent state that is not
//!   [`Model::is_final`] — a deadlock) is **minimized**: a breadth-first
//!   search bounded by the depth of the DFS-found schedule returns a
//!   globally shortest violating schedule. Deadlocks additionally
//!   render through the existing wait-for-cycle machinery
//!   ([`crate::Violation::Deadlock`]) via [`Model::wait_edges`].
//!
//! Budgets make exploration a committed gate rather than an unbounded
//! search: [`Budget::max_transitions`] bounds total work (exceeding it
//! is a *failure* — a state-space blowup regression), `max_depth` is a
//! safety net against accidentally cyclic models, and `max_faults`
//! bounds the crash dimension.

use crate::checker::Violation;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;

/// A protocol expressed as a pure, deterministic state machine over
/// explicit scheduler choices.
///
/// Determinism contract: `apply(s, a)` must depend only on `(s, a)` —
/// all nondeterminism (delivery order, crash timing, environment
/// choices) must be reified as distinct actions. `actions(s)` must
/// return a deterministic ordering for reproducible exploration.
pub trait Model {
    /// Global protocol state (all ranks + network + persistent store).
    type State: Clone + Eq + Hash;
    /// One scheduler choice: deliver a message, step a rank, crash...
    type Action: Clone + Eq + fmt::Debug;

    /// The initial state.
    fn init(&self) -> Self::State;
    /// All actions enabled in `s`, in deterministic order.
    fn actions(&self, s: &Self::State) -> Vec<Self::Action>;
    /// Deterministic transition function.
    fn apply(&self, s: &Self::State, a: &Self::Action) -> Self::State;
    /// Safety invariant, checked at every reached state; `Err` is the
    /// human-readable violation description.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;
    /// The process (rank / worker / environment) an action belongs to.
    /// Actions of the same process are always dependent (program
    /// order).
    fn pid(&self, a: &Self::Action) -> usize;
    /// Dependence over-approximation: MUST return `true` whenever the
    /// two actions might not commute (touch the same channel, the same
    /// shared cell, or belong to the same process). Returning `true`
    /// spuriously only costs states; returning `false` spuriously
    /// loses soundness.
    fn dependent(&self, a: &Self::Action, b: &Self::Action) -> bool;
    /// Is this a fault injection (crash, kill, write failure)? Fault
    /// actions are limited per execution by [`Budget::max_faults`].
    fn is_fault(&self, _a: &Self::Action) -> bool {
        false
    }
    /// Is a quiescent (no enabled actions) state an expected
    /// completion? A quiescent non-final state is reported as a
    /// deadlock.
    fn is_final(&self, s: &Self::State) -> bool;
    /// Wait-for edges of a deadlocked state, rendered through the trace
    /// checker's cycle reporter. Empty means "no cycle structure to
    /// show" and only the textual description is used.
    fn wait_edges(&self, _s: &Self::State) -> Vec<qmc_comm::WaitEdge> {
        Vec::new()
    }
    /// Human-readable rendering of an action for counterexample
    /// schedules.
    fn describe(&self, a: &Self::Action) -> String {
        format!("{a:?}")
    }
}

/// Exploration budget. Exceeding any bound aborts with
/// [`Outcome::BudgetExceeded`] — in the gate that is a *failure*
/// (state-space blowup), not a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum schedule length (safety net against cyclic models).
    pub max_depth: usize,
    /// Maximum fault actions per execution.
    pub max_faults: usize,
    /// Maximum total transitions executed across the whole search.
    pub max_transitions: u64,
}

impl Budget {
    /// Budget with `max_faults` crashes and generous default ceilings.
    pub fn with_faults(max_faults: usize) -> Self {
        Budget {
            max_depth: 256,
            max_faults,
            max_transitions: 2_000_000,
        }
    }
}

/// Search statistics, reported for both clean and violating outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Transitions executed (the work measure; the DPOR/naive ratio of
    /// this number is the reduction factor).
    pub transitions: u64,
    /// Distinct states reached (informational).
    pub unique_states: u64,
    /// Maximal executions completed (leaves of the search tree).
    pub executions: u64,
    /// Deepest schedule reached.
    pub max_depth: usize,
    /// Executions pruned by sleep sets (redundant-interleaving skips).
    pub sleep_skips: u64,
}

/// A violating schedule, minimized to globally shortest length.
#[derive(Debug, Clone)]
pub struct CounterExample<A> {
    /// The minimized schedule of actions from the initial state.
    pub schedule: Vec<A>,
    /// [`Model::describe`] rendering of each schedule step.
    pub rendered: Vec<String>,
    /// The invariant failure message, or the deadlock description.
    pub message: String,
    /// For deadlocks with cycle structure: the wait-for cycle rendered
    /// through the trace checker's canonical reporter.
    pub deadlock: Option<Violation>,
    /// Statistics of the search that found it.
    pub stats: ExploreStats,
}

impl<A> CounterExample<A> {
    /// Multi-line rendering: numbered schedule, then the violation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.rendered.iter().enumerate() {
            out.push_str(&format!("  step {:>2}: {line}\n", i + 1));
        }
        out.push_str(&format!("  => {}", self.message));
        if let Some(d) = &self.deadlock {
            out.push_str(&format!("\n  => {d}"));
        }
        out
    }
}

/// Result of an exploration.
#[derive(Debug, Clone)]
pub enum Outcome<A> {
    /// Every reachable state within budget satisfies the invariant and
    /// every quiescent state is final.
    Clean(ExploreStats),
    /// A reachable state violates the invariant or deadlocks; carries
    /// the minimized schedule.
    Violation(Box<CounterExample<A>>),
    /// The search exceeded [`Budget::max_transitions`] or
    /// [`Budget::max_depth`] — treat as a gate failure.
    BudgetExceeded(ExploreStats),
}

impl<A> Outcome<A> {
    /// Statistics regardless of verdict.
    pub fn stats(&self) -> ExploreStats {
        match self {
            Outcome::Clean(s) | Outcome::BudgetExceeded(s) => *s,
            Outcome::Violation(ce) => ce.stats,
        }
    }

    /// True iff the model explored clean within budget.
    pub fn is_clean(&self) -> bool {
        matches!(self, Outcome::Clean(_))
    }
}

/// Explore with sleep sets + dynamic partial-order reduction.
pub fn explore<M: Model>(model: &M, budget: Budget) -> Outcome<M::Action> {
    explore_inner(model, budget, true, None)
}

/// Explore every interleaving with no reduction (ground-truth
/// baseline; use only on small instances).
pub fn explore_naive<M: Model>(model: &M, budget: Budget) -> Outcome<M::Action> {
    explore_inner(model, budget, false, None)
}

/// Explore every reachable state instead of every interleaving: no
/// reduction, and a (state, faults spent) pair is expanded only the
/// first time it is reached. This is the search for a machine whose
/// every action is one region under a single lock: almost no two
/// actions commute there, so partial-order reduction has nothing to
/// remove and the interleavings explode while the states they pass
/// through stay few. Every reached state meets the invariant check and
/// every quiescent one the final-state check.
///
/// `key` projects a state onto what tells it apart from every state
/// that behaves differently; the visited set holds keys, so only the
/// states on the search stack are alive at once. `unique_states` counts
/// the pairs expanded.
pub fn explore_states<M: Model, K: Eq + Hash>(
    model: &M,
    budget: Budget,
    key: impl Fn(&M::State) -> K,
) -> Outcome<M::Action> {
    let mut visited = HashSet::new();
    let mut first_visit = |s: &M::State, faults| visited.insert((key(s), faults));
    explore_inner(model, budget, false, Some(&mut first_visit))
}

/// One node of the DFS stack.
///
/// Backtrack sets range over *pids*, not actions: DPOR prunes
/// scheduling choices (which process moves next), but a process may
/// have several enabled actions (branching nondeterminism — crash vs
/// step, write success vs failure). When a pid is scheduled, every one
/// of its enabled actions is explored; only the choice *between pids*
/// is reduced. Sleep sets still operate on individual actions.
struct Frame<S, A> {
    state: S,
    enabled: Vec<A>,
    /// Distinct pids of `enabled`, in first-occurrence order.
    pids: Vec<usize>,
    /// Parallel to `pids`: explore this pid's actions from this node?
    backtrack: Vec<bool>,
    /// Parallel to `enabled`: action already explored (or slept) here.
    action_done: Vec<bool>,
    sleep: Vec<A>,
    /// Index into `enabled` of the action taken to reach the child.
    chosen: Option<usize>,
    faults_used: usize,
}

impl<S, A> Frame<S, A> {
    fn chosen_action(&self) -> Option<&A> {
        self.chosen.map(|i| &self.enabled[i])
    }
}

fn distinct_pids<M: Model>(model: &M, enabled: &[M::Action]) -> Vec<usize> {
    let mut pids = Vec::new();
    for a in enabled {
        let p = model.pid(a);
        if !pids.contains(&p) {
            pids.push(p);
        }
    }
    pids
}

/// Enabled actions of `s`, with fault actions removed once the fault
/// budget is spent.
fn enabled_within<M: Model>(
    model: &M,
    s: &M::State,
    faults_used: usize,
    budget: &Budget,
) -> Vec<M::Action> {
    let mut acts = model.actions(s);
    if faults_used >= budget.max_faults {
        acts.retain(|a| !model.is_fault(a));
    }
    acts
}

fn violation_of<M: Model>(model: &M, s: &M::State) -> Option<String> {
    model.invariant(s).err()
}

/// Build the (not yet minimized) counterexample for the schedule on the
/// DFS stack plus the violating state's description, then minimize.
fn finish_violation<M: Model>(
    model: &M,
    budget: &Budget,
    stack: &[Frame<M::State, M::Action>],
    bad_state: &M::State,
    message: String,
    deadlocked: bool,
    stats: ExploreStats,
) -> Outcome<M::Action> {
    // Every frame's `chosen` action, root to top, is the violating
    // schedule (the just-executed action is the top frame's `chosen`).
    let schedule: Vec<M::Action> = stack
        .iter()
        .filter_map(|f| f.chosen.map(|i| f.enabled[i].clone()))
        .collect();
    let (schedule, final_state) = minimize(model, budget, schedule, bad_state);
    let deadlock = if deadlocked {
        let edges = model.wait_edges(&final_state);
        if edges.is_empty() {
            None
        } else {
            Some(Violation::Deadlock { cycle: edges })
        }
    } else {
        None
    };
    let rendered = schedule.iter().map(|a| model.describe(a)).collect();
    Outcome::Violation(Box::new(CounterExample {
        schedule,
        rendered,
        message,
        deadlock,
        stats,
    }))
}

/// BFS from the initial state for the shortest schedule reaching *any*
/// violating state, bounded by the DFS-found schedule's length. Returns
/// the found schedule and its end state (falls back to the DFS schedule
/// when the BFS re-search exceeds the transition budget).
fn minimize<M: Model>(
    model: &M,
    budget: &Budget,
    fallback: Vec<M::Action>,
    fallback_state: &M::State,
) -> (Vec<M::Action>, M::State) {
    let bound = fallback.len();
    let init = model.init();
    // Node identity includes the fault count: two paths to the same
    // state with different fault spend differ in future enabledness.
    type Parent<M> = HashMap<
        (<M as Model>::State, usize),
        Option<((<M as Model>::State, usize), <M as Model>::Action)>,
    >;
    let mut parent: Parent<M> = HashMap::new();
    parent.insert((init.clone(), 0), None);
    let mut queue: VecDeque<((M::State, usize), usize)> = VecDeque::new();
    queue.push_back(((init, 0), 0));
    let mut work: u64 = 0;
    while let Some((node, depth)) = queue.pop_front() {
        let (state, faults) = &node;
        let enabled = enabled_within(model, state, *faults, budget);
        let bad = violation_of(model, state)
            .is_some()
            .then_some(())
            .or_else(|| (enabled.is_empty() && !model.is_final(state)).then_some(()));
        if bad.is_some() {
            // Reconstruct the schedule back to the root.
            let mut sched = Vec::new();
            let mut cur = node.clone();
            while let Some(Some((prev, act))) = parent.get(&cur) {
                sched.push(act.clone());
                cur = prev.clone();
            }
            sched.reverse();
            return (sched, node.0);
        }
        if depth >= bound {
            continue;
        }
        for a in enabled {
            work += 1;
            if work > budget.max_transitions {
                return (fallback, fallback_state.clone());
            }
            let next = model.apply(state, &a);
            let nf = faults + usize::from(model.is_fault(&a));
            if let Entry::Vacant(e) = parent.entry((next.clone(), nf)) {
                e.insert(Some((node.clone(), a)));
                queue.push_back(((next, nf), depth + 1));
            }
        }
    }
    // No violation found within the bound (should not happen: the DFS
    // witnessed one at depth `bound`); keep the DFS schedule.
    (fallback, fallback_state.clone())
}

/// Records a reached (state, faults spent) pair; true when it is new.
type FirstVisit<'a, S> = &'a mut dyn FnMut(&S, usize) -> bool;

/// The search behind the three entry points. With a `first_visit`, a
/// state that is not new is a leaf.
fn explore_inner<M: Model>(
    model: &M,
    budget: Budget,
    reduce: bool,
    mut first_visit: Option<FirstVisit<M::State>>,
) -> Outcome<M::Action> {
    let mut stats = ExploreStats::default();
    let revisits_end = first_visit.is_some();
    let mut seen: HashSet<M::State> = HashSet::new();
    let mut visit = |s: &M::State, faults| match first_visit.as_mut() {
        Some(first_visit) => first_visit(s, faults),
        None => seen.insert(s.clone()),
    };

    let init = model.init();
    visit(&init, 0);
    stats.unique_states = 1;
    if let Some(msg) = violation_of(model, &init) {
        return finish_violation(model, &budget, &[], &init, msg, false, stats);
    }
    let enabled = enabled_within(model, &init, 0, &budget);
    if enabled.is_empty() {
        if !model.is_final(&init) {
            return finish_violation(
                model,
                &budget,
                &[],
                &init,
                "deadlock: initial state is quiescent but not final".into(),
                true,
                stats,
            );
        }
        stats.executions = 1;
        return Outcome::Clean(stats);
    }
    let pids = distinct_pids(model, &enabled);
    let mut root = Frame {
        state: init,
        backtrack: vec![!reduce; pids.len()],
        action_done: vec![false; enabled.len()],
        pids,
        sleep: Vec::new(),
        enabled,
        chosen: None,
        faults_used: 0,
    };
    if reduce {
        root.backtrack[0] = true;
    }
    let mut stack: Vec<Frame<M::State, M::Action>> = vec![root];

    while let Some(top_idx) = stack.len().checked_sub(1) {
        // Select the next action at the top frame: the first
        // not-yet-done action of any backtracked pid, skipping (and
        // counting) sleep-set members.
        let mut pick: Option<usize> = None;
        {
            let top = &mut stack[top_idx];
            'scan: for i in 0..top.enabled.len() {
                if top.action_done[i] {
                    continue;
                }
                let p = model.pid(&top.enabled[i]);
                let pi = top
                    .pids
                    .iter()
                    .position(|&q| q == p)
                    .expect("pid indexed at frame creation");
                if !top.backtrack[pi] {
                    continue;
                }
                if top.sleep.contains(&top.enabled[i]) {
                    top.action_done[i] = true;
                    stats.sleep_skips += 1;
                    continue 'scan;
                }
                pick = Some(i);
                break;
            }
        }
        let Some(i) = pick else {
            stack.pop();
            continue;
        };

        let (action, state, faults_used) = {
            let top = &mut stack[top_idx];
            top.action_done[i] = true;
            top.chosen = Some(i);
            (top.enabled[i].clone(), top.state.clone(), top.faults_used)
        };

        stats.transitions += 1;
        if stats.transitions > budget.max_transitions {
            return Outcome::BudgetExceeded(stats);
        }

        if reduce {
            // DPOR backtrack-point insertion: the deepest earlier
            // transition by a different process that `action` depends
            // on is a race; re-explore that node with `action`'s
            // process scheduled first.
            for j in (0..top_idx).rev() {
                let fj = &stack[j];
                let Some(c) = fj.chosen_action() else {
                    continue;
                };
                if model.pid(c) != model.pid(&action) && model.dependent(c, &action) {
                    let p = model.pid(&action);
                    let fj = &mut stack[j];
                    if let Some(pi) = fj.pids.iter().position(|&q| q == p) {
                        fj.backtrack[pi] = true;
                    } else {
                        for b in fj.backtrack.iter_mut() {
                            *b = true;
                        }
                    }
                    break;
                }
            }
        }

        let next = model.apply(&state, &action);
        let depth = stack.len();
        stats.max_depth = stats.max_depth.max(depth);
        let next_faults = faults_used + usize::from(model.is_fault(&action));
        let fresh = visit(&next, next_faults);
        stats.unique_states += u64::from(fresh);
        if let Some(msg) = violation_of(model, &next) {
            return finish_violation(model, &budget, &stack, &next, msg, false, stats);
        }
        if revisits_end && !fresh {
            continue;
        }
        if depth >= budget.max_depth {
            return Outcome::BudgetExceeded(stats);
        }

        let child_enabled = enabled_within(model, &next, next_faults, &budget);
        if child_enabled.is_empty() {
            stats.executions += 1;
            if !model.is_final(&next) {
                let msg = "deadlock: quiescent state is not a completed protocol run".to_string();
                return finish_violation(model, &budget, &stack, &next, msg, true, stats);
            }
            continue;
        }

        // Child sleep set: completed siblings at this node join the
        // inherited set; keep only members independent of `action`.
        let child_sleep: Vec<M::Action> = if reduce {
            let top = &stack[top_idx];
            top.sleep
                .iter()
                .chain(
                    top.enabled
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| k != i && top.action_done[k])
                        .map(|(_, a)| a),
                )
                .filter(|x| !model.dependent(x, &action))
                .cloned()
                .collect()
        } else {
            Vec::new()
        };

        let child_pids = distinct_pids(model, &child_enabled);
        let mut child = Frame {
            state: next,
            backtrack: vec![!reduce; child_pids.len()],
            action_done: vec![false; child_enabled.len()],
            pids: child_pids,
            sleep: child_sleep,
            enabled: child_enabled,
            chosen: None,
            faults_used: next_faults,
        };
        if reduce {
            // Seed the pid of the first non-sleeping action; if every
            // enabled action is asleep this subtree is redundant and
            // pops immediately.
            if let Some(a) = child.enabled.iter().find(|a| !child.sleep.contains(*a)) {
                let p = model.pid(a);
                if let Some(pi) = child.pids.iter().position(|&q| q == p) {
                    child.backtrack[pi] = true;
                }
            }
        }
        stack.push(child);
    }

    Outcome::Clean(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_comm::WaitEdge;

    /// N independent counters, each incremented to `limit` — every pair
    /// of actions from different pids is independent, so DPOR should
    /// explore essentially one interleaving while naive explores the
    /// full multinomial.
    struct Counters {
        n: usize,
        limit: u8,
    }

    impl Model for Counters {
        type State = Vec<u8>;
        type Action = usize; // pid to increment

        fn init(&self) -> Vec<u8> {
            vec![0; self.n]
        }
        fn actions(&self, s: &Vec<u8>) -> Vec<usize> {
            (0..self.n).filter(|&i| s[i] < self.limit).collect()
        }
        fn apply(&self, s: &Vec<u8>, a: &usize) -> Vec<u8> {
            let mut t = s.clone();
            t[*a] += 1;
            t
        }
        fn invariant(&self, _s: &Vec<u8>) -> Result<(), String> {
            Ok(())
        }
        fn pid(&self, a: &usize) -> usize {
            *a
        }
        fn dependent(&self, a: &usize, b: &usize) -> bool {
            a == b
        }
        fn is_final(&self, s: &Vec<u8>) -> bool {
            s.iter().all(|&c| c == self.limit)
        }
    }

    #[test]
    fn independent_counters_reduce_to_linear_work() {
        let m = Counters { n: 3, limit: 2 };
        let budget = Budget::with_faults(0);
        let dpor = explore(&m, budget);
        let naive = explore_naive(&m, budget);
        assert!(dpor.is_clean() && naive.is_clean());
        // Naive explores 6!/(2!2!2!) = 90 executions; DPOR needs one.
        assert_eq!(naive.stats().executions, 90);
        assert_eq!(dpor.stats().executions, 1);
        assert!(dpor.stats().transitions < naive.stats().transitions / 10);
    }

    /// Two processes racing on one shared cell; invariant forbids the
    /// value produced by one specific order.
    struct Race;

    impl Model for Race {
        // (cell, p0_done, p1_done)
        type State = (u8, bool, bool);
        type Action = u8; // 0: cell = 1; 1: cell *= 2

        fn init(&self) -> Self::State {
            (0, false, false)
        }
        fn actions(&self, s: &Self::State) -> Vec<u8> {
            let mut v = Vec::new();
            if !s.1 {
                v.push(0);
            }
            if !s.2 {
                v.push(1);
            }
            v
        }
        fn apply(&self, s: &Self::State, a: &u8) -> Self::State {
            let mut t = *s;
            if *a == 0 {
                t.0 = 1;
                t.1 = true;
            } else {
                t.0 *= 2;
                t.2 = true;
            }
            t
        }
        fn invariant(&self, s: &Self::State) -> Result<(), String> {
            // cell == 2 only arises from the order (write 1, double).
            if s.0 == 2 {
                Err("cell reached 2 via write-then-double".into())
            } else {
                Ok(())
            }
        }
        fn pid(&self, a: &u8) -> usize {
            *a as usize
        }
        fn dependent(&self, _a: &u8, _b: &u8) -> bool {
            true // both touch the cell
        }
        fn is_final(&self, s: &Self::State) -> bool {
            s.1 && s.2
        }
    }

    #[test]
    fn race_found_and_minimized() {
        let out = explore(&Race, Budget::with_faults(0));
        let Outcome::Violation(ce) = out else {
            panic!("expected violation, got {:?}", out.stats());
        };
        assert_eq!(ce.schedule, vec![0, 1], "shortest schedule");
        assert!(ce.message.contains("write-then-double"));
    }

    /// A model whose only quiescent state is not final => deadlock,
    /// with wait edges to exercise the cycle renderer.
    struct Stuck;

    impl Model for Stuck {
        type State = u8;
        type Action = u8;

        fn init(&self) -> u8 {
            0
        }
        fn actions(&self, s: &u8) -> Vec<u8> {
            if *s == 0 {
                vec![1]
            } else {
                vec![]
            }
        }
        fn apply(&self, _s: &u8, a: &u8) -> u8 {
            *a
        }
        fn invariant(&self, _s: &u8) -> Result<(), String> {
            Ok(())
        }
        fn pid(&self, _a: &u8) -> usize {
            0
        }
        fn dependent(&self, _a: &u8, _b: &u8) -> bool {
            true
        }
        fn is_final(&self, _s: &u8) -> bool {
            false
        }
        fn wait_edges(&self, _s: &u8) -> Vec<WaitEdge> {
            vec![
                WaitEdge {
                    rank: 0,
                    src: 1,
                    tag: 0x7,
                },
                WaitEdge {
                    rank: 1,
                    src: 0,
                    tag: 0x7,
                },
            ]
        }
    }

    #[test]
    fn deadlock_renders_via_wait_for_cycle() {
        let out = explore(&Stuck, Budget::with_faults(0));
        let Outcome::Violation(ce) = out else {
            panic!("expected deadlock violation");
        };
        let text = ce.render();
        assert!(
            text.contains("rank 0 waits on rank 1 (tag 0x7)"),
            "render: {text}"
        );
        assert!(matches!(ce.deadlock, Some(Violation::Deadlock { .. })));
    }

    /// Fault budget: a crash action is only explored `max_faults`
    /// times per execution.
    struct Crashy;

    impl Model for Crashy {
        // (steps, crashes)
        type State = (u8, u8);
        type Action = bool; // false = step, true = crash

        fn init(&self) -> Self::State {
            (0, 0)
        }
        fn actions(&self, s: &Self::State) -> Vec<bool> {
            if s.0 < 3 {
                vec![false, true]
            } else {
                vec![]
            }
        }
        fn apply(&self, s: &Self::State, a: &bool) -> Self::State {
            if *a {
                (s.0 + 1, s.1 + 1)
            } else {
                (s.0 + 1, s.1)
            }
        }
        fn invariant(&self, s: &Self::State) -> Result<(), String> {
            if s.1 > 1 {
                Err("two crashes in one run".into())
            } else {
                Ok(())
            }
        }
        fn pid(&self, _a: &bool) -> usize {
            0
        }
        fn dependent(&self, _a: &bool, _b: &bool) -> bool {
            true
        }
        fn is_fault(&self, a: &bool) -> bool {
            *a
        }
        fn is_final(&self, s: &Self::State) -> bool {
            s.0 == 3
        }
    }

    #[test]
    fn fault_budget_bounds_crash_dimension() {
        // With max_faults = 1 the two-crash invariant cannot trip.
        assert!(explore(&Crashy, Budget::with_faults(1)).is_clean());
        // With max_faults = 2 it must.
        let out = explore(&Crashy, Budget::with_faults(2));
        let Outcome::Violation(ce) = out else {
            panic!("expected two-crash violation");
        };
        assert_eq!(ce.schedule, vec![true, true], "minimized to two crashes");
    }

    #[test]
    fn state_search_expands_each_state_once_and_keys_on_fault_spend() {
        let budget = Budget::with_faults(2);
        let out = explore_states(&Counters { n: 3, limit: 2 }, budget, Vec::clone);
        assert!(out.is_clean());
        // 3^3 states; each offers one action per counter below the limit.
        assert_eq!(out.stats().unique_states, 27);
        assert_eq!(out.stats().transitions, 54);
        assert_eq!(out.stats().executions, 1);

        let Outcome::Violation(ce) = explore_states(&Race, budget, |s| *s) else {
            panic!("expected violation");
        };
        assert_eq!(ce.schedule, vec![0, 1], "shortest schedule");

        // A key that forgets the crash count: (1 step, 1 crash) must not
        // pass for the visited (1 step, 0 crashes), or the second crash
        // is never tried. The faults spent are part of the node.
        let Outcome::Violation(ce) = explore_states(&Crashy, budget, |s| s.0) else {
            panic!("expected two-crash violation");
        };
        assert_eq!(ce.schedule, vec![true, true]);
        assert!(explore_states(&Crashy, Budget::with_faults(1), |s| s.0).is_clean());
    }

    #[test]
    fn transition_budget_reports_blowup() {
        let m = Counters { n: 4, limit: 4 };
        let tight = Budget {
            max_depth: 256,
            max_faults: 0,
            max_transitions: 50,
        };
        assert!(matches!(
            explore_naive(&m, tight),
            Outcome::BudgetExceeded(_)
        ));
    }

    #[test]
    fn dpor_and_naive_agree_on_verdicts() {
        let budget = Budget::with_faults(2);
        assert_eq!(
            explore(&Race, budget).is_clean(),
            explore_naive(&Race, budget).is_clean()
        );
        assert_eq!(
            explore(&Crashy, budget).is_clean(),
            explore_naive(&Crashy, budget).is_clean()
        );
        let m = Counters { n: 2, limit: 3 };
        assert_eq!(
            explore(&m, budget).is_clean(),
            explore_naive(&m, budget).is_clean()
        );
    }
}
