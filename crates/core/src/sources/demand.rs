//! Look-ahead demand (claims) slack analysis.

use stadvs_sim::{ActiveJob, AnalysisStats, SchedulerView, TIME_EPS};

use crate::sources::ReclaimedPool;

/// Claim sentinel marking a tombstoned sequence event (real claims are
/// never negative). The sweep skips these wholesale; a tombstone keeps
/// its event's time, so the sequence stays sorted.
const TOMBSTONE: f64 = -1.0;

/// Tombstone count that triggers a compaction pass on the next in-place
/// repair. Low enough that the sweep's dead-event overhead stays
/// negligible (each skip is one compare against a just-loaded claim),
/// high enough to amortize the three-array copy-down.
const STALE_COMPACT: usize = 32;

/// Look-ahead slack analysis over the **canonical claims** of everything in
/// the system.
///
/// At a scheduling point `t`, every piece of outstanding work holds a
/// wall-clock *claim* that must fit before a checkpoint:
///
/// * each ready job: its remaining canonical allowance (from the
///   [`ReclaimedPool`]), claimed before its deadline,
/// * each future job released inside the look-ahead window: its canonical
///   occupancy `C_i / U`, claimed before its deadline,
/// * each banked ledger entry: its amount, claimed before its tag.
///
/// The *extra slack* available to the dispatched job is the minimum over
/// checkpoints `D` at or after its deadline of `(D − t) − claims(t, D)` —
/// time that provably nobody has claimed. Granting it to the dispatched
/// job keeps the claim invariant (`claims before D ≤ D − t` for every
/// `D`) intact, which is re-verified at every scheduling point.
///
/// Checkpoints beyond the look-ahead horizon `H` are covered rigorously by
/// an *analytic tail bound*: with `a_i` the next release and `D_i` the
/// relative deadline of task `i`, the release count up to any `D` obeys
/// `count_i(D) ≤ (D − a_i − D_i)/T_i + 1`, and canonical claims accrue at
/// rate exactly 1 (`Σ (C_i/U)/T_i = 1`), so for every `D ≥ max(a_i + D_i)`
///
/// ```text
/// slack(D) ≥ Σ_i (a_i + D_i − t)·(u_i/U)  −  Σ_i C_i/U
///            −  ready claims  −  banked ledger total,
/// ```
///
/// a constant that equals the steady-state sawtooth valley. The analysis
/// takes the minimum of the in-window checkpoints and this tail bound,
/// making the result a sound lower bound over the **unbounded** horizon.
///
/// Measured against canonical claims (not raw worst-case work), the
/// analysis distributes static slack exactly like the canonical schedule —
/// no job can greedily hog the phase slack that later jobs need — while
/// still discovering slack the ledger cannot represent (release phasing,
/// alignment gaps, slack stranded behind too-late tags).
///
/// # Incremental evaluation
///
/// The analysis runs at every dispatch, so four layers keep the per-call
/// cost proportional to what actually changed (see `DESIGN.md` §9):
///
/// * **cross-dispatch caching** — the per-task descriptors (claims,
///   periods, relative deadlines), the release outlook (next deadlines,
///   horizon floor, prune validity point) and the ledger snapshot are
///   cached between calls and refreshed only when their inputs move:
///   the task table on [`invalidate`](DemandAnalysis::invalidate) (pool
///   reset), the release outlook on
///   [`SchedulerView::release_epoch`] advancing (job release), and the
///   ledger snapshot on [`SlackLedger::revision`](crate::SlackLedger::revision)
///   advancing (donate on completion, take/expire on re-grant, clear on
///   overrun or idle drain). Ready-job streams depend on continuously
///   varying per-job state (`wall_used`, fresh grants), so they are
///   rebuilt every call — which also subsumes "pool re-grant" as an
///   invalidation key for the ready portion.
/// * **the cached event sequence** — the merged periodic (task-stream)
///   events are kept between dispatches in exactly tournament-merge
///   order and *repaired* when the release outlook moves: tombstoned
///   slide drops on-lattice; off-lattice, the moved chain is re-stamped
///   in its own slots when that keeps the order, and regenerated and
///   spliced in otherwise (see [`ensure_seq`](DemandAnalysis::ensure_seq)
///   and [`repair_seq`](DemandAnalysis::repair_seq)). Every repair keeps
///   the sequence's times non-decreasing, tombstones included. The
///   per-dispatch sweep then merges only the few ready/ledger singletons
///   over this sequence ([`sweep_overlay`](DemandAnalysis::sweep_overlay)),
///   a binary search and a plain loop per run of sequence events between
///   two singletons, instead of re-running the full tournament merge.
/// * **early-exit pruning** — the checkpoint sweep stops as soon as no
///   later checkpoint can change the result (soundness argued at
///   [`prune_safety`]); a non-positive tail bound skips the sweep
///   entirely. Events before the dispatched job's deadline cannot bind,
///   so the sweep only accumulates them ([`Sweep`]).
/// * **scratch layout** — the sweep reads dense per-event `f64` arrays
///   (times and denormalized claims); the from-scratch path's merge loop
///   touches a dense `claims` array keyed by stream index, its
///   tournament tree persists between calls (only the shrunk pad range
///   is re-written), and nothing is re-zeroed.
///
/// In debug builds every pruned, cached analysis is re-checked against a
/// from-scratch unpruned sweep and must match **bit-identically**, and
/// every sequence update re-checks the sequence's order invariants.
#[derive(Debug, Clone)]
pub struct DemandAnalysis {
    horizon_periods: f64,
    /// Scratch: tournament **loser** tree over the stream heads, with keys
    /// packed as `(time bits, stream index)` in a `u128` (see [`pack`]).
    /// `tree[0]` holds the overall winner (earliest head),
    /// `tree[1..cap]` the loser of each internal match,
    /// `tree[cap..2·cap]` the leaf keys (used during the build only).
    /// Replaying a path after a pop touches exactly one stored loser per
    /// level — half the loads of a winner tree — and the packed keys
    /// compare with a single `u128` compare. The buffer persists across
    /// calls; [`build_tree`](DemandAnalysis::build_tree) re-pads only the
    /// slots a shrinking stream count exposes.
    tree: Vec<u128>,
    /// Scratch: the claim attached to every event of stream `i`, split out
    /// of the step descriptors so the merge loop reads one dense `f64`
    /// array.
    claims: Vec<f64>,
    /// Scratch: per-stream event generator state (task streams step by
    /// their period; `period == 0` marks singletons).
    steps: Vec<StreamStep>,
    /// Scratch: initial event time per stream (input to the tree build).
    heads: Vec<f64>,
    /// Logical tree capacity of the current build (`live` rounded up to a
    /// power of two); `tree.len() ≥ 2·cap`.
    cap: usize,
    /// Live stream count of the previous build at this `cap` — slots
    /// `cap+live..cap+prev_live` are the only leaves that can hold stale
    /// finite keys (a pruned sweep leaves consumed streams mid-flight).
    prev_live: usize,
    cache: DispatchCache,
    /// Cached merged **periodic** event sequence (see [`ensure_seq`]
    /// (DemandAnalysis::ensure_seq)): event times and owning task indices
    /// of every in-window task-stream event, in exactly the order the
    /// tournament merge emits them. Valid for `seq_epoch`; covers events
    /// up to `seq_horizon` (+ [`TIME_EPS`]).
    seq_times: Vec<f64>,
    seq_task: Vec<usize>,
    /// Claim attached to each cached event (`cache.claim[seq_task[i]]`,
    /// denormalized so the sweep reads one dense array; task claims are
    /// fixed between cache rebuilds, which also invalidate the sequence).
    /// A **negative** claim marks a tombstone: an event an in-place repair
    /// dropped (real claims are never negative). Tombstones keep their
    /// times, and `seq_times` is non-decreasing over them too. The sweep
    /// skips tombstones wholesale — no group roll, no accumulation — so
    /// the swept stream is exactly the compacted one. [`compact_seq`]
    /// (DemandAnalysis::compact_seq) reclaims them once `seq_stale` grows.
    seq_claim: Vec<f64>,
    /// Double buffers for the splice repair (moves that reorder events).
    seq_times_spare: Vec<f64>,
    seq_task_spare: Vec<usize>,
    seq_claim_spare: Vec<f64>,
    /// Per-task generator state at the **end** of the cached sequence —
    /// extending the horizon resumes these chains.
    chains: Vec<TaskChain>,
    /// Release basis (bits) each task's cached chain was generated from;
    /// a repair regenerates exactly the tasks whose basis moved.
    seq_release: Vec<f64>,
    seq_epoch: u64,
    seq_valid: bool,
    seq_horizon: f64,
    /// Number of tombstoned events currently parked in the sequence.
    seq_stale: usize,
    /// Scratch: ready-job singletons sorted by `(deadline, position)`.
    ready_sorted: Vec<ReadyEvent>,
    /// Scratch: per-task changed flags for the splice repair.
    changed: Vec<bool>,
    /// Scratch: indices of the changed tasks (the splice's argmin only
    /// competes these — untouched chains are pending beyond the old
    /// coverage bound and cannot precede any kept event).
    changed_idx: Vec<usize>,
    /// Scratch: per-task lead-event drop counts for the slide fast path.
    drops: Vec<u32>,
    /// Scratch: regenerated `(time, task)` events of a re-stamp or splice.
    new_events: Vec<(f64, usize)>,
    /// Scratch: sequence positions of the re-stamped task's live events.
    slots: Vec<usize>,
    analyses: u64,
    events_swept: u64,
    /// Repairs per [`RepairPath`] (unit tests assert every path ran).
    #[cfg(test)]
    repair_counts: [u64; 4],
}

/// The ways [`DemandAnalysis::repair_seq`] can update the cached
/// sequence (compaction follows a slide or a re-stamp).
#[derive(Debug, Clone, Copy)]
enum RepairPath {
    Slide,
    Restamp,
    Splice,
    Compact,
}

/// Generator state of one task's deadline chain in the cached sequence.
///
/// Steps exactly like a task stream in [`DemandAnalysis::advance`]
/// (`release += period; next = release + deadline_rel`), so resumed chain
/// events are bit-identical to a from-scratch enumeration.
#[derive(Debug, Clone, Copy)]
struct TaskChain {
    release: f64,
    /// Next not-yet-emitted event time (`release + deadline_rel`).
    next: f64,
}

/// A ready-job singleton in the overlay merge: deadline, registration
/// position (the tie-break the packed stream index provided) and claim.
#[derive(Debug, Clone, Copy)]
struct ReadyEvent {
    deadline: f64,
    pos: usize,
    claim: f64,
}

/// Cached between-dispatch state, each layer keyed on the event source
/// that can change it. All values are stored exactly as the from-scratch
/// sweep would recompute them, so cache hits are bit-identical by
/// construction.
#[derive(Debug, Clone, Default)]
struct DispatchCache {
    /// Task-descriptor layer valid (cleared by
    /// [`DemandAnalysis::invalidate`], i.e. on pool reset).
    valid: bool,
    /// Release-outlook layer valid for `release_epoch`.
    releases_valid: bool,
    /// Ledger snapshot valid for `ledger_revision`.
    ledger_valid: bool,
    n_tasks: usize,
    release_epoch: u64,
    ledger_revision: u64,
    /// Per-task canonical claim `C_i/U` (fixed between pool resets).
    claim: Vec<f64>,
    period: Vec<f64>,
    /// Per-task relative deadline.
    drel: Vec<f64>,
    max_period: f64,
    /// Per-task next release instant (refreshed per release epoch).
    release: Vec<f64>,
    /// Per-task next absolute deadline `release + drel`.
    next_deadline: Vec<f64>,
    /// `max_i next_deadline_i` — structural floor of the horizon.
    first_deadlines: f64,
    /// `max_i (next_deadline_i − T_i)` — earliest checkpoint from which
    /// the tail bound dominates all later checkpoints (see
    /// [`prune_safety`]).
    vmax: f64,
    /// Ledger entries `(tag, amount)` split into dense arrays, plus their
    /// total, snapshot at `ledger_revision`.
    ledger_tags: Vec<f64>,
    ledger_amounts: Vec<f64>,
    ledger_total: f64,
}

/// Packs an event key: `u128` ordering is lexicographic on
/// `(f64::total_cmp(time), stream index)`.
///
/// Event times are non-negative (deadlines at or after `now ≥ 0`) or `+∞`
/// for exhausted streams, so the IEEE-754 bit patterns of the times order
/// exactly as `total_cmp` does and a plain integer compare of the packed
/// keys ranks earlier events first, ties to the lower stream index.
#[inline]
fn pack(time: f64, stream: usize) -> u128 {
    debug_assert!(
        time.is_sign_positive(),
        "event time {time} must be non-negative"
    );
    // xtask:allow(as-cast): lossless widening of an index into the key's low bits
    (u128::from(time.to_bits()) << 64) | stream as u128
}

/// The event time of a packed key.
#[inline]
fn key_time(key: u128) -> f64 {
    // xtask:allow(as-cast): lossless truncation recovering the high 64 key bits
    f64::from_bits((key >> 64) as u64)
}

/// The stream index of a packed key.
#[inline]
fn key_stream(key: u128) -> usize {
    // xtask:allow(as-cast): recovers the index packed from a usize in `pack`
    key as u64 as usize
}

/// Event generator state for one stream.
///
/// Ready jobs and ledger entries are singletons; a task stream yields one
/// event per in-window release, generated on demand by stepping `release`
/// by the period — the same float accumulation a materialized enumeration
/// performs, so event times are bit-identical.
#[derive(Debug, Clone, Copy, Default)]
struct StreamStep {
    /// Current release instant (task streams only).
    release: f64,
    /// Release period for task streams; `0.0` marks a singleton.
    period: f64,
    /// Relative deadline (task streams only).
    deadline_rel: f64,
}

impl StreamStep {
    /// A singleton event source (ready-job deadline or ledger tag): one
    /// event, then exhausted.
    const SINGLETON: StreamStep = StreamStep {
        release: 0.0,
        period: 0.0,
        deadline_rel: 0.0,
    };
}

/// The result of one demand analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandSlack {
    /// Minimum checkpoint slack — time claimed by nobody (never negative).
    pub slack: f64,
    /// Total claim mass at the binding checkpoint. The governor grants the
    /// dispatched job only its *share* `claim_J / binding_claims` of the
    /// slack: handing all of it to whoever dispatches first is safe but
    /// greedy, and the convex power curve punishes the resulting speed
    /// asymmetry (measurably so at worst-case demand).
    ///
    /// Canonicalized to `0.0` whenever `slack == 0.0`: a zero grant has no
    /// shares, and pinning the representation lets the pruned sweep stop
    /// the moment slack hits zero while staying bit-identical to the full
    /// sweep.
    pub binding_claims: f64,
}

/// Conservative envelope on the accumulated floating-point error of the
/// checkpoint sweep, used by the early-exit prune.
///
/// # Prune soundness
///
/// The sweep may stop at a checkpoint `d` and return the current
/// `(min_slack, binding_claims)` when **no later checkpoint and not the
/// final tail-bound comparison can change them**. In exact arithmetic:
///
/// * For any checkpoint `D > d ≥ vmax` (with `vmax = max_i (nd_i − T_i)`,
///   `nd_i` task `i`'s next absolute deadline), every task satisfies
///   `D ≥ nd_i − T_i`, so its event count up to `D` obeys
///   `count_i(D) ≤ (D − nd_i)/T_i + 1` (zero events while `D < nd_i`,
///   where the right side is still ≥ 0). Singletons (ready jobs, ledger
///   entries) are subtracted **in full** by the tail bound, so
///   `claims(D) ≤ ready + ledger + Σ_i count_i(D)·claim_i` gives
///
///   ```text
///   slack(D) = (D − t) − claims(D) ≥ tail_bound + (D − t)·(1 − ρ)
///            ≥ tail_bound,
///   ```
///
///   because the canonical claim density `ρ = Σ claim_i/T_i ≤ 1` and
///   `D ≥ t`. Hence once `min_slack ≤ tail_bound`, no later checkpoint
///   can *strictly* undercut `min_slack`, and the sweep's strict `<`
///   update never fires again.
/// * The final `tail_bound < min_slack` update cannot fire either, for
///   the same reason.
///
/// Floating point makes both `min_slack` and `tail_bound` approximate.
/// Every quantity in play is a sum/difference of `events + O(n_tasks)`
/// non-negative terms bounded by `window + claims + tail_abs` (`claims`
/// is itself the abs-sum of the claim prefix; `tail_abs` the abs-sum of
/// the tail accumulation), so the classic summation bound
/// `|err| ≤ ε · ops · Σ|terms|` covers the drift of both sides. Pruning
/// therefore requires `min_slack ≤ tail_bound − prune_safety(...)`: if
/// the margin holds in floats it holds in reals, and the unpruned sweep
/// would return the identical `(min_slack, binding_claims)` bits.
///
/// The prune changes **which events are visited, never the result** —
/// enforced bit-exactly by the debug re-check in
/// [`DemandAnalysis::analyze`] and the differential proptests.
#[inline]
fn prune_safety(events: u64, n_tasks: usize, window: f64, claims: f64, tail_abs: f64) -> f64 {
    // xtask:allow(as-cast): exact widening of small operation counts
    let ops = (events + 2 * n_tasks as u64 + 16) as f64;
    f64::EPSILON * ops * (window + claims + tail_abs + 1.0)
}

/// Canonical result assembly shared by the pruned and unpruned paths:
/// clamp non-finite/negative slack to zero and pin `binding_claims = 0`
/// whenever no slack is granted (see [`DemandSlack::binding_claims`]).
#[inline]
fn finish(min_slack: f64, binding_claims: f64) -> DemandSlack {
    let slack = if min_slack.is_finite() {
        min_slack.max(0.0)
    } else {
        0.0
    };
    DemandSlack {
        slack,
        binding_claims: if slack > 0.0 && binding_claims.is_finite() {
            binding_claims
        } else {
            0.0
        },
    }
}

/// Running state of one overlay sweep
/// ([`DemandAnalysis::sweep_overlay`]).
///
/// Events are grouped as the reference groups them: an event later than
/// the open group's gate `d + TIME_EPS` closes that group and opens one at
/// its own time `d`. A sweep has two phases, split at the first group whose
/// gate reaches the dispatched job's deadline (gates only grow). Before
/// it no checkpoint binds, so events only accumulate and open groups.
/// From it on every event binds: `d − now` is computed once per group,
/// and the full-stop prune is tested at group boundaries only while it is
/// armed (`min_slack <= tail_bound`, re-checked when the minimum moves;
/// the first binding event always moves it off `+∞`, so the flag is exact
/// at every boundary where the reference tests the prune).
///
/// Checkpoint candidates are evaluated after **every** binding event with
/// the open group's head `d`: a mid-group candidate shares `d` with its
/// group's final candidate but carries strictly smaller claims (every
/// claim is positive), so it is strictly larger and can never win the
/// strict-minimum update — the minimum and its binding claims land on
/// exactly the group-end values the grouped reference computes. The
/// `vmax` full-stop check runs at group boundaries only (mid-group it
/// could miss the open group's own end checkpoint); the zero-slack stop
/// may fire mid-group because [`finish`] canonicalizes every non-positive
/// minimum to the same `(0, 0)` result.
#[derive(Debug)]
struct Sweep {
    deadline: f64,
    now: f64,
    vmax: f64,
    tail_bound: f64,
    tail_abs: f64,
    n_tasks: usize,
    events: u64,
    claims: f64,
    min_slack: f64,
    binding_claims: f64,
    /// The open group's head time `d` (phase two only).
    d: f64,
    /// `d − now` of the open group (phase two only).
    window: f64,
    /// `d + TIME_EPS` of the open group.
    gate: f64,
    /// A binding group has opened (phase two).
    binding: bool,
    /// `min_slack <= tail_bound` in phase two: the full-stop prune may fire.
    armed: bool,
}

impl Sweep {
    /// Sweeps a run of events in merge order; `true` when the sweep stops
    /// (the prune fired at a group boundary, or the minimum reached zero).
    /// With `SEQ` the run is cached sequence events, whose negative claims
    /// mark tombstones: those are skipped wholesale — no group roll, no
    /// accumulation — so the swept stream is exactly the compacted one.
    /// Singletons are swept as one-event runs without it.
    fn run<const SEQ: bool>(&mut self, times: &[f64], claims: &[f64]) -> bool {
        let mut i = 0;
        if !self.binding {
            // Phase one: nothing binds and no closing group can prune.
            // Stop before the event that opens the first binding group.
            while i < times.len() {
                let claim = claims[i];
                if !(SEQ && claim < 0.0) {
                    let t = times[i];
                    if t > self.gate {
                        let gate = t + TIME_EPS;
                        if gate >= self.deadline {
                            self.binding = true;
                            break;
                        }
                        self.gate = gate;
                    }
                    self.events += 1;
                    self.claims += claim;
                }
                i += 1;
            }
        }
        // Phase two, on locals so the loop state stays in registers.
        let (now, vmax, tail_bound) = (self.now, self.vmax, self.tail_bound);
        let mut events = self.events;
        let mut acc = self.claims;
        let mut min_slack = self.min_slack;
        let mut binding_claims = self.binding_claims;
        let (mut d, mut window, mut gate) = (self.d, self.window, self.gate);
        let mut armed = self.armed;
        let mut stop = false;
        for (&t, &claim) in times[i..].iter().zip(&claims[i..]) {
            if SEQ && claim < 0.0 {
                continue;
            }
            if t > gate {
                // The closed group's checkpoint minimum is final here.
                if armed
                    && d >= vmax
                    && min_slack
                        <= tail_bound
                            - prune_safety(events, self.n_tasks, window, acc, self.tail_abs)
                {
                    stop = true;
                    break;
                }
                d = t;
                window = t - now;
                gate = t + TIME_EPS;
            }
            events += 1;
            acc += claim;
            let slack = window - acc;
            if slack < min_slack {
                min_slack = slack;
                binding_claims = acc;
                // Zero slack is absorbing, so the stop is checked only
                // when the minimum moved.
                if slack <= 0.0 {
                    stop = true;
                    break;
                }
                armed = slack <= tail_bound;
            }
        }
        self.events = events;
        self.claims = acc;
        self.min_slack = min_slack;
        self.binding_claims = binding_claims;
        (self.d, self.window, self.gate) = (d, window, gate);
        self.armed = armed;
        stop
    }

    /// The sweep's result and visited-event count.
    fn result(&self) -> (DemandSlack, u64) {
        (finish(self.min_slack, self.binding_claims), self.events)
    }
}

impl DemandAnalysis {
    /// Creates the analysis with the given look-ahead horizon in units of
    /// the task set's maximum period.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_periods` is not finite and positive.
    pub fn new(horizon_periods: f64) -> DemandAnalysis {
        assert!(
            horizon_periods.is_finite() && horizon_periods > 0.0,
            "horizon_periods {horizon_periods} must be finite and positive"
        );
        DemandAnalysis {
            horizon_periods,
            tree: Vec::new(),
            claims: Vec::new(),
            steps: Vec::new(),
            heads: Vec::new(),
            cap: 0,
            prev_live: 0,
            cache: DispatchCache::default(),
            seq_times: Vec::new(),
            seq_task: Vec::new(),
            seq_claim: Vec::new(),
            seq_times_spare: Vec::new(),
            seq_task_spare: Vec::new(),
            seq_claim_spare: Vec::new(),
            chains: Vec::new(),
            seq_release: Vec::new(),
            seq_epoch: 0,
            seq_valid: false,
            seq_horizon: 0.0,
            seq_stale: 0,
            ready_sorted: Vec::new(),
            changed: Vec::new(),
            changed_idx: Vec::new(),
            drops: Vec::new(),
            new_events: Vec::new(),
            slots: Vec::new(),
            analyses: 0,
            events_swept: 0,
            #[cfg(test)]
            repair_counts: [0; 4],
        }
    }

    /// The configured look-ahead horizon (in maximum periods).
    pub fn horizon_periods(&self) -> f64 {
        self.horizon_periods
    }

    /// Drops every cached between-dispatch layer. Call when the pool is
    /// reset (new run, new canonical stretch) — within a run the cache
    /// keys itself on [`SchedulerView::release_epoch`] and the ledger
    /// revision.
    pub fn invalidate(&mut self) {
        self.cache.valid = false;
        self.cache.releases_valid = false;
        self.cache.ledger_valid = false;
        self.seq_valid = false;
    }

    /// Cumulative effort counters since construction or
    /// [`reset_stats`](DemandAnalysis::reset_stats).
    pub fn stats(&self) -> AnalysisStats {
        AnalysisStats {
            analyses: self.analyses,
            events_swept: self.events_swept,
        }
    }

    /// Clears the [`stats`](DemandAnalysis::stats) counters.
    pub fn reset_stats(&mut self) {
        self.analyses = 0;
        self.events_swept = 0;
    }

    /// Unclaimed slack available to the dispatched `job` (never negative),
    /// together with the claim mass at the binding checkpoint.
    ///
    /// Call **after** the pool has granted the job its allowance for this
    /// dispatch (so the job's own claim reflects freshly absorbed bank).
    ///
    /// Incremental: reuses cached descriptors and prunes the checkpoint
    /// sweep (see the type-level docs). In debug builds the result is
    /// re-checked bit-exactly against a cold, unpruned sweep.
    pub fn analyze(
        &mut self,
        view: &SchedulerView<'_>,
        job: &ActiveJob,
        pool: &ReclaimedPool,
    ) -> DemandSlack {
        let (result, events) = self.analyze_impl(view, job, pool, true);
        self.analyses += 1;
        self.events_swept += events;
        #[cfg(debug_assertions)]
        {
            let seq_was_valid = self.seq_valid;
            self.invalidate();
            let (reference, ref_events) = self.analyze_impl(view, job, pool, false);
            // The reference run recomputed every descriptor bit-identically
            // (same inputs, same expressions), so the cached sequence is
            // still consistent with them — restore its validity so debug
            // runs keep exercising the cross-dispatch repair paths instead
            // of rebuilding at every call.
            self.seq_valid = seq_was_valid;
            debug_assert!(
                // xtask:allow(float-eq): deliberate bit-identity check — the pruned sweep must match the reference exactly, not approximately
                result.slack.to_bits() == reference.slack.to_bits()
                    // xtask:allow(float-eq): deliberate bit-identity check, as above
                    && result.binding_claims.to_bits() == reference.binding_claims.to_bits(),
                "incremental analysis diverged from the from-scratch sweep: \
                 {result:?} != {reference:?}"
            );
            debug_assert!(
                events <= ref_events,
                "pruned sweep visited {events} events, from-scratch {ref_events}"
            );
        }
        result
    }

    /// From-scratch, unpruned reference sweep: ignores every cached layer
    /// and visits the full look-ahead window. Returns the result and the
    /// number of events visited; does **not** touch the
    /// [`stats`](DemandAnalysis::stats) counters.
    ///
    /// This is the differential-testing oracle:
    /// [`analyze`](DemandAnalysis::analyze) must match it bit-identically.
    pub fn analyze_reference(
        &mut self,
        view: &SchedulerView<'_>,
        job: &ActiveJob,
        pool: &ReclaimedPool,
    ) -> (DemandSlack, u64) {
        let seq_was_valid = self.seq_valid;
        self.invalidate();
        let out = self.analyze_impl(view, job, pool, false);
        // As in `analyze`'s debug path: the recomputed descriptors are
        // bit-identical, so interleaved oracle calls do not force the next
        // incremental call back to a from-scratch sequence rebuild.
        self.seq_valid = seq_was_valid;
        out
    }

    /// One checkpoint sweep; `prune` selects the fast path (cached
    /// periodic sequence + singleton overlay + early exits) versus the
    /// from-scratch tournament-merge reference. Returns the result and
    /// the number of events visited.
    fn analyze_impl(
        &mut self,
        view: &SchedulerView<'_>,
        job: &ActiveJob,
        pool: &ReclaimedPool,
        prune: bool,
    ) -> (DemandSlack, u64) {
        let now = view.now();
        let n_tasks = view.tasks().len();
        self.refresh_cache(view, pool);

        // One pass over the ready jobs: the horizon's ready floor, the
        // ready claims total, and (fast path only) the sorted singleton
        // overlay — claims are re-granted continuously, so the overlay is
        // rebuilt every call.
        let mut latest_ready = job.deadline;
        let mut ready_claims = 0.0;
        if prune {
            self.ready_sorted.clear();
            for (pos, j) in view.ready_jobs().iter().enumerate() {
                latest_ready = latest_ready.max(j.deadline);
                let claim = pool.remaining_claim_of(j);
                ready_claims += claim;
                self.ready_sorted.push(ReadyEvent {
                    deadline: j.deadline,
                    pos,
                    claim,
                });
            }
            // Sorting by `(deadline, registration position)` reproduces the
            // packed-key order the tournament merge gives these singletons.
            self.ready_sorted
                .sort_unstable_by(|a, b| a.deadline.total_cmp(&b.deadline).then(a.pos.cmp(&b.pos)));
        } else {
            for j in view.ready_jobs() {
                latest_ready = latest_ready.max(j.deadline);
                ready_claims += pool.remaining_claim_of(j);
            }
        }
        // The horizon must reach past every task's first in-window deadline
        // for the tail bound's count formula to apply beyond it.
        let horizon = latest_ready
            .max(now + self.horizon_periods * self.cache.max_period)
            .max(self.cache.first_deadlines);

        // Analytic tail bound for all checkpoints beyond the horizon. With
        // overhead pricing, every claim carries its task's switch margin,
        // and the canonical stretch keeps total accrual at rate 1.
        // `tail_abs` mirrors it with absolute values for the prune's
        // float-error envelope.
        let mut tail_bound = -ready_claims - self.cache.ledger_total;
        let mut tail_abs = ready_claims + self.cache.ledger_total;
        for i in 0..n_tasks {
            let claim = self.cache.claim[i];
            let next_deadline = self.cache.next_deadline[i];
            let term = (next_deadline - now) * claim / self.cache.period[i];
            tail_bound += term - claim;
            tail_abs += term + claim;
        }
        // A non-positive tail bound caps the result at zero slack before
        // any checkpoint is visited: the full sweep's final minimum is
        // `min(min_slack, tail_bound) <= 0`, which `finish` clamps to the
        // same canonical zero. Skip the whole sweep.
        if prune && tail_bound <= 0.0 {
            return (finish(tail_bound, f64::INFINITY), 0);
        }
        if prune {
            self.ensure_seq(horizon);
            return self.sweep_overlay(job, horizon, now, n_tasks, tail_bound, tail_abs);
        }
        self.sweep_reference(view, job, pool, horizon, now, tail_bound)
    }

    /// Fast checkpoint sweep: streams the cached periodic sequence,
    /// overlaying the per-dispatch singletons (sorted ready deadlines,
    /// ledger tags) with a merge whose tie-breaks reproduce the tournament
    /// merge's stream registration order (ready < tasks < ledger, then
    /// position).
    ///
    /// The merge is block-wise: the cached sequence is sorted by time,
    /// tombstones included (see [`repair_seq`](DemandAnalysis::repair_seq)),
    /// so one binary search finds the whole run of sequence events that
    /// pops before the next ready and ledger singletons (`t < tr && t <=
    /// tl`: ready singletons win time ties, task streams win ledger ties).
    /// [`Sweep::run`] sweeps that run in a plain loop, then the singleton
    /// pops as a one-event run. Event order, claim accumulation order and
    /// checkpoint arithmetic are exactly those of
    /// [`sweep_reference`](DemandAnalysis::sweep_reference), so results
    /// are bit-identical; the prune early-exits (sound per
    /// [`prune_safety`]) only cut the visit count.
    fn sweep_overlay(
        &self,
        job: &ActiveJob,
        horizon: f64,
        now: f64,
        n_tasks: usize,
        tail_bound: f64,
        tail_abs: f64,
    ) -> (DemandSlack, u64) {
        // Same float expression the stream generators clip with. The cached
        // sequence is sorted, so one partition point replaces the per-event
        // horizon clip.
        let h_gate = horizon + TIME_EPS;
        let till = self.seq_times.partition_point(|&t| t <= h_gate);
        let seq_times = &self.seq_times[..till];
        let seq_claim = &self.seq_claim[..till];
        let ready = &self.ready_sorted[..];
        let tags = &self.cache.ledger_tags[..];
        let amounts = &self.cache.ledger_amounts[..];

        let mut sweep = Sweep {
            deadline: job.deadline,
            now,
            vmax: self.cache.vmax,
            tail_bound,
            tail_abs,
            n_tasks,
            events: 0,
            claims: 0.0,
            min_slack: f64::INFINITY,
            binding_claims: f64::INFINITY,
            d: f64::NAN,
            window: f64::NAN,
            // The sentinel gate makes the first event open a group without
            // a (guarded-out) boundary checkpoint.
            gate: f64::NEG_INFINITY,
            binding: false,
            armed: false,
        };
        let (mut p, mut r, mut l) = (0usize, 0usize, 0usize);
        loop {
            let tr = ready.get(r).map_or(f64::INFINITY, |e| e.deadline);
            let tl = tags.get(l).map_or(f64::INFINITY, |&t| t.min(horizon));
            let q = p + seq_times[p..].partition_point(|&t| t < tr && t <= tl);
            if sweep.run::<true>(&seq_times[p..q], &seq_claim[p..q]) {
                return sweep.result();
            }
            p = q;
            // The sequence is exhausted or its next event loses to a
            // singleton: pop the earlier singleton, ready first on ties.
            let stop = if tr <= tl {
                if !tr.is_finite() {
                    break;
                }
                r += 1;
                sweep.run::<false>(&[tr], &[ready[r - 1].claim])
            } else {
                l += 1;
                sweep.run::<false>(&[tl], &[amounts[l - 1]])
            };
            if stop {
                return sweep.result();
            }
        }
        if tail_bound < sweep.min_slack {
            sweep.min_slack = tail_bound;
            sweep.binding_claims = sweep.claims; // everything outstanding binds the tail
        }
        sweep.result()
    }

    /// From-scratch checkpoint sweep: registers every event stream (ready
    /// singletons, task streams, ledger singletons), builds the loser tree
    /// and runs the fused merge + prefix scan over the whole window. This
    /// is the oracle the fast path must match bit-identically.
    fn sweep_reference(
        &mut self,
        view: &SchedulerView<'_>,
        job: &ActiveJob,
        pool: &ReclaimedPool,
        horizon: f64,
        now: f64,
        tail_bound: f64,
    ) -> (DemandSlack, u64) {
        let ledger_len = self.cache.ledger_tags.len();
        let n_tasks = self.cache.n_tasks;
        self.ensure_streams(view.ready_jobs().len() + n_tasks + ledger_len);

        let mut live = 0usize;
        for j in view.ready_jobs() {
            self.claims[live] = pool.remaining_claim_of(j);
            self.heads[live] = j.deadline;
            self.steps[live] = StreamStep::SINGLETON;
            live += 1;
        }
        for i in 0..n_tasks {
            let next_deadline = self.cache.next_deadline[i];
            if next_deadline <= horizon + TIME_EPS {
                self.claims[live] = self.cache.claim[i];
                self.heads[live] = next_deadline;
                self.steps[live] = StreamStep {
                    release: self.cache.release[i],
                    period: self.cache.period[i],
                    deadline_rel: self.cache.drel[i],
                };
                live += 1;
            }
        }
        for k in 0..ledger_len {
            let tag = self.cache.ledger_tags[k];
            debug_assert!(
                tag <= horizon + TIME_EPS,
                "ledger tag {tag} beyond horizon {horizon}"
            );
            self.claims[live] = self.cache.ledger_amounts[k];
            self.heads[live] = tag.min(horizon);
            self.steps[live] = StreamStep::SINGLETON;
            live += 1;
        }
        self.build_tree(live);

        // Fused k-way merge + prefix scan: events pop in ascending time,
        // ties in stream registration order - exactly the order a stable
        // sort by time over the materialized blocks produces, so the f64
        // prefix sums are bit-identical (see [`pack`] and `build_tree`).
        let mut events: u64 = 0;
        let mut claims = 0.0;
        let mut min_slack = f64::INFINITY;
        let mut binding_claims = f64::INFINITY;
        let mut head = self.tree[0];
        while key_time(head).is_finite() {
            let d = key_time(head);
            let gate = d + TIME_EPS;
            loop {
                events += 1;
                claims += self.claims[key_stream(head)];
                head = self.advance(key_stream(head), horizon);
                if key_time(head) > gate {
                    break;
                }
            }
            // Checkpoints before the dispatched job's deadline do not bind
            // it (see `sweep_overlay`).
            if gate >= job.deadline {
                let slack = (d - now) - claims;
                if slack < min_slack {
                    min_slack = slack;
                    binding_claims = claims;
                }
            }
        }
        if tail_bound < min_slack {
            min_slack = tail_bound;
            binding_claims = claims; // everything outstanding binds the tail
        }
        (finish(min_slack, binding_claims), events)
    }

    /// Ensures the cached periodic sequence is valid for the current
    /// release epoch and covers `horizon`:
    ///
    /// * invalidated (pool reset, task set change) - full rebuild;
    /// * release epoch advanced (job release) - per-task **repair**: only
    ///   the chains whose release basis moved are regenerated and merged
    ///   back with the untouched remainder in one streaming pass;
    /// * horizon slid forward - pure tail **extension**, resuming the
    ///   saved chain states.
    ///
    /// Event times step exactly as [`advance`](DemandAnalysis::advance)
    /// does, so the sequence is bit-identical to a from-scratch merge.
    fn ensure_seq(&mut self, horizon: f64) {
        let n = self.cache.n_tasks;
        if !self.seq_valid || self.chains.len() != n {
            self.chains.clear();
            for i in 0..n {
                self.chains.push(TaskChain {
                    release: self.cache.release[i],
                    next: self.cache.next_deadline[i],
                });
            }
            self.seq_release.clear();
            self.seq_release.extend_from_slice(&self.cache.release);
            self.seq_times.clear();
            self.seq_task.clear();
            self.seq_claim.clear();
            self.seq_stale = 0;
            self.seq_horizon = horizon;
            self.seq_epoch = self.cache.release_epoch;
            self.extend_seq(horizon);
            self.seq_valid = true;
        // xtask:allow(float-eq): release_epoch is a u64 change counter, not a time
        } else if self.seq_epoch != self.cache.release_epoch {
            self.repair_seq(horizon);
        } else if horizon > self.seq_horizon {
            self.seq_horizon = horizon;
            self.extend_seq(horizon);
        }
        #[cfg(debug_assertions)]
        self.check_seq();
    }

    /// Debug self-check of the cached sequence's invariants: times
    /// non-decreasing with tombstones included, live events strictly
    /// increasing in `(time, task)` with their task's claim, the stale
    /// count exact, and every chain pending beyond the coverage bound.
    #[cfg(debug_assertions)]
    fn check_seq(&self) {
        let bound = self.seq_horizon + TIME_EPS;
        let mut stale = 0;
        let mut prev: Option<(f64, usize)> = None;
        for (p, (&t, &task)) in self.seq_times.iter().zip(&self.seq_task).enumerate() {
            assert!(
                p == 0 || self.seq_times[p - 1] <= t,
                "sequence times decrease at slot {p}"
            );
            assert!(t <= bound, "slot {p} lies beyond the coverage bound");
            if task == usize::MAX {
                assert!(self.seq_claim[p] < 0.0, "tombstone {p} carries a claim");
                stale += 1;
                continue;
            }
            assert_eq!(
                self.seq_claim[p].to_bits(),
                self.cache.claim[task].to_bits(),
                "slot {p} carries a stale claim"
            );
            if let Some((u, v)) = prev {
                // xtask:allow(float-eq): bit-equal times tie-break by task index
                let ordered = u < t || (u.to_bits() == t.to_bits() && v < task);
                assert!(ordered, "live events out of (time, task) order at slot {p}");
            }
            prev = Some((t, task));
        }
        assert_eq!(stale, self.seq_stale, "stale count drifted");
        assert!(
            self.chains.iter().all(|c| c.next > bound),
            "a chain's pending event lies inside the coverage bound"
        );
    }

    /// Copies the live events down over the tombstones (all three arrays)
    /// and resets the stale count. Pure removal of sweep no-ops, so the
    /// swept stream is unchanged.
    fn compact_seq(&mut self) {
        let mut w = 0usize;
        for p in 0..self.seq_task.len() {
            let t = self.seq_task[p];
            if t == usize::MAX {
                continue;
            }
            self.seq_times[w] = self.seq_times[p];
            self.seq_task[w] = t;
            self.seq_claim[w] = self.seq_claim[p];
            w += 1;
        }
        self.seq_times.truncate(w);
        self.seq_task.truncate(w);
        self.seq_claim.truncate(w);
        self.seq_stale = 0;
    }

    /// Appends every pending chain event with time at most `to` (+
    /// [`TIME_EPS`], the stream generators' clip rule) to the cached
    /// sequence, earliest first, ties to the lower task index - the
    /// packed-key order of the tournament merge.
    fn extend_seq(&mut self, to: f64) {
        let bound = to + TIME_EPS;
        loop {
            let mut best = usize::MAX;
            let mut best_t = f64::INFINITY;
            for (i, c) in self.chains.iter().enumerate() {
                if c.next < best_t {
                    best_t = c.next;
                    best = i;
                }
            }
            if best_t > bound {
                break;
            }
            self.seq_times.push(best_t);
            self.seq_task.push(best);
            self.seq_claim.push(self.cache.claim[best]);
            let c = &mut self.chains[best];
            c.release += self.cache.period[best];
            c.next = c.release + self.cache.drel[best];
        }
    }

    /// Repairs the cached sequence after the release outlook moved.
    ///
    /// Every path keeps the sequence's times **non-decreasing, tombstones
    /// included** — the block merge of
    /// [`sweep_overlay`](DemandAnalysis::sweep_overlay) binary-searches
    /// them — and its live events in strictly increasing `(time, task)`
    /// order, the tournament merge's.
    ///
    /// **Slide fast path**: when every moved release basis advanced along
    /// its chain's additive lattice (`release += period`, bit-checked),
    /// the regenerated chain is the old one minus its leading events — all
    /// later events are produced by the identical float operations on the
    /// identical operands. The repair tombstones each slid task's first
    /// `k` live events in place (no memmove; see the `seq_claim` field
    /// doc), steps the saved chain state over any drops beyond the
    /// emitted prefix, and compacts once enough tombstones pile up.
    ///
    /// **General path** (a basis moved off the chain's lattice). The
    /// engine computes a release as `phase + index·period` while a chain
    /// steps `release += period`, so periodic releases miss the slide by
    /// an ulp as often as not; jitter and sporadic gaps move it further.
    /// Each changed task is first re-stamped in place
    /// ([`restamp`](DemandAnalysis::restamp)); from the first task that
    /// cannot be, the rest are regenerated from their new bases as one
    /// merged stream (argmin over those chains) and spliced past the kept
    /// events in one two-way pass into the spare buffers (then swapped,
    /// dropping tombstones for free). Untouched and re-stamped chains are
    /// pending beyond the old coverage bound, so they cannot precede any
    /// kept event and never enter the merge.
    ///
    /// Every path also extends coverage to `horizon` when it moved past
    /// the cached one.
    fn repair_seq(&mut self, horizon: f64) {
        let n = self.cache.n_tasks;
        // Slide detection: walk each moved basis forward along the old
        // additive lattice and require a bit-exact hit.
        // Generous: a slide step is one float add, and covering a long idle
        // gap (many releases of a short-period task between dispatches) on
        // the fast path is far cheaper than any merge repair.
        const MAX_SLIDE: u32 = 512;
        self.drops.clear();
        self.drops.resize(n, 0);
        let mut slide_ok = true;
        let mut total_drops: u32 = 0;
        self.changed.clear();
        self.changed.resize(n, false);
        self.changed_idx.clear();
        for i in 0..n {
            // xtask:allow(float-eq): deliberate bit-compare — an identical basis means an identical chain
            if self.cache.release[i].to_bits() == self.seq_release[i].to_bits() {
                continue;
            }
            self.changed[i] = true;
            self.changed_idx.push(i);
            if slide_ok {
                let target_bits = self.cache.release[i].to_bits();
                let mut r = self.seq_release[i];
                let mut steps: u32 = 0;
                loop {
                    r += self.cache.period[i];
                    steps += 1;
                    if r.to_bits() == target_bits {
                        self.drops[i] = steps;
                        total_drops += steps;
                        break;
                    }
                    if steps >= MAX_SLIDE || r > self.cache.release[i] {
                        slide_ok = false;
                        break;
                    }
                }
            }
        }
        self.seq_release.clear();
        self.seq_release.extend_from_slice(&self.cache.release);
        self.seq_epoch = self.cache.release_epoch;
        if self.changed_idx.is_empty() {
            if horizon > self.seq_horizon {
                self.seq_horizon = horizon;
                self.extend_seq(horizon);
            }
            return;
        }
        if slide_ok {
            self.count_repair(RepairPath::Slide);
            if total_drops == 1 {
                // Overwhelmingly common: one task released one job. Its
                // earliest remaining event (if emitted) leads the drop.
                let task = self.changed_idx[0];
                match self.seq_task.iter().position(|&t| t == task) {
                    Some(idx) => {
                        self.seq_task[idx] = usize::MAX;
                        self.seq_claim[idx] = TOMBSTONE;
                        self.seq_stale += 1;
                    }
                    None => {
                        // Nothing emitted yet: skip the pending event.
                        let c = &mut self.chains[task];
                        c.release += self.cache.period[task];
                        c.next = c.release + self.cache.drel[task];
                    }
                }
            } else {
                let mut pending = total_drops;
                for p in 0..self.seq_task.len() {
                    let t = self.seq_task[p];
                    // `t < n` also filters earlier tombstones.
                    if t < n && self.drops[t] > 0 {
                        self.drops[t] -= 1;
                        self.seq_task[p] = usize::MAX;
                        self.seq_claim[p] = TOMBSTONE;
                        self.seq_stale += 1;
                        pending -= 1;
                        if pending == 0 {
                            break;
                        }
                    }
                }
                // Drops past the emitted prefix skip pending events.
                for k in 0..self.changed_idx.len() {
                    let i = self.changed_idx[k];
                    for _ in 0..self.drops[i] {
                        let c = &mut self.chains[i];
                        c.release += self.cache.period[i];
                        c.next = c.release + self.cache.drel[i];
                    }
                }
            }
            self.finish_in_place(horizon);
            return;
        }
        let old_bound = self.seq_horizon + TIME_EPS;
        let mut restamped = 0;
        while restamped < self.changed_idx.len()
            && self.restamp(self.changed_idx[restamped], old_bound)
        {
            self.changed[self.changed_idx[restamped]] = false;
            restamped += 1;
        }
        if restamped == self.changed_idx.len() {
            self.count_repair(RepairPath::Restamp);
            self.finish_in_place(horizon);
            return;
        }
        self.count_repair(RepairPath::Splice);
        self.changed_idx.drain(..restamped);
        // Splice: regenerate each remaining changed chain from its new
        // basis up to the old coverage bound, sort the regenerated events
        // once, and splice them into the kept events in a single two-way
        // pass (then extend if the horizon also moved — the regenerated
        // chains are already stepped past the bound, so the extension's
        // argmin interleaves every chain correctly). Ties are only
        // possible across distinct tasks and go to the lower task index,
        // as the packed keys of the tournament merge would.
        self.new_events.clear();
        for &i in &self.changed_idx {
            self.chains[i] = TaskChain {
                release: self.cache.release[i],
                next: self.cache.next_deadline[i],
            };
        }
        // Emit the changed chains' merged stream (earliest first, ties to
        // the lower task index — the strict `<` argmin provides both).
        loop {
            let mut best = usize::MAX;
            let mut best_t = f64::INFINITY;
            for &i in &self.changed_idx {
                if self.chains[i].next < best_t {
                    best_t = self.chains[i].next;
                    best = i;
                }
            }
            if best_t > old_bound {
                break;
            }
            self.new_events.push((best_t, best));
            let c = &mut self.chains[best];
            c.release += self.cache.period[best];
            c.next = c.release + self.cache.drel[best];
        }
        self.seq_times_spare.clear();
        self.seq_task_spare.clear();
        self.seq_claim_spare.clear();
        let mut q = 0usize;
        for p in 0..self.seq_times.len() {
            let old_task = self.seq_task[p];
            if old_task == usize::MAX || self.changed[old_task] {
                // Tombstone, or stale event of a regenerated chain. New
                // events that would have sorted before it are emitted
                // ahead of the next kept event instead — same order.
                continue;
            }
            let old_t = self.seq_times[p];
            while q < self.new_events.len() {
                let (t, i) = self.new_events[q];
                // xtask:allow(float-eq): bit-equal times tie-break by task index
                if t < old_t || (t.to_bits() == old_t.to_bits() && i < old_task) {
                    self.seq_times_spare.push(t);
                    self.seq_task_spare.push(i);
                    self.seq_claim_spare.push(self.cache.claim[i]);
                    q += 1;
                } else {
                    break;
                }
            }
            self.seq_times_spare.push(old_t);
            self.seq_task_spare.push(old_task);
            self.seq_claim_spare.push(self.seq_claim[p]);
        }
        for &(t, i) in &self.new_events[q..] {
            self.seq_times_spare.push(t);
            self.seq_task_spare.push(i);
            self.seq_claim_spare.push(self.cache.claim[i]);
        }
        std::mem::swap(&mut self.seq_times, &mut self.seq_times_spare);
        std::mem::swap(&mut self.seq_task, &mut self.seq_task_spare);
        std::mem::swap(&mut self.seq_claim, &mut self.seq_claim_spare);
        self.seq_stale = 0; // the splice dropped every tombstone
        let target = self.seq_horizon.max(horizon);
        self.seq_horizon = target;
        self.extend_seq(target);
    }

    /// Counts a repair path in unit-test builds.
    #[inline]
    fn count_repair(&mut self, path: RepairPath) {
        #[cfg(test)]
        {
            let k = match path {
                RepairPath::Slide => 0,
                RepairPath::Restamp => 1,
                RepairPath::Splice => 2,
                RepairPath::Compact => 3,
            };
            self.repair_counts[k] += 1;
        }
        #[cfg(not(test))]
        let _ = path;
    }

    /// Ends an in-place repair (slide or re-stamp): compacts once enough
    /// tombstones piled up, then extends coverage to `horizon`.
    fn finish_in_place(&mut self, horizon: f64) {
        if self.seq_stale >= STALE_COMPACT {
            self.count_repair(RepairPath::Compact);
            self.compact_seq();
        }
        if horizon > self.seq_horizon {
            self.seq_horizon = horizon;
            self.extend_seq(horizon);
        }
    }

    /// Re-stamps task `i`'s chain in place after its basis moved: its
    /// events up to the coverage bound `bound` are regenerated from the
    /// new basis and overwrite the task's own slots, in order. Slots whose
    /// event lies more than half a period before the new first event are
    /// the leading drops, and slots left over at the end (a last event
    /// that crossed the bound) drop too; both become tombstones that keep
    /// their times.
    ///
    /// The rewrite is taken only if the result stays sorted: each
    /// re-stamped event must keep `(time, task)` order against its nearest
    /// live neighbour of another task on either side, and time order
    /// against every tombstone in between (the task's own dropped slots
    /// count as tombstones). Neighbours of the same task are re-stamped in
    /// order and increase by construction. Returns `false`, having changed
    /// nothing, when the check fails or the new chain has more events
    /// than the old one kept — the caller then splices.
    fn restamp(&mut self, i: usize, bound: f64) -> bool {
        let period = self.cache.period[i];
        let drel = self.cache.drel[i];
        let mut chain = TaskChain {
            release: self.cache.release[i],
            next: self.cache.next_deadline[i],
        };
        self.new_events.clear();
        while chain.next <= bound {
            self.new_events.push((chain.next, i));
            chain.release += period;
            chain.next = chain.release + drel;
        }
        self.slots.clear();
        self.slots.extend(
            self.seq_task
                .iter()
                .enumerate()
                .filter_map(|(p, &t)| (t == i).then_some(p)),
        );
        let times = &self.seq_times;
        let tasks = &self.seq_task;
        let lead = match self.new_events.first() {
            Some(&(first, _)) => {
                let cut = first - 0.5 * period;
                self.slots.partition_point(|&p| times[p] < cut)
            }
            None => self.slots.len(),
        };
        let fresh = self.new_events.len();
        let Some(trail) = self.slots.len().checked_sub(lead + fresh) else {
            return false;
        };
        let kept = &self.slots[lead..lead + fresh];
        for (j, (&slot, &(t, _))) in kept.iter().zip(&self.new_events).enumerate() {
            // Left, to the nearest live event of another task. The task's
            // own slots left of its first re-stamped one are leading drops
            // (tombstones to be); any later one stops at its predecessor.
            let mut p = slot;
            while p > 0 {
                p -= 1;
                let task = tasks[p];
                let u = times[p];
                if task == i && j > 0 {
                    break;
                }
                if task == i || task == usize::MAX {
                    if u > t {
                        return false;
                    }
                    continue;
                }
                // xtask:allow(float-eq): bit-equal times tie-break by task index
                if !(u < t || (u.to_bits() == t.to_bits() && task < i)) {
                    return false;
                }
                break;
            }
            // Right, likewise: only the last re-stamped slot sees the
            // task's trailing drops; any other stops at its successor.
            let last = j + 1 == fresh;
            for p in slot + 1..tasks.len() {
                let task = tasks[p];
                let u = times[p];
                if task == i && !last {
                    break;
                }
                if task == i || task == usize::MAX {
                    if t > u {
                        return false;
                    }
                    continue;
                }
                // xtask:allow(float-eq): bit-equal times tie-break by task index
                if !(t < u || (t.to_bits() == u.to_bits() && i < task)) {
                    return false;
                }
                break;
            }
        }
        for (&slot, &(t, _)) in kept.iter().zip(&self.new_events) {
            self.seq_times[slot] = t;
        }
        for &slot in self.slots[..lead].iter().chain(&self.slots[lead + fresh..]) {
            self.seq_task[slot] = usize::MAX;
            self.seq_claim[slot] = TOMBSTONE;
        }
        self.seq_stale += lead + trail;
        self.chains[i] = chain;
        true
    }

    /// Refreshes the cached layers that are out of date (see
    /// [`DispatchCache`]). Values are recomputed with the exact
    /// expressions the from-scratch sweep uses, so hits are bit-identical.
    fn refresh_cache(&mut self, view: &SchedulerView<'_>, pool: &ReclaimedPool) {
        let tasks = view.tasks();
        let n = tasks.len();
        let cache = &mut self.cache;
        if !cache.valid || cache.n_tasks != n {
            cache.n_tasks = n;
            cache.claim.clear();
            cache.period.clear();
            cache.drel.clear();
            for (id, task) in tasks.iter() {
                cache.claim.push(pool.claim_of(id));
                cache.period.push(task.period());
                cache.drel.push(task.deadline());
            }
            cache.max_period = tasks.max_period();
            cache.releases_valid = false;
            cache.ledger_valid = false;
            cache.valid = true;
            // A rebuilt task table invalidates the cached event sequence.
            self.seq_valid = false;
        }
        // xtask:allow(float-eq): release_epoch is a u64 change counter, not a time
        if !cache.releases_valid || cache.release_epoch != view.release_epoch() {
            cache.release.clear();
            cache.next_deadline.clear();
            let mut first_deadlines = 0.0;
            let mut vmax = f64::NEG_INFINITY;
            for (i, (id, _)) in tasks.iter().enumerate() {
                let release = view.next_release_of(id);
                let next_deadline = release + cache.drel[i];
                first_deadlines = f64::max(first_deadlines, next_deadline);
                vmax = f64::max(vmax, next_deadline - cache.period[i]);
                cache.release.push(release);
                cache.next_deadline.push(next_deadline);
            }
            cache.first_deadlines = first_deadlines;
            cache.vmax = vmax;
            cache.release_epoch = view.release_epoch();
            cache.releases_valid = true;
        }
        let ledger = pool.ledger();
        if !cache.ledger_valid || cache.ledger_revision != ledger.revision() {
            cache.ledger_tags.clear();
            cache.ledger_amounts.clear();
            for (tag, amount) in ledger.iter() {
                cache.ledger_tags.push(tag);
                cache.ledger_amounts.push(amount);
            }
            cache.ledger_total = ledger.total();
            cache.ledger_revision = ledger.revision();
            cache.ledger_valid = true;
        }
    }

    /// Grows the stream scratch arrays to hold at least `n` streams.
    /// One-time growth: steady-state calls never allocate.
    fn ensure_streams(&mut self, n: usize) {
        if self.claims.len() < n {
            self.claims.resize(n, 0.0);
            self.heads.resize(n, f64::INFINITY);
            self.steps.resize(n, StreamStep::SINGLETON);
        }
    }

    /// Builds the loser tree over streams `0..live`, padding the leaf
    /// level with exhausted (`+∞`) keys up to the next power of two.
    ///
    /// Streams are registered in the order a materialized enumeration
    /// pushes its event blocks (ready jobs, then tasks by id, then ledger
    /// entries) and each stream's times are non-decreasing, so the packed
    /// keys' tie-break to the lower stream index makes the merge emit ties
    /// in block (push) order: exactly the stable-sort order.
    ///
    /// The buffer persists across calls. Invariant: after every build at
    /// capacity `cap`, leaf slots `cap+live..2·cap` hold `+∞` pads —
    /// so a later build at the same `cap` only needs to re-pad
    /// `cap+live..cap+prev_live` (slots a pruned sweep may have left with
    /// finite mid-merge keys). A capacity change rewrites the pad range in
    /// full, since the slots belonged to a different layout.
    fn build_tree(&mut self, live: usize) {
        let cap = live.next_power_of_two();
        if self.tree.len() < 2 * cap {
            self.tree.resize(2 * cap, 0u128);
        }
        if cap == self.cap {
            for i in live..self.prev_live {
                self.tree[cap + i] = pack(f64::INFINITY, i);
            }
        } else {
            for i in live..cap {
                self.tree[cap + i] = pack(f64::INFINITY, i);
            }
        }
        for i in 0..live {
            self.tree[cap + i] = pack(self.heads[i], i);
        }
        // Winner pass bottom-up, then convert the internal nodes to the
        // losers of their matches top-down (children still hold winners
        // when their parent is converted).
        for n in (1..cap).rev() {
            self.tree[n] = self.tree[2 * n].min(self.tree[2 * n + 1]);
        }
        self.tree[0] = self.tree[1];
        for n in 1..cap {
            self.tree[n] = self.tree[2 * n].max(self.tree[2 * n + 1]);
        }
        self.cap = cap;
        self.prev_live = live;
    }

    /// Consumes the head of stream `w` and replays its tournament path:
    /// the new key of `w` plays the stored loser at each node up to the
    /// root, the winner carries upward, and the final winner lands in
    /// `tree[0]` (also returned) — one load per level, branchless
    /// (`u128` min/max compile to compare+select).
    ///
    /// Task streams step to their next in-window release — the same float
    /// accumulation (`release += period`) the materialized enumeration
    /// performed, so event times are bit-identical; exhausted streams park
    /// at `∞` and never win again.
    #[inline]
    fn advance(&mut self, w: usize, horizon: f64) -> u128 {
        let step = &mut self.steps[w];
        let time = if step.period > 0.0 {
            step.release += step.period;
            let next = step.release + step.deadline_rel;
            if next <= horizon + TIME_EPS {
                next
            } else {
                f64::INFINITY
            }
        } else {
            f64::INFINITY
        };
        let mut cur = pack(time, w);
        let mut n = (self.cap + w) / 2;
        while n >= 1 {
            let stored = self.tree[n];
            let lo = stored.min(cur);
            self.tree[n] = stored.max(cur);
            cur = lo;
            n /= 2;
        }
        self.tree[0] = cur;
        cur
    }
}

impl Default for DemandAnalysis {
    /// A quarter maximum period of look-ahead beyond the structural floor
    /// (latest ready deadline and every task's first in-window deadline).
    /// The analytic tail bound makes ANY horizon sound; longer windows only
    /// trade analysis cost for (measured: negligible) extra precision.
    fn default() -> DemandAnalysis {
        DemandAnalysis::new(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stadvs_sim::{ActiveJob, Task, TaskSet};

    // Direct unit tests drive the analysis through a hand-built view via
    // the simulator; end-to-end behaviour is covered in `slack_edf` tests
    // and the integration suite. Here we check the pure bookkeeping.

    /// Loads `(time, claim, period, deadline_rel)` stream descriptors into
    /// the scratch arrays, mirroring the push order of `analyze_impl`.
    fn load_streams(analysis: &mut DemandAnalysis, specs: &[(f64, f64, f64, f64)]) -> usize {
        analysis.ensure_streams(specs.len());
        for (live, &(time, claim, period, deadline_rel)) in specs.iter().enumerate() {
            analysis.claims[live] = claim;
            analysis.heads[live] = time + deadline_rel;
            analysis.steps[live] = StreamStep {
                release: time,
                period,
                deadline_rel,
            };
        }
        specs.len()
    }

    /// Pops every event of the built tree in order.
    fn drain(analysis: &mut DemandAnalysis, horizon: f64) -> Vec<(f64, f64)> {
        let mut merged = Vec::new();
        let mut head = analysis.tree[0];
        while key_time(head).is_finite() {
            merged.push((key_time(head), analysis.claims[key_stream(head)]));
            head = analysis.advance(key_stream(head), horizon);
        }
        merged
    }

    /// The tournament merge must emit events in exactly the order the
    /// materialize-and-stable-sort implementation produced: ascending
    /// time, ties in stream registration (= push block) order. Payloads
    /// record the stream, so equality also proves the tie-break.
    #[test]
    fn tournament_merge_emits_stable_sorted_event_order() {
        let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rand = |m: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % m
        };
        for round in 0..80 {
            // A mix of singleton and arithmetic (task-like) streams with
            // heavy collisions on a coarse time grid.
            let mut analysis = DemandAnalysis::default();
            let mut specs = Vec::new();
            let mut reference = Vec::new();
            let horizon = 10.0;
            let n = 1 + rand(9);
            for _ in 0..n {
                let time = rand(13) as f64 * 0.5;
                let claim = specs.len() as f64;
                if rand(2) == 0 {
                    specs.push((time, claim, 0.0, 0.0));
                    reference.push((time, claim));
                } else {
                    let period = 0.5 + rand(4) as f64 * 0.75;
                    let deadline_rel = rand(3) as f64 * 0.5;
                    let mut release = time;
                    loop {
                        let deadline = release + deadline_rel;
                        if deadline > horizon + TIME_EPS {
                            break;
                        }
                        reference.push((deadline, claim));
                        release += period;
                    }
                    if time + deadline_rel <= horizon + TIME_EPS {
                        specs.push((time, claim, period, deadline_rel));
                    }
                }
            }
            reference.sort_by(|a, b| a.0.total_cmp(&b.0));

            let live = load_streams(&mut analysis, &specs);
            analysis.build_tree(live);
            assert_eq!(drain(&mut analysis, horizon), reference, "round {round}");
        }
    }

    /// Rebuilding a persistent tree must be clean after partial sweeps and
    /// across capacity changes: stale mid-merge keys from a pruned sweep
    /// may never leak into the next merge.
    #[test]
    fn tree_reuse_after_partial_sweep_and_resize_is_clean() {
        let horizon = 100.0;
        let singles = |times: &[f64]| -> Vec<(f64, f64, f64, f64)> {
            times
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i as f64, 0.0, 0.0))
                .collect()
        };
        let mut analysis = DemandAnalysis::default();

        // Build 5 streams (cap 8), consume only two events (as a pruned
        // sweep would), leaving finite keys in the tree.
        let live = load_streams(&mut analysis, &singles(&[5.0, 1.0, 4.0, 2.0, 3.0]));
        analysis.build_tree(live);
        let first = analysis.tree[0];
        assert_eq!(key_time(first), 1.0);
        let second = analysis.advance(key_stream(first), horizon);
        assert_eq!(key_time(second), 2.0);
        analysis.advance(key_stream(second), horizon);

        // Same capacity, fewer streams: slots 3..5 held live keys.
        let live = load_streams(&mut analysis, &singles(&[9.0, 8.0, 7.0]));
        analysis.build_tree(live);
        assert_eq!(
            drain(&mut analysis, horizon),
            vec![(7.0, 2.0), (8.0, 1.0), (9.0, 0.0)]
        );

        // Shrink the capacity (cap 8 → 2), then grow it (→ 16); each
        // layout change must re-pad in full.
        let live = load_streams(&mut analysis, &singles(&[6.0, 5.0]));
        analysis.build_tree(live);
        assert_eq!(drain(&mut analysis, horizon), vec![(5.0, 1.0), (6.0, 0.0)]);

        let times: Vec<f64> = (0..9).map(|i| f64::from(i) * 1.5 + 0.5).collect();
        let specs = singles(&times);
        let live = load_streams(&mut analysis, &specs);
        analysis.build_tree(live);
        let merged = drain(&mut analysis, horizon);
        assert_eq!(merged.len(), 9);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// Points the analysis's task and release-outlook cache layers at
    /// the given tasks, as `refresh_cache` would.
    fn load_outlook(
        analysis: &mut DemandAnalysis,
        claim: &[f64],
        period: &[f64],
        drel: &[f64],
        release: &[f64],
        epoch: u64,
    ) {
        let cache = &mut analysis.cache;
        cache.n_tasks = claim.len();
        cache.claim = claim.to_vec();
        cache.period = period.to_vec();
        cache.drel = drel.to_vec();
        cache.release = release.to_vec();
        cache.next_deadline = release.iter().zip(drel).map(|(r, d)| r + d).collect();
        cache.release_epoch = epoch;
    }

    /// The live `(time, task, claim)` triples of the cached sequence, as
    /// bits, and each chain's pending `(release, next)` state.
    type SeqBits = (Vec<(u64, usize, u64)>, Vec<(u64, u64)>);

    fn seq_bits(analysis: &DemandAnalysis) -> SeqBits {
        let live = (0..analysis.seq_task.len())
            .filter(|&p| analysis.seq_task[p] != usize::MAX)
            .map(|p| {
                (
                    analysis.seq_times[p].to_bits(),
                    analysis.seq_task[p],
                    analysis.seq_claim[p].to_bits(),
                )
            })
            .collect();
        let chains = analysis
            .chains
            .iter()
            .map(|c| (c.release.to_bits(), c.next.to_bits()))
            .collect();
        (live, chains)
    }

    /// Every repair of the cached sequence must leave exactly what a fresh
    /// build from the current release bases gives: the same live `(time,
    /// task, claim)` triples and chain states, bit for bit, with times
    /// non-decreasing over tombstones too (the block sweep binary-searches
    /// them). The moves cover on-lattice slides (`release + period`),
    /// ulp-off-lattice moves (`phase + k·period`, the engine's release
    /// arithmetic), sporadic gaps in `(T, 2T)`, multi-task batches, twin
    /// tasks whose events tie bit-for-bit, horizon growth, and runs of
    /// drops long enough to compact; every repair path must run.
    #[test]
    fn repaired_sequence_matches_a_fresh_build() {
        let mut counts = [0u64; 4];
        stadvs_sim::rng::check("repaired_sequence_matches_a_fresh_build", 128, |rng| {
            let n = 1 + rng.below(6) as usize;
            let (mut claim, mut period, mut drel, mut phase) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for i in 0..n {
                if i > 0 && rng.below(4) == 0 {
                    let j = rng.below(i as u64) as usize;
                    period.push(period[j]);
                    drel.push(drel[j]);
                    phase.push(phase[j]);
                } else {
                    let t = rng.range_f64(1.0, 16.0);
                    period.push(t);
                    drel.push(t * rng.range_f64(0.5, 1.0));
                    phase.push(rng.range_f64(0.0, t));
                }
                claim.push(rng.range_f64(0.01, 1.0));
            }
            let max_period = period.iter().copied().fold(0.0, f64::max);
            let mut index = vec![0u64; n];
            let mut basis = phase.clone();
            let mut analysis = DemandAnalysis::default();
            let mut horizon = 0.0;
            for epoch in 0..48u64 {
                if epoch > 0 {
                    let batch = rng.below(4) == 0;
                    let first = rng.below(n as u64) as usize;
                    for i in 0..n {
                        if i != first && !(batch && rng.below(2) == 0) {
                            continue;
                        }
                        match rng.below(16) {
                            0..=5 => {
                                for _ in 0..=rng.below(3) {
                                    basis[i] += period[i];
                                    index[i] += 1;
                                }
                            }
                            6..=14 => {
                                index[i] += 1 + rng.below(2);
                                basis[i] = phase[i] + index[i] as f64 * period[i];
                            }
                            _ => {
                                basis[i] += period[i] * rng.range_f64(1.0, 2.0);
                                phase[i] = basis[i];
                                index[i] = 0;
                            }
                        }
                    }
                }
                let floor = (0..n).map(|i| basis[i] + drel[i]).fold(0.0, f64::max);
                let growth = if rng.below(2) == 0 {
                    0.0
                } else {
                    rng.range_f64(0.0, max_period)
                };
                horizon = (horizon + growth).max(floor);
                load_outlook(&mut analysis, &claim, &period, &drel, &basis, epoch);
                analysis.ensure_seq(horizon);

                let mut fresh = DemandAnalysis {
                    cache: analysis.cache.clone(),
                    ..DemandAnalysis::default()
                };
                fresh.ensure_seq(analysis.seq_horizon);
                if seq_bits(&analysis) != seq_bits(&fresh) {
                    return Err(format!(
                        "epoch {epoch}: repaired sequence differs from a fresh build"
                    ));
                }
                if !analysis.seq_times.windows(2).all(|w| w[0] <= w[1]) {
                    return Err(format!("epoch {epoch}: sequence times decrease"));
                }
            }
            for (total, k) in counts.iter_mut().zip(analysis.repair_counts) {
                *total += k;
            }
            Ok(())
        });
        let [slides, restamps, splices, compactions] = counts;
        assert!(
            slides > 0 && restamps > 0 && splices > 0 && compactions > 0,
            "a repair path never ran: {slides} slides, {restamps} re-stamps, \
             {splices} splices, {compactions} compactions"
        );
    }

    #[test]
    fn horizon_validation() {
        assert_eq!(DemandAnalysis::default().horizon_periods(), 0.25);
        assert_eq!(DemandAnalysis::new(3.5).horizon_periods(), 3.5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn bad_horizon_rejected() {
        let _ = DemandAnalysis::new(f64::NAN);
    }

    /// Exercise extra_slack through a minimal simulated dispatch.
    #[test]
    fn synchronous_worst_case_has_no_extra_slack_at_full_utilization() {
        use stadvs_power::{Processor, Speed};
        use stadvs_sim::{Governor, MissPolicy, SchedulerView, SimConfig, Simulator, WorstCase};

        struct Probe {
            pool: ReclaimedPool,
            analysis: DemandAnalysis,
            max_extra: f64,
        }
        impl Governor for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn on_start(&mut self, tasks: &TaskSet, _p: &Processor) {
                self.pool.reset(tasks);
                self.analysis.invalidate();
            }
            fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
                let allowance = self.pool.allowance(view, job);
                let extra = self.analysis.analyze(view, job, &self.pool).slack;
                self.max_extra = self.max_extra.max(extra);
                let rem = job.remaining_budget();
                let total = (allowance + extra).min(job.deadline - view.now());
                let s = if total <= rem { 1.0 } else { rem / total };
                Speed::clamped(s, view.processor().min_speed())
            }
            fn on_completion(&mut self, _v: &SchedulerView<'_>, r: &stadvs_sim::JobRecord) {
                self.pool.settle(r, true);
            }
        }

        // U = 1 synchronous worst case: every checkpoint is tight.
        let tasks = TaskSet::new(vec![
            Task::new(2.0, 4.0).unwrap(),
            Task::new(4.0, 8.0).unwrap(),
        ])
        .unwrap();
        let sim = Simulator::new(
            tasks,
            Processor::ideal_continuous(),
            SimConfig::new(32.0)
                .unwrap()
                .with_miss_policy(MissPolicy::Fail),
        )
        .unwrap();
        let mut probe = Probe {
            pool: ReclaimedPool::new(),
            analysis: DemandAnalysis::default(),
            max_extra: 0.0,
        };
        let out = sim.run(&mut probe, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        assert!(
            probe.max_extra < 1e-9,
            "found phantom slack {} at U = 1",
            probe.max_extra
        );
        // Canonical speed at U = 1 is full speed: energy = busy time.
        assert!((out.total_energy() - 32.0).abs() < 1e-4);
    }

    /// The pruned, cached analyzer must return bit-identical results to
    /// the from-scratch unpruned sweep at every dispatch of a live run,
    /// and never visit more events than it.
    #[test]
    fn incremental_analysis_matches_reference_and_prunes() {
        use stadvs_power::{Processor, Speed};
        use stadvs_sim::{ConstantRatio, Governor, SchedulerView, SimConfig, Simulator};

        struct Probe {
            pool: ReclaimedPool,
            fast: DemandAnalysis,
            oracle: DemandAnalysis,
            reference_events: u64,
            checks: u64,
        }
        impl Governor for Probe {
            fn name(&self) -> &str {
                "diff-probe"
            }
            fn on_start(&mut self, tasks: &TaskSet, _p: &Processor) {
                self.pool.reset(tasks);
                self.fast.invalidate();
                self.fast.reset_stats();
            }
            fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
                let before = self.fast.stats().events_swept;
                let fast = self.fast.analyze(view, job, &self.pool);
                let swept = self.fast.stats().events_swept - before;
                let (slow, ref_events) = self.oracle.analyze_reference(view, job, &self.pool);
                assert_eq!(fast.slack.to_bits(), slow.slack.to_bits());
                assert_eq!(fast.binding_claims.to_bits(), slow.binding_claims.to_bits());
                assert!(
                    swept <= ref_events,
                    "pruned sweep visited {swept} events, reference {ref_events}"
                );
                self.reference_events += ref_events;
                self.checks += 1;
                let rem = job.remaining_budget();
                let total =
                    (self.pool.allowance(view, job) + fast.slack).min(job.deadline - view.now());
                let s = if total <= rem { 1.0 } else { rem / total };
                Speed::clamped(s, view.processor().min_speed())
            }
            fn on_completion(&mut self, _v: &SchedulerView<'_>, r: &stadvs_sim::JobRecord) {
                self.pool.settle(r, true);
            }
            fn on_idle(&mut self, _v: &SchedulerView<'_>) {
                self.pool.drain_on_idle();
            }
        }

        for seed in 0..4u64 {
            let mut rng = stadvs_sim::rng::Rng::seed_from_u64(seed);
            let mut tasks = Vec::new();
            let n = 2 + rng.below(5);
            let mut budget: f64 = 0.95;
            for _ in 0..n {
                if budget < 0.06 {
                    break;
                }
                let period = rng.range_f64(0.5, 8.0);
                let u = rng.range_f64(0.05, budget.min(0.5));
                budget -= u;
                tasks.push(Task::new(u * period, period).unwrap());
            }
            let set = TaskSet::new(tasks).unwrap();
            let sim = Simulator::new(
                set,
                Processor::ideal_continuous(),
                SimConfig::new(30.0).unwrap(),
            )
            .unwrap();
            let mut probe = Probe {
                pool: ReclaimedPool::new(),
                fast: DemandAnalysis::default(),
                oracle: DemandAnalysis::default(),
                reference_events: 0,
                checks: 0,
            };
            let out = sim.run(&mut probe, &ConstantRatio::new(0.5)).unwrap();
            assert!(out.all_deadlines_met());
            assert!(probe.checks >= 5, "probe barely ran ({})", probe.checks);
            let stats = probe.fast.stats();
            assert_eq!(stats.analyses, probe.checks);
            assert!(
                stats.events_swept <= probe.reference_events,
                "seed {seed}: pruning visited more events ({}) than from-scratch ({})",
                stats.events_swept,
                probe.reference_events
            );
        }
    }

    /// The analytic tail bound must never certify more slack than a very
    /// long explicit enumeration would: shrinking the look-ahead window can
    /// only make the result more conservative.
    #[test]
    fn tail_bound_is_conservative_versus_long_windows() {
        use stadvs_power::{Processor, Speed};
        use stadvs_sim::{ConstantRatio, Governor, SchedulerView, SimConfig, Simulator};

        struct Probe {
            pool: ReclaimedPool,
            short: DemandAnalysis,
            long: DemandAnalysis,
            violations: usize,
            checks: usize,
        }
        impl Governor for Probe {
            fn name(&self) -> &str {
                "tail-probe"
            }
            fn on_start(&mut self, tasks: &TaskSet, _p: &Processor) {
                self.pool.reset(tasks);
                self.short.invalidate();
                self.long.invalidate();
            }
            fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
                let allowance = self.pool.allowance(view, job);
                let short = self.short.analyze(view, job, &self.pool).slack;
                let long = self.long.analyze(view, job, &self.pool).slack;
                self.checks += 1;
                if short > long + 1e-9 {
                    self.violations += 1;
                }
                let rem = job.remaining_budget();
                let total = (allowance + short).min(job.deadline - view.now());
                let s = if total <= rem { 1.0 } else { rem / total };
                Speed::clamped(s, view.processor().min_speed())
            }
            fn on_completion(&mut self, _v: &SchedulerView<'_>, r: &stadvs_sim::JobRecord) {
                self.pool.settle(r, true);
            }
            fn on_idle(&mut self, _v: &SchedulerView<'_>) {
                self.pool.drain_on_idle();
            }
        }

        for seed in 0..8u64 {
            let mut rng = stadvs_sim::rng::Rng::seed_from_u64(seed);
            let mut tasks = Vec::new();
            let n = 2 + rng.below(4);
            let mut budget: f64 = 0.9;
            for _ in 0..n {
                if budget < 0.06 {
                    break;
                }
                let period = rng.range_f64(0.5, 8.0);
                let u = rng.range_f64(0.05, budget.min(0.5));
                budget -= u;
                tasks.push(Task::new(u * period, period).unwrap());
            }
            let set = TaskSet::new(tasks).unwrap();
            let sim = Simulator::new(
                set,
                Processor::ideal_continuous(),
                SimConfig::new(20.0).unwrap(),
            )
            .unwrap();
            let mut probe = Probe {
                pool: ReclaimedPool::new(),
                short: DemandAnalysis::new(0.05),
                long: DemandAnalysis::new(16.0),
                violations: 0,
                checks: 0,
            };
            let out = sim.run(&mut probe, &ConstantRatio::new(0.4)).unwrap();
            assert!(out.all_deadlines_met());
            assert!(
                probe.checks >= 5,
                "probe barely ran ({} checks)",
                probe.checks
            );
            assert_eq!(
                probe.violations, 0,
                "seed {seed}: tail bound certified more slack than a 16-period window \
                 in {}/{} dispatches",
                probe.violations, probe.checks
            );
        }
    }

    /// The analysis discovers release-phasing slack the ledger cannot see.
    #[test]
    fn phasing_slack_is_found_for_staggered_releases() {
        use stadvs_power::{Processor, Speed};
        use stadvs_sim::{Governor, MissPolicy, SchedulerView, SimConfig, Simulator, WorstCase};

        struct Probe {
            pool: ReclaimedPool,
            analysis: DemandAnalysis,
            saw_extra: bool,
        }
        impl Governor for Probe {
            fn name(&self) -> &str {
                "probe2"
            }
            fn on_start(&mut self, tasks: &TaskSet, _p: &Processor) {
                self.pool.reset(tasks);
                self.analysis.invalidate();
            }
            fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
                let allowance = self.pool.allowance(view, job);
                let extra = self.analysis.analyze(view, job, &self.pool).slack;
                if extra > 0.1 {
                    self.saw_extra = true;
                }
                let rem = job.remaining_budget();
                let total = (allowance + extra).min(job.deadline - view.now());
                let s = if total <= rem { 1.0 } else { rem / total };
                Speed::clamped(s, view.processor().min_speed())
            }
            fn on_completion(&mut self, _v: &SchedulerView<'_>, r: &stadvs_sim::JobRecord) {
                self.pool.settle(r, true);
            }
        }

        // A phased low-rate task leaves real gaps in the canonical claims.
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(1.0, 16.0).unwrap().with_phase(8.0).unwrap(),
        ])
        .unwrap();
        let sim = Simulator::new(
            tasks,
            Processor::ideal_continuous(),
            SimConfig::new(64.0)
                .unwrap()
                .with_miss_policy(MissPolicy::Fail),
        )
        .unwrap();
        let mut probe = Probe {
            pool: ReclaimedPool::new(),
            analysis: DemandAnalysis::default(),
            saw_extra: false,
        };
        let out = sim.run(&mut probe, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        assert!(probe.saw_extra, "no phasing slack discovered");
    }
}
