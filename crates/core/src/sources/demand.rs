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

/// Slots per summarized block of the cached sequence (see [`Block`]).
const BLOCK: usize = 32;

/// Bits of the claim grid below the longest period: claims are rounded up
/// to multiples of `q = 2^(e − 41)`, with `2^e` the least power of two at
/// or above the task set's longest period (see [`claim_grid`]).
const GRID_BITS: u64 = 41;

/// `2^53`: multiples of `q` below `2^53·q` are exact doubles, and so is
/// every sum of them that stays below it.
const EXACT_SPAN: f64 = 9_007_199_254_740_992.0;

/// `2^49`: a release below `2^49` periods has at most one lattice index,
/// and the division in [`Basis::of`] recovers it exactly (see there).
const LATTICE_SPAN: f64 = 562_949_953_421_312.0;

/// The claim grid `q` of a task set whose longest period is `max_period`.
///
/// Every claim the analysis reads is a multiple of `q` ([`on_grid`]), so
/// every partial claim sum below `2^53·q` (at least 4 096 longest periods)
/// is exact, whatever order it is added in.
fn claim_grid(max_period: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = max_period.to_bits();
    // The biased exponent of the least power of two at or above it.
    let exponent = (bits >> 52) + u64::from(bits & MANTISSA != 0);
    f64::from_bits(exponent.saturating_sub(GRID_BITS).max(1) << 52)
}

/// `claim` rounded up to the grid `q` (a power of two, so the quotient,
/// its ceiling and the product are exact).
#[inline]
fn on_grid(claim: f64, q: f64) -> f64 {
    (claim / q).ceil() * q
}

/// The engine's release expression, `anchor + index·period`
/// (`Task::release_of` with the anchor as the phase).
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "an index below 2^53 converts exactly, as the engine's does"
)]
fn lattice(anchor: f64, index: u64, period: f64) -> f64 {
    anchor + index as f64 * period
}

/// The deadline of a chain event, `(anchor + index·period) + D`: the
/// engine's `Task::deadline_of` with the anchor as the phase. Every chain
/// event of the analysis, cached or streamed, is this expression.
#[inline]
fn chain_event(anchor: f64, index: u64, period: f64, drel: f64) -> f64 {
    lattice(anchor, index, period) + drel
}

/// Where a task's deadline chain starts on the engine's release lattice:
/// the task's next release is `lattice(anchor, index, period)` bit for
/// bit, and event `j` of its chain is `chain_event(anchor, index + j, …)`.
///
/// A basis is a pure function of the view's next release, the task's phase
/// and its period ([`Basis::of`]): `(phase, k)` when the release is
/// `phase + k·period` bit for bit, `(release, 0)` otherwise (jitter,
/// sporadic gaps). So a periodic release moves a chain along its own
/// lattice — same anchor, larger index — and the analysis sees the release
/// times the engine will produce.
#[derive(Debug, Clone, Copy)]
struct Basis {
    /// The task's phase, the origin of its lattice.
    phase: f64,
    /// `phase` when the release lies on the lattice, else the release.
    anchor: f64,
    /// The release's lattice index; `0` off the lattice.
    index: u64,
}

impl Basis {
    /// The basis of a task with the given next release, phase and period.
    ///
    /// Below `release < 2^49·period` the lattice index is unique and the
    /// rounded quotient finds it: with `m` the index and `u = 2^−53`, the
    /// quotient `fl(fl(release − phase)/period)` is within `u·(4m +
    /// phase/period)` of `m` to first order, under `5·2^49·u < 1/2`, and
    /// lattice points a period apart are many ulps apart, so no other index
    /// gives the same bits. Past that span, or when no index hits, the
    /// release anchors its own chain.
    #[expect(
        clippy::as_conversions,
        reason = "the rounded, non-negative quotient lies below 2^50"
    )]
    fn of(release: f64, phase: f64, period: f64) -> Basis {
        if release < LATTICE_SPAN * period {
            let k = ((release - phase) / period).round();
            if k >= 0.0 {
                if let Some(basis) = Basis::hit(release, phase, period, k as u64) {
                    return basis;
                }
            }
        }
        Basis {
            phase,
            anchor: release,
            index: 0,
        }
    }

    /// [`Basis::of`] on the previous basis's phase, trying its index and
    /// the one after it before the division: an index that hits inside the
    /// span is the unique one, so the result is the same.
    fn after(prev: Basis, release: f64, period: f64) -> Basis {
        let phase = prev.phase;
        if release < LATTICE_SPAN * period {
            for index in [prev.index, prev.index.wrapping_add(1)] {
                if let Some(basis) = Basis::hit(release, phase, period, index) {
                    return basis;
                }
            }
        }
        Basis::of(release, phase, period)
    }

    /// The lattice basis `(phase, index)`, if it gives `release` bit for
    /// bit.
    fn hit(release: f64, phase: f64, period: f64, index: u64) -> Option<Basis> {
        (lattice(phase, index, period).to_bits() == release.to_bits()).then_some(Basis {
            phase,
            anchor: phase,
            index,
        })
    }

    /// Whether two bases generate the same chain.
    fn same_chain(self, other: Basis) -> bool {
        self.anchor.to_bits() == other.anchor.to_bits() && self.index == other.index
    }
}

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
/// The analysis runs at every dispatch, so five layers keep the per-call
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
///   order and *repaired* when the release outlook moves. Every chain
///   event is the engine's own release expression of the task's
///   `Basis`, so a periodic release slides its chain along its lattice
///   (tombstoned drops); a move off the lattice re-stamps the moved chain
///   in its own slots when that keeps the order, and rebuilds the
///   sequence otherwise (see `ensure_seq` and `repair_seq`). Every repair
///   keeps the sequence's times non-decreasing, tombstones included. The
///   per-dispatch sweep then merges only the few
///   ready/ledger singletons over this sequence (`sweep_overlay`), a
///   binary search and a plain loop per run of sequence events between
///   two singletons, instead of re-running the full tournament merge.
/// * **exact claim sums, whole blocks** — every claim the analysis reads
///   is rounded up to one dyadic grid `q` (`claim_grid`), so claim sums
///   below `2^53·q` are exact in any order. Each full 32-slot block of the
///   cached sequence keeps a summary (`Block`), and the sweep adds a block
///   whose events cannot set a new minimum as one stored sum, with the
///   result the serial merge gives (see `Sweep`).
/// * **early-exit pruning** — the checkpoint sweep stops as soon as no
///   later checkpoint can change the result (soundness argued at
///   `prune_safety`); a non-positive tail bound skips the sweep
///   entirely. Events before the dispatched job's deadline cannot bind,
///   so the sweep only accumulates them (`Sweep`).
/// * **scratch layout** — the sweep reads dense per-event `f64` arrays
///   (times and denormalized claims); the from-scratch path's merge loop
///   touches a dense `claims` array keyed by stream index, its
///   tournament tree persists between calls (only the shrunk pad range
///   is re-written), and nothing is re-zeroed.
///
/// Rounding claims up only lowers the slack of every in-window
/// checkpoint, and the tail bound keeps the unrounded accrual rates, so
/// the result stays a sound lower bound on the unrounded claims' slack.
///
/// In debug builds every pruned, cached analysis is re-checked against a
/// from-scratch unpruned sweep and must match **bit-identically**, and
/// every sequence update re-checks the sequence's order invariants and
/// block summaries.
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
    /// Per-task generator state at the **end** of the cached sequence —
    /// extending the horizon resumes these chains.
    chains: Vec<TaskChain>,
    /// The [`Basis`] each task's cached chain was generated from: a repair
    /// slides the tasks whose basis moved along its lattice and
    /// regenerates those whose anchor moved.
    seq_basis: Vec<Basis>,
    seq_epoch: u64,
    seq_valid: bool,
    seq_horizon: f64,
    /// Number of tombstoned events currently parked in the sequence.
    seq_stale: usize,
    /// Summaries of the cached sequence's full [`BLOCK`]-slot blocks
    /// (`seq_times.len() / BLOCK` of them), kept current by every repair.
    blocks: Vec<Block>,
    /// Scratch: the ready-job singletons, in registration order, sorted by
    /// `(deadline, position)` for the fast path.
    ready: Vec<ReadyEvent>,
    /// Scratch: the tasks whose basis anchor moved, re-stamped in turn.
    moved: Vec<usize>,
    /// Scratch: per-task counts of the emitted events a slide drops.
    drops: Vec<u64>,
    /// Scratch: the regenerated event times of a re-stamp.
    new_times: Vec<f64>,
    /// Scratch: sequence positions of the re-stamped task's live events.
    slots: Vec<usize>,
    analyses: u64,
    events_swept: u64,
    /// Repairs per [`RepairPath`] (unit tests assert every path ran).
    #[cfg(test)]
    repair_counts: [u64; 4],
    /// [`Sweep`]'s block counters, summed over the fast sweeps.
    #[cfg(test)]
    block_counts: [u64; 2],
}

/// The ways [`DemandAnalysis::repair_seq`] can update the cached
/// sequence (compaction follows a slide or a re-stamp).
#[derive(Debug, Clone, Copy)]
enum RepairPath {
    Slide,
    Restamp,
    Rebuild,
    Compact,
}

/// Generator state of one task's deadline chain in the cached sequence.
///
/// Steps exactly like a task stream in [`DemandAnalysis::advance`]: the
/// pending event of lattice index `index` lies at [`chain_event`] of the
/// task's basis anchor, so resumed chain events are bit-identical to a
/// from-scratch enumeration.
#[derive(Debug, Clone, Copy)]
struct TaskChain {
    /// Lattice index of the pending event.
    index: u64,
    /// Next not-yet-emitted event time, `chain_event(anchor, index, …)`.
    next: f64,
}

impl TaskChain {
    /// Steps the chain to its next lattice event.
    #[inline]
    fn step(&mut self, anchor: f64, period: f64, drel: f64) {
        self.index += 1;
        self.next = chain_event(anchor, self.index, period, drel);
    }
}

/// A ready-job singleton: deadline, registration position (the tie-break
/// the packed stream index provides) and claim, on the grid.
#[derive(Debug, Clone, Copy)]
struct ReadyEvent {
    deadline: f64,
    pos: usize,
    claim: f64,
}

/// Summary of one full [`BLOCK`]-slot block of the cached sequence, which
/// lets [`Sweep::run`] take the block in one step (see [`Sweep`]).
///
/// Every repair that writes a slot re-summarizes its block, so a summary
/// always equals [`Block::of`] over the block's current slots.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Sum of the block's live claims, exact below the grid's `2^53·q`.
    sum: f64,
    /// Time of the first live event; `−∞` when every slot is a tombstone,
    /// which keeps the block from ever being taken whole.
    first: f64,
    /// Head `d` of the block's last `TIME_EPS` group, grouping as the
    /// sweep does with the first live event opening a group.
    last: f64,
}

impl Block {
    /// The summary of one block's [`BLOCK`] slots.
    ///
    /// The sum runs in four lanes, tombstones adding zero: the claims are
    /// grid multiples, so any order gives the exact sum below `2^53·q`, and
    /// one at or past `2^53·q` (rounding is monotone), which the range
    /// guard refuses either way. The last group's head is the last live
    /// event when it lies past the previous live event's gate; otherwise
    /// the block is grouped from its first live event on.
    fn of(times: &[f64], claims: &[f64]) -> Block {
        debug_assert_eq!(claims.len(), BLOCK, "a summary covers one whole block");
        let mut lanes = [0.0; 4];
        for chunk in claims.chunks_exact(4) {
            for (lane, &claim) in lanes.iter_mut().zip(chunk) {
                *lane += claim.max(0.0);
            }
        }
        let sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        let live = |&claim: &f64| claim >= 0.0;
        let (Some(first), Some(end)) =
            (claims.iter().position(live), claims.iter().rposition(live))
        else {
            return Block {
                sum,
                first: f64::NEG_INFINITY,
                last: f64::NEG_INFINITY,
            };
        };
        let last = match claims[..end].iter().rposition(live) {
            Some(prev) if times[end] <= times[prev] + TIME_EPS => {
                let mut gate = f64::NEG_INFINITY;
                let mut head = times[first];
                for (&t, &claim) in times[first..=end].iter().zip(&claims[first..=end]) {
                    if claim >= 0.0 && t > gate {
                        head = t;
                        gate = t + TIME_EPS;
                    }
                }
                head
            }
            _ => times[end],
        };
        Block {
            sum,
            first: times[first],
            last,
        }
    }
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
    /// Per-task canonical claim `C_i/U` (fixed between pool resets),
    /// rounded up to the grid.
    claim: Vec<f64>,
    /// Per-task accrual rate of the pool's unrounded claim, `claim/T_i`
    /// (the tail bound's slope).
    rate: Vec<f64>,
    period: Vec<f64>,
    /// Per-task relative deadline.
    drel: Vec<f64>,
    max_period: f64,
    /// The claim grid `q` ([`claim_grid`] of `max_period`).
    grid: f64,
    /// `2^53·q`: claim sums below it are exact.
    exact_below: f64,
    /// `q·Σ_i 1/T_i`, a bound on how much faster than the unrounded rates
    /// the grid claims accrue (see [`prune_safety`]).
    grid_drift: f64,
    /// Per-task [`Basis`] of the next release: the phase is loaded with
    /// the task layer, the anchor and index per release epoch (the previous
    /// epoch's index is the derivation's first guess).
    basis: Vec<Basis>,
    /// Per-task next absolute deadline `release + drel`.
    next_deadline: Vec<f64>,
    /// `max_i next_deadline_i` — structural floor of the horizon.
    first_deadlines: f64,
    /// `max_i (next_deadline_i − T_i)` — earliest checkpoint from which
    /// the tail bound dominates all later checkpoints (see
    /// [`prune_safety`]).
    vmax: f64,
    /// Ledger entries `(tag, amount)` split into dense arrays, plus their
    /// total, snapshot at `ledger_revision`; amounts on the grid.
    ledger_tags: Vec<f64>,
    ledger_amounts: Vec<f64>,
    ledger_total: f64,
}

impl DispatchCache {
    /// Loads the task-descriptor layer from each task's `(claim, period,
    /// relative deadline, phase)`: the grid from the longest period, each
    /// claim rounded up to it, each unrounded claim's accrual rate, and
    /// each task's lattice (its release basis at index zero).
    fn load_tasks(&mut self, tasks: impl Iterator<Item = (f64, f64, f64, f64)>) {
        self.claim.clear();
        self.rate.clear();
        self.period.clear();
        self.drel.clear();
        self.basis.clear();
        for (claim, period, drel, phase) in tasks {
            self.claim.push(claim);
            self.period.push(period);
            self.drel.push(drel);
            self.basis.push(Basis {
                phase,
                anchor: phase,
                index: 0,
            });
        }
        self.n_tasks = self.claim.len();
        self.max_period = self.period.iter().copied().fold(0.0, f64::max);
        self.grid = claim_grid(self.max_period);
        self.exact_below = self.grid * EXACT_SPAN;
        let mut inverse = 0.0;
        for (claim, &period) in self.claim.iter_mut().zip(&self.period) {
            self.rate.push(*claim / period);
            *claim = on_grid(*claim, self.grid);
            inverse += 1.0 / period;
        }
        self.grid_drift = self.grid * inverse;
    }

    /// Loads the release outlook from each task's next release.
    fn load_releases(&mut self, releases: impl Iterator<Item = f64>) {
        self.next_deadline.clear();
        let mut first_deadlines = 0.0;
        let mut vmax = f64::NEG_INFINITY;
        for (i, release) in releases.enumerate() {
            self.basis[i] = Basis::after(self.basis[i], release, self.period[i]);
            let next_deadline = release + self.drel[i];
            first_deadlines = f64::max(first_deadlines, next_deadline);
            vmax = f64::max(vmax, next_deadline - self.period[i]);
            self.next_deadline.push(next_deadline);
        }
        self.first_deadlines = first_deadlines;
        self.vmax = vmax;
    }

    /// Loads the ledger snapshot from its `(tag, amount)` entries in tag
    /// order, each amount rounded up to the grid.
    fn load_ledger(&mut self, entries: impl Iterator<Item = (f64, f64)>) {
        self.ledger_tags.clear();
        self.ledger_amounts.clear();
        let mut total = 0.0;
        for (tag, amount) in entries {
            let amount = on_grid(amount, self.grid);
            self.ledger_tags.push(tag);
            self.ledger_amounts.push(amount);
            total += amount;
        }
        self.ledger_total = total;
    }
}

/// Packs an event key: `u128` ordering is lexicographic on
/// `(f64::total_cmp(time), stream index)`.
///
/// Event times are non-negative (deadlines at or after `now ≥ 0`) or `+∞`
/// for exhausted streams, so the IEEE-754 bit patterns of the times order
/// exactly as `total_cmp` does and a plain integer compare of the packed
/// keys ranks earlier events first, ties to the lower stream index.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "lossless widening of an index into the key's low bits"
)]
fn pack(time: f64, stream: usize) -> u128 {
    debug_assert!(
        time.is_sign_positive(),
        "event time {time} must be non-negative"
    );
    (u128::from(time.to_bits()) << 64) | stream as u128
}

/// The event time of a packed key.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "lossless truncation recovering the high 64 key bits"
)]
fn key_time(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

/// The stream index of a packed key.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "recovers the index packed from a usize in `pack`"
)]
fn key_stream(key: u128) -> usize {
    key as u64 as usize
}

/// Event generator state for one stream.
///
/// Ready jobs and ledger entries are singletons; a task stream yields one
/// event per in-window release, generated on demand by stepping the
/// lattice index of its [`Basis`] — each event is [`chain_event`], the
/// expression the cached chains use, so event times are bit-identical.
#[derive(Debug, Clone, Copy, Default)]
struct StreamStep {
    /// The basis anchor (task streams only).
    anchor: f64,
    /// Lattice index of the current event (task streams only).
    index: u64,
    /// Release period for task streams; `0.0` marks a singleton.
    period: f64,
    /// Relative deadline (task streams only).
    deadline_rel: f64,
}

impl StreamStep {
    /// A singleton event source (ready-job deadline or ledger tag): one
    /// event, then exhausted.
    const SINGLETON: StreamStep = StreamStep {
        anchor: 0.0,
        index: 0,
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
/// checkpoint sweep and on the grid's extra accrual, used by the
/// early-exit prune.
///
/// # Prune soundness
///
/// The sweep may stop at a checkpoint `d` and return the current
/// `(min_slack, binding_claims)` when **no later checkpoint and not the
/// final tail-bound comparison can change them**. In exact arithmetic,
/// with `c_i` a task's unrounded claim, `r_i = c_i/T_i` its rate (the
/// canonical density `ρ = Σ r_i ≤ 1`) and `c̄_i ≥ c_i` its grid claim,
/// `c̄_i − c_i < q`:
///
/// * For any checkpoint `D > d ≥ vmax` (with `vmax = max_i (nd_i − T_i)`,
///   `nd_i` task `i`'s next absolute deadline), every task satisfies
///   `D ≥ nd_i − T_i`, so its event count up to `D` obeys
///   `count_i(D) ≤ (D − nd_i)/T_i + 1` (zero events while `D < nd_i`,
///   where the right side is still ≥ 0). Hence `count_i(D)·c̄_i ≤
///   (D − nd_i)·r_i + c̄_i + (D − nd_i)⁺·q/T_i`. Singletons (ready jobs,
///   ledger entries) are subtracted **in full** by the tail bound
///   `Σ_i (nd_i − t)·r_i − Σ_i c̄_i − ready − ledger`, which gives
///
///   ```text
///   slack(D) = (D − t) − claims(D)
///            ≥ tail_bound + (D − t)·(1 − ρ) − drift ≥ tail_bound − drift,
///   ```
///
///   with `drift = (horizon + TIME_EPS − t)·q·Σ_i 1/T_i` (no in-window
///   checkpoint lies past `horizon + TIME_EPS`). Hence once `min_slack ≤
///   tail_bound − drift`, no later checkpoint can *strictly* undercut
///   `min_slack`, and the sweep's strict `<` update never fires again.
/// * The final `tail_bound < min_slack` update cannot fire either.
///
/// Floating point makes both `min_slack` and `tail_bound` approximate.
/// Claim sums are exact while they stay below `2^53·q`; past that, and in
/// the window and tail arithmetic, every quantity in play is a
/// sum/difference of `events + O(n_tasks)` non-negative terms bounded by
/// `window + claims + tail_abs` (`claims` is itself the abs-sum of the
/// claim prefix; `tail_abs` the abs-sum of the tail accumulation), so the
/// classic summation bound `|err| ≤ ε · ops · Σ|terms|` covers the error
/// of both sides. `events` counts the events the sweep visited one by
/// one; the additions of blocks taken whole are exact (see [`Sweep`]) and
/// add no error. Pruning therefore requires `min_slack ≤ tail_bound −
/// prune_safety(...)`: if the margin holds in floats it holds in reals,
/// and the unpruned sweep would return the identical `(min_slack,
/// binding_claims)` bits.
///
/// The prune changes **which events are visited, never the result** —
/// enforced bit-exactly by the debug re-check in
/// [`DemandAnalysis::analyze`] and the differential proptests.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "exact widening of small operation counts"
)]
fn prune_safety(
    events: u64,
    n_tasks: usize,
    window: f64,
    claims: f64,
    tail_abs: f64,
    drift: f64,
) -> f64 {
    let ops = (events + 2 * n_tasks as u64 + 16) as f64;
    f64::EPSILON * ops * (window + claims + tail_abs + 1.0) + drift
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
/// group's final candidate but carries no larger claims, so, rounding
/// being monotone, it is no smaller. A candidate below the minimum
/// replaces it, and so does an equal one while the minimum was set in the
/// open group (`min_here`), so the minimum and its binding claims land on
/// exactly the group-end values the grouped reference computes with its
/// strict `<`. The `vmax` full-stop check runs at group boundaries only
/// (mid-group it could miss the open group's own end checkpoint); the
/// zero-slack stop may fire mid-group because [`finish`] canonicalizes
/// every non-positive minimum to the same `(0, 0)` result.
///
/// **Whole blocks.** Every claim sits on the grid `q`, so while the running
/// sum stays below `2^53·q` every partial sum is exact, whatever the
/// order. A full [`Block`] of cached slots inside the current run is then
/// taken in one step — `claims += sum`, and the group state from its last
/// group head — when all of these hold:
///
/// * its first live event opens a group (`first > gate`), so its grouping
///   is its summary's;
/// * `claims + sum < 2^53·q`, so every serial partial sum inside it is
///   exact and `claims + sum` is their last (a sum at or past the limit
///   rounds to at least the limit, rounding being monotone);
/// * either its last gate lies before the dispatched job's deadline, so
///   nothing in it binds, or its lower bound `fl(fl(first − now) −
///   (claims + sum))` is not below the running minimum. Each of its
///   checkpoint candidates is `fl(fl(d − now) − acc)` with `d ≥ first` and
///   `acc ≤ claims + sum`, and rounding is monotone, so none lies below
///   the bound and none wins the strict-minimum update: the minimum, its
///   binding claims, the armed flag and the zero-slack stop are untouched.
///
/// The prune tests inside a taken block are skipped (they only cut
/// visits); the prune is tested at the next group boundary. A taken block
/// does not count in `events`, which counts the events visited one by one.
#[derive(Debug)]
struct Sweep {
    deadline: f64,
    now: f64,
    vmax: f64,
    tail_bound: f64,
    tail_abs: f64,
    /// The grid drift term of [`prune_safety`].
    drift: f64,
    /// `2^53·q`: the running sum below which blocks may be taken whole.
    exact_below: f64,
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
    /// The minimum was set in the open group.
    min_here: bool,
    /// Blocks taken whole, and blocks refused by the range guard alone
    /// (unit tests assert both happen).
    #[cfg(test)]
    taken: [u64; 2],
}

impl Sweep {
    /// Sweeps a run of events in merge order; `true` when the sweep stops
    /// (the prune fired at a group boundary, or the minimum reached zero).
    /// With `SEQ` the run is cached sequence slots from slot `base` on,
    /// summarized by `blocks`: negative claims mark tombstones, which are
    /// skipped wholesale — no group roll, no accumulation — so the swept
    /// stream is exactly the compacted one, and full blocks inside the run
    /// are taken whole where the rules above allow. Singletons are swept as
    /// one-event runs without it.
    fn run<const SEQ: bool>(
        &mut self,
        times: &[f64],
        claims: &[f64],
        base: usize,
        blocks: &[Block],
    ) -> bool {
        let n = times.len();
        // The end of the block holding relative slot `i`, within the run.
        let chunk_end = |i: usize| {
            if SEQ {
                n.min(i + BLOCK - (base + i) % BLOCK)
            } else {
                n
            }
        };
        // The block starting at relative slot `i`, if one does and lies
        // inside the run.
        let whole = |i: usize| {
            let slot = base + i;
            let fits = SEQ && slot.is_multiple_of(BLOCK) && i + BLOCK <= n;
            fits.then(|| &blocks[slot / BLOCK])
        };
        let mut i = 0;
        if !self.binding {
            // Phase one: nothing binds and no closing group can prune.
            // Stop before the event that opens the first binding group.
            'one: while i < n {
                if let Some(block) = whole(i) {
                    let total = self.claims + block.sum;
                    let gate = block.last + TIME_EPS;
                    let clear = block.first > self.gate && gate < self.deadline;
                    if clear && total < self.exact_below {
                        self.claims = total;
                        self.gate = gate;
                        #[cfg(test)]
                        {
                            self.taken[0] += 1;
                        }
                        i += BLOCK;
                        continue;
                    }
                    #[cfg(test)]
                    {
                        self.taken[1] += u64::from(clear);
                    }
                }
                let end = chunk_end(i);
                while i < end {
                    let claim = claims[i];
                    if !(SEQ && claim < 0.0) {
                        let t = times[i];
                        if t > self.gate {
                            let gate = t + TIME_EPS;
                            if gate >= self.deadline {
                                self.binding = true;
                                break 'one;
                            }
                            self.gate = gate;
                        }
                        self.events += 1;
                        self.claims += claim;
                    }
                    i += 1;
                }
            }
        }
        // Phase two, on locals so the loop state stays in registers.
        let (now, vmax, tail_bound, exact_below) =
            (self.now, self.vmax, self.tail_bound, self.exact_below);
        let mut events = self.events;
        let mut acc = self.claims;
        let mut min_slack = self.min_slack;
        let mut binding_claims = self.binding_claims;
        let (mut d, mut window, mut gate) = (self.d, self.window, self.gate);
        let (mut armed, mut min_here) = (self.armed, self.min_here);
        let mut stop = false;
        'two: while i < n {
            if let Some(block) = whole(i) {
                let total = acc + block.sum;
                let clear = block.first > gate && (block.first - now) - total >= min_slack;
                if clear && total < exact_below {
                    acc = total;
                    d = block.last;
                    window = d - now;
                    gate = d + TIME_EPS;
                    min_here = false;
                    #[cfg(test)]
                    {
                        self.taken[0] += 1;
                    }
                    i += BLOCK;
                    continue;
                }
                #[cfg(test)]
                {
                    self.taken[1] += u64::from(clear);
                }
            }
            let end = chunk_end(i);
            for (&t, &claim) in times[i..end].iter().zip(&claims[i..end]) {
                if SEQ && claim < 0.0 {
                    continue;
                }
                if t > gate {
                    // The closed group's checkpoint minimum is final here.
                    if armed
                        && d >= vmax
                        && min_slack
                            <= tail_bound
                                - prune_safety(
                                    events,
                                    self.n_tasks,
                                    window,
                                    acc,
                                    self.tail_abs,
                                    self.drift,
                                )
                    {
                        stop = true;
                        break 'two;
                    }
                    d = t;
                    window = t - now;
                    gate = t + TIME_EPS;
                    min_here = false;
                }
                events += 1;
                acc += claim;
                let slack = window - acc;
                if slack <= min_slack && (slack < min_slack || min_here) {
                    min_slack = slack;
                    binding_claims = acc;
                    min_here = true;
                    // Zero slack is absorbing, so the stop is checked only
                    // when the minimum moved.
                    if slack <= 0.0 {
                        stop = true;
                        break 'two;
                    }
                    armed = slack <= tail_bound;
                }
            }
            i = end;
        }
        self.events = events;
        self.claims = acc;
        self.min_slack = min_slack;
        self.binding_claims = binding_claims;
        (self.d, self.window, self.gate) = (d, window, gate);
        (self.armed, self.min_here) = (armed, min_here);
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
            chains: Vec::new(),
            seq_basis: Vec::new(),
            seq_epoch: 0,
            seq_valid: false,
            seq_horizon: 0.0,
            seq_stale: 0,
            blocks: Vec::new(),
            ready: Vec::new(),
            moved: Vec::new(),
            drops: Vec::new(),
            new_times: Vec::new(),
            slots: Vec::new(),
            analyses: 0,
            events_swept: 0,
            #[cfg(test)]
            repair_counts: [0; 4],
            #[cfg(test)]
            block_counts: [0; 2],
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
                // The pruned sweep must match the reference exactly, not
                // approximately.
                result.slack.to_bits() == reference.slack.to_bits()
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
        self.refresh_cache(view, pool);
        // Claims are re-granted continuously, so the ready singletons are
        // rebuilt every call, each claim rounded up to the grid.
        let grid = self.cache.grid;
        self.ready.clear();
        for (pos, j) in view.ready_jobs().iter().enumerate() {
            self.ready.push(ReadyEvent {
                deadline: j.deadline,
                pos,
                claim: on_grid(pool.remaining_claim_of(j), grid),
            });
        }
        self.sweep(view.now(), job.deadline, prune)
    }

    /// The checkpoint sweep at `now` for a job due at `deadline`, over the
    /// cached layers and the ready singletons in `ready` (registration
    /// order; the fast path sorts them).
    fn sweep(&mut self, now: f64, deadline: f64, prune: bool) -> (DemandSlack, u64) {
        let n_tasks = self.cache.n_tasks;
        // The horizon's ready floor and the ready claims total.
        let mut latest_ready = deadline;
        let mut ready_claims = 0.0;
        for e in &self.ready {
            latest_ready = latest_ready.max(e.deadline);
            ready_claims += e.claim;
        }
        // The horizon must reach past every task's first in-window deadline
        // for the tail bound's count formula to apply beyond it.
        let horizon = latest_ready
            .max(now + self.horizon_periods * self.cache.max_period)
            .max(self.cache.first_deadlines);

        // Analytic tail bound for all checkpoints beyond the horizon. With
        // overhead pricing, every claim carries its task's switch margin,
        // and the canonical stretch keeps total accrual at rate 1: the
        // slope uses the unrounded rates, the subtracted claims the grid
        // ones (see `prune_safety`). `tail_abs` mirrors it with absolute
        // values for the prune's float-error envelope.
        let mut tail_bound = -ready_claims - self.cache.ledger_total;
        let mut tail_abs = ready_claims + self.cache.ledger_total;
        for i in 0..n_tasks {
            let claim = self.cache.claim[i];
            let term = (self.cache.next_deadline[i] - now) * self.cache.rate[i];
            tail_bound += term - claim;
            tail_abs += term + claim;
        }
        if !prune {
            return self.sweep_reference(deadline, horizon, now, tail_bound);
        }
        // A non-positive tail bound caps the result at zero slack before
        // any checkpoint is visited: the full sweep's final minimum is
        // `min(min_slack, tail_bound) <= 0`, which `finish` clamps to the
        // same canonical zero. Skip the whole sweep, and the sequence's
        // repair with it — except at a run's first analysis, which builds
        // the sequence so that its buffers are sized then, not at whatever
        // later dispatch first sweeps.
        if tail_bound <= 0.0 {
            if !self.seq_valid {
                self.ensure_seq(horizon);
            }
            return (finish(tail_bound, f64::INFINITY), 0);
        }
        self.ensure_seq(horizon);
        // Sorting by `(deadline, registration position)` reproduces the
        // packed-key order the tournament merge gives these singletons.
        self.ready
            .sort_unstable_by(|a, b| a.deadline.total_cmp(&b.deadline).then(a.pos.cmp(&b.pos)));
        let drift = (horizon + TIME_EPS - now) * self.cache.grid_drift;
        let mut state = Sweep {
            deadline,
            now,
            vmax: self.cache.vmax,
            tail_bound,
            tail_abs,
            drift,
            exact_below: self.cache.exact_below,
            n_tasks,
            events: 0,
            claims: 0.0,
            min_slack: f64::INFINITY,
            binding_claims: f64::INFINITY,
            d: f64::NAN,
            window: f64::NAN,
            // The sentinel gate makes the first event open a group
            // without a (guarded-out) boundary checkpoint.
            gate: f64::NEG_INFINITY,
            binding: false,
            armed: false,
            min_here: false,
            #[cfg(test)]
            taken: [0; 2],
        };
        let out = self.sweep_overlay(&mut state, horizon);
        #[cfg(test)]
        for (total, k) in self.block_counts.iter_mut().zip(state.taken) {
            *total += k;
        }
        out
    }

    /// Fast checkpoint sweep: streams the cached periodic sequence,
    /// overlaying the per-dispatch singletons (sorted ready deadlines,
    /// ledger tags) with a merge whose tie-breaks reproduce the tournament
    /// merge's stream registration order (ready < tasks < ledger, then
    /// position).
    ///
    /// The merge is run-wise: the cached sequence is sorted by time,
    /// tombstones included (see [`repair_seq`](DemandAnalysis::repair_seq)),
    /// so one binary search finds the whole run of sequence events that
    /// pops before the next ready and ledger singletons (`t < tr && t <=
    /// tl`: ready singletons win time ties, task streams win ledger ties).
    /// [`Sweep::run`] sweeps that run, taking whole blocks where it may,
    /// then the singleton pops as a one-event run. Event order, claim
    /// accumulation order and checkpoint arithmetic are exactly those of
    /// [`sweep_reference`](DemandAnalysis::sweep_reference) where the
    /// sweep visits events one by one, and a block taken whole adds its
    /// exact sum, so results are bit-identical; the prune early-exits
    /// (sound per [`prune_safety`]) only cut the visit count.
    fn sweep_overlay(&self, sweep: &mut Sweep, horizon: f64) -> (DemandSlack, u64) {
        // Same float expression the stream generators clip with. The cached
        // sequence is sorted, so one partition point replaces the per-event
        // horizon clip.
        let h_gate = horizon + TIME_EPS;
        let till = self.seq_times.partition_point(|&t| t <= h_gate);
        let seq_times = &self.seq_times[..till];
        let seq_claim = &self.seq_claim[..till];
        let ready = &self.ready[..];
        let tags = &self.cache.ledger_tags[..];
        let amounts = &self.cache.ledger_amounts[..];
        let (mut p, mut r, mut l) = (0usize, 0usize, 0usize);
        loop {
            let tr = ready.get(r).map_or(f64::INFINITY, |e| e.deadline);
            let tl = tags.get(l).map_or(f64::INFINITY, |&t| t.min(horizon));
            let q = p + seq_times[p..].partition_point(|&t| t < tr && t <= tl);
            if sweep.run::<true>(&seq_times[p..q], &seq_claim[p..q], p, &self.blocks) {
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
                sweep.run::<false>(&[tr], &[ready[r - 1].claim], 0, &[])
            } else {
                l += 1;
                sweep.run::<false>(&[tl], &[amounts[l - 1]], 0, &[])
            };
            if stop {
                return sweep.result();
            }
        }
        if sweep.tail_bound < sweep.min_slack {
            sweep.min_slack = sweep.tail_bound;
            sweep.binding_claims = sweep.claims; // everything outstanding binds the tail
        }
        sweep.result()
    }

    /// From-scratch checkpoint sweep: registers every event stream (ready
    /// singletons in registration order, task streams, ledger singletons),
    /// builds the loser tree and runs the fused merge + prefix scan over
    /// the whole window. This is the oracle the fast path must match
    /// bit-identically.
    fn sweep_reference(
        &mut self,
        deadline: f64,
        horizon: f64,
        now: f64,
        tail_bound: f64,
    ) -> (DemandSlack, u64) {
        let ledger_len = self.cache.ledger_tags.len();
        let n_tasks = self.cache.n_tasks;
        self.ensure_streams(self.ready.len() + n_tasks + ledger_len);

        let mut live = 0usize;
        for k in 0..self.ready.len() {
            let e = self.ready[k];
            self.claims[live] = e.claim;
            self.heads[live] = e.deadline;
            self.steps[live] = StreamStep::SINGLETON;
            live += 1;
        }
        for i in 0..n_tasks {
            let next_deadline = self.cache.next_deadline[i];
            if next_deadline <= horizon + TIME_EPS {
                let basis = self.cache.basis[i];
                self.claims[live] = self.cache.claim[i];
                self.heads[live] = next_deadline;
                self.steps[live] = StreamStep {
                    anchor: basis.anchor,
                    index: basis.index,
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
            if gate >= deadline {
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
    /// * release epoch advanced (job release) - per-task **repair**: a
    ///   chain whose basis moved along its lattice drops its leading
    ///   events, and only the chains whose anchor moved are regenerated
    ///   (see [`repair_seq`](DemandAnalysis::repair_seq));
    /// * horizon slid forward - pure tail **extension**, resuming the
    ///   saved chain states.
    ///
    /// Every event is [`chain_event`] of its task's basis, as in
    /// [`advance`](DemandAnalysis::advance), so the sequence is
    /// bit-identical to a from-scratch merge.
    fn ensure_seq(&mut self, horizon: f64) {
        let n = self.cache.n_tasks;
        if !self.seq_valid || self.chains.len() != n {
            self.rebuild_seq(horizon);
            // Size the repair scratch here, so that a run allocates it at
            // its first analysis, not at its first repair: no task has more
            // events than the sequence holds.
            let len = self.seq_times.len();
            self.new_times.clear();
            self.new_times.reserve(len);
            self.slots.clear();
            self.slots.reserve(len);
            self.drops.clear();
            self.drops.reserve(n);
            self.moved.clear();
            self.moved.reserve(n);
        } else if self.seq_epoch != self.cache.release_epoch {
            self.repair_seq(horizon);
        } else if horizon > self.seq_horizon {
            self.seq_horizon = horizon;
            self.extend_seq(horizon);
        }
        #[cfg(debug_assertions)]
        self.check_seq();
    }

    /// Builds the cached sequence afresh from the cached bases, covering
    /// `horizon`.
    fn rebuild_seq(&mut self, horizon: f64) {
        let n = self.cache.n_tasks;
        self.chains.clear();
        for i in 0..n {
            self.chains.push(TaskChain {
                index: self.cache.basis[i].index,
                next: self.cache.next_deadline[i],
            });
        }
        self.seq_basis.clone_from(&self.cache.basis);
        self.seq_times.clear();
        self.seq_task.clear();
        self.seq_claim.clear();
        self.blocks.clear();
        self.seq_stale = 0;
        self.seq_horizon = horizon;
        self.seq_epoch = self.cache.release_epoch;
        self.extend_seq(horizon);
        self.seq_valid = true;
    }

    /// Self-check of the cached sequence's invariants: times
    /// non-decreasing with tombstones included, live events strictly
    /// increasing in `(time, task)` with their task's claim, the stale
    /// count exact, every chain pending beyond the coverage bound at the
    /// [`chain_event`] of its basis, every stored basis equal to a fresh
    /// derivation from the cached release, and every block summary equal,
    /// bit for bit, to a fresh one. Runs after every sequence update in
    /// debug builds.
    ///
    /// The basis checks matter because the debug re-check in
    /// [`analyze`](DemandAnalysis::analyze) reloads every cache layer at
    /// every dispatch: a basis carried over stale would otherwise pass
    /// every dev-profile comparison.
    #[cfg(any(test, debug_assertions))]
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
        assert_eq!(
            self.seq_basis.len(),
            self.chains.len(),
            "basis count drifted"
        );
        for (i, (chain, basis)) in self.chains.iter().zip(&self.seq_basis).enumerate() {
            let (period, drel) = (self.cache.period[i], self.cache.drel[i]);
            let pending = chain_event(basis.anchor, chain.index, period, drel);
            assert_eq!(
                chain.next.to_bits(),
                pending.to_bits(),
                "task {i}'s pending event is off its basis's lattice"
            );
            let cached = self.cache.basis[i];
            // A sweep that skips the repair leaves the sequence an epoch
            // behind the cache until the next one that sweeps.
            assert!(
                self.seq_epoch != self.cache.release_epoch || basis.same_chain(cached),
                "task {i}'s chain basis is stale"
            );
            let release = lattice(cached.anchor, cached.index, period);
            assert!(
                Basis::of(release, cached.phase, period).same_chain(cached),
                "task {i}'s basis differs from a fresh derivation"
            );
            assert_eq!(
                (release + drel).to_bits(),
                self.cache.next_deadline[i].to_bits(),
                "task {i}'s basis is not its next release's"
            );
        }
        assert_eq!(
            self.blocks.len(),
            self.seq_times.len() / BLOCK,
            "block count drifted"
        );
        for (b, block) in self.blocks.iter().enumerate() {
            let slots = b * BLOCK..(b + 1) * BLOCK;
            let fresh = Block::of(&self.seq_times[slots.clone()], &self.seq_claim[slots]);
            let bits = |k: &Block| (k.sum.to_bits(), k.first.to_bits(), k.last.to_bits());
            assert_eq!(bits(block), bits(&fresh), "block {b} has a stale summary");
        }
    }

    /// Re-summarizes every full block from block `from` on, dropping the
    /// summaries past the sequence's last full block.
    fn summarize_from(&mut self, from: usize) {
        let full = self.seq_times.len() / BLOCK;
        self.blocks.truncate(from.min(full));
        for b in self.blocks.len()..full {
            let slots = b * BLOCK..(b + 1) * BLOCK;
            self.blocks.push(Block::of(
                &self.seq_times[slots.clone()],
                &self.seq_claim[slots],
            ));
        }
    }

    /// Re-summarizes block `b` after a repair wrote one of its slots (a
    /// block past the last full one has no summary).
    fn resummarize(&mut self, b: usize) {
        if let Some(block) = self.blocks.get_mut(b) {
            let slots = b * BLOCK..(b + 1) * BLOCK;
            *block = Block::of(&self.seq_times[slots.clone()], &self.seq_claim[slots]);
        }
    }

    /// Copies the live events down over the tombstones (all three arrays)
    /// and resets the stale count. Pure removal of sweep no-ops, so the
    /// swept stream is unchanged. Blocks before the first tombstone keep
    /// their slots and summaries; the rest are re-summarized.
    fn compact_seq(&mut self) {
        let len = self.seq_task.len();
        let first = self
            .seq_task
            .iter()
            .position(|&t| t == usize::MAX)
            .unwrap_or(len);
        let mut w = first;
        for p in first..len {
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
        self.summarize_from(first / BLOCK);
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
            self.chains[best].step(
                self.seq_basis[best].anchor,
                self.cache.period[best],
                self.cache.drel[best],
            );
        }
        self.summarize_from(self.blocks.len());
    }

    /// Repairs the cached sequence after the release outlook moved.
    ///
    /// Every path keeps the sequence's times **non-decreasing, tombstones
    /// included** — the block merge of
    /// [`sweep_overlay`](DemandAnalysis::sweep_overlay) binary-searches
    /// them — and its live events in strictly increasing `(time, task)`
    /// order, the tournament merge's.
    ///
    /// **Slides.** A task whose basis kept its anchor and advanced its
    /// index moved along its own lattice, as every periodic release does:
    /// its new chain is the old one minus the events before the new index,
    /// every later event the same expression of the same operands. The
    /// repair tombstones the task's emitted events among the dropped ones
    /// in place (no memmove; see the `seq_claim` field doc); a new index
    /// past the emitted prefix jumps the chain to it in one step.
    ///
    /// **Off-lattice moves** (a new anchor: jitter and sporadic gaps).
    /// Each such task is re-stamped in place
    /// ([`restamp`](DemandAnalysis::restamp)); when one cannot be, its new
    /// events would reorder the sequence, which is then built afresh from
    /// the cached bases.
    ///
    /// Every path also extends coverage to `horizon` when it moved past
    /// the cached one.
    fn repair_seq(&mut self, horizon: f64) {
        let n = self.cache.n_tasks;
        self.drops.clear();
        self.drops.resize(n, 0);
        self.moved.clear();
        let mut slid = false;
        let mut total_drops = 0;
        for i in 0..n {
            let (old, new) = (self.seq_basis[i], self.cache.basis[i]);
            if old.same_chain(new) {
                continue;
            }
            if old.anchor.to_bits() != new.anchor.to_bits() || new.index < old.index {
                self.moved.push(i);
                continue;
            }
            slid = true;
            // The chain's emitted events are its indices `old.index..`
            // `chain.index`, all live.
            let chain = &mut self.chains[i];
            let drops = (new.index - old.index).min(chain.index.saturating_sub(old.index));
            if new.index > chain.index {
                *chain = TaskChain {
                    index: new.index,
                    next: self.cache.next_deadline[i],
                };
            }
            self.drops[i] = drops;
            total_drops += drops;
        }
        self.seq_basis.clone_from(&self.cache.basis);
        self.seq_epoch = self.cache.release_epoch;
        self.tombstone_drops(total_drops);
        if self.moved.is_empty() {
            if slid {
                self.count_repair(RepairPath::Slide);
            }
            self.finish_in_place(horizon);
            return;
        }
        let old_bound = self.seq_horizon + TIME_EPS;
        for k in 0..self.moved.len() {
            if !self.restamp(self.moved[k], old_bound) {
                // The moved chain reorders events: build afresh.
                self.count_repair(RepairPath::Rebuild);
                self.rebuild_seq(self.seq_horizon.max(horizon));
                return;
            }
        }
        self.count_repair(RepairPath::Restamp);
        self.finish_in_place(horizon);
    }

    /// Tombstones the leading `drops[i]` live events of every slid task,
    /// `total` in all.
    fn tombstone_drops(&mut self, total: u64) {
        if total == 1 {
            // Overwhelmingly common: one task released one job, and its
            // earliest emitted event leads the drop.
            if let Some(task) = self.drops.iter().position(|&d| d > 0) {
                if let Some(p) = self.seq_task.iter().position(|&t| t == task) {
                    self.seq_task[p] = usize::MAX;
                    self.seq_claim[p] = TOMBSTONE;
                    self.seq_stale += 1;
                    self.resummarize(p / BLOCK);
                }
            }
            return;
        }
        let n = self.drops.len();
        let mut pending = total;
        // The block of the latest tombstone, re-summarized once the walk
        // leaves it.
        let mut touched = None;
        for p in 0..self.seq_task.len() {
            if pending == 0 {
                break;
            }
            let t = self.seq_task[p];
            // `t < n` also filters earlier tombstones.
            if t < n && self.drops[t] > 0 {
                self.drops[t] -= 1;
                self.seq_task[p] = usize::MAX;
                self.seq_claim[p] = TOMBSTONE;
                self.seq_stale += 1;
                if let Some(b) = touched.filter(|&b| b != p / BLOCK) {
                    self.resummarize(b);
                }
                touched = Some(p / BLOCK);
                pending -= 1;
            }
        }
        if let Some(b) = touched {
            self.resummarize(b);
        }
    }

    /// Counts a repair path in unit-test builds.
    #[inline]
    fn count_repair(&mut self, path: RepairPath) {
        #[cfg(test)]
        {
            let k = match path {
                RepairPath::Slide => 0,
                RepairPath::Restamp => 1,
                RepairPath::Rebuild => 2,
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
    /// than the old one kept — the caller then rebuilds the sequence.
    fn restamp(&mut self, i: usize, bound: f64) -> bool {
        let period = self.cache.period[i];
        let drel = self.cache.drel[i];
        let anchor = self.seq_basis[i].anchor;
        let mut chain = TaskChain {
            index: self.seq_basis[i].index,
            next: self.cache.next_deadline[i],
        };
        self.new_times.clear();
        while chain.next <= bound {
            self.new_times.push(chain.next);
            chain.step(anchor, period, drel);
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
        let lead = match self.new_times.first() {
            Some(&first) => {
                let cut = first - 0.5 * period;
                self.slots.partition_point(|&p| times[p] < cut)
            }
            None => self.slots.len(),
        };
        let fresh = self.new_times.len();
        let Some(trail) = self.slots.len().checked_sub(lead + fresh) else {
            return false;
        };
        let kept = &self.slots[lead..lead + fresh];
        for (j, (&slot, &t)) in kept.iter().zip(&self.new_times).enumerate() {
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
                if !(t < u || (t.to_bits() == u.to_bits() && i < task)) {
                    return false;
                }
                break;
            }
        }
        for (&slot, &t) in kept.iter().zip(&self.new_times) {
            self.seq_times[slot] = t;
        }
        for &slot in self.slots[..lead].iter().chain(&self.slots[lead + fresh..]) {
            self.seq_task[slot] = usize::MAX;
            self.seq_claim[slot] = TOMBSTONE;
        }
        self.seq_stale += lead + trail;
        self.chains[i] = chain;
        // Every slot of the task was re-stamped or dropped; the slots
        // ascend, so each block they touch is re-summarized once.
        let mut prev = None;
        for k in 0..self.slots.len() {
            let b = self.slots[k] / BLOCK;
            if prev != Some(b) {
                self.resummarize(b);
                prev = Some(b);
            }
        }
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
            cache.load_tasks(tasks.iter().map(|(id, task)| {
                (
                    pool.claim_of(id),
                    task.period(),
                    task.deadline(),
                    task.phase(),
                )
            }));
            cache.releases_valid = false;
            cache.ledger_valid = false;
            cache.valid = true;
            // A rebuilt task table invalidates the cached event sequence.
            self.seq_valid = false;
        }
        if !cache.releases_valid || cache.release_epoch != view.release_epoch() {
            cache.load_releases(tasks.iter().map(|(id, _)| view.next_release_of(id)));
            cache.release_epoch = view.release_epoch();
            cache.releases_valid = true;
        }
        let ledger = pool.ledger();
        if !cache.ledger_valid || cache.ledger_revision != ledger.revision() {
            cache.load_ledger(ledger.iter());
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
    /// Task streams step to their next in-window lattice event — the
    /// [`chain_event`] expression the cached chains use, so event times are
    /// bit-identical; exhausted streams park at `∞` and never win again.
    #[inline]
    fn advance(&mut self, w: usize, horizon: f64) -> u128 {
        let step = &mut self.steps[w];
        let time = if step.period > 0.0 {
            step.index += 1;
            let next = chain_event(step.anchor, step.index, step.period, step.deadline_rel);
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
    use stadvs_sim::rng::Rng;
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
                anchor: time,
                index: 0,
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
                    for k in 0.. {
                        let deadline = chain_event(time, k, period, deadline_rel);
                        if deadline > horizon + TIME_EPS {
                            break;
                        }
                        reference.push((deadline, claim));
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
    /// the given tasks (their phases and next releases), as
    /// `refresh_cache` would.
    fn load_outlook(
        analysis: &mut DemandAnalysis,
        claim: &[f64],
        period: &[f64],
        drel: &[f64],
        phase: &[f64],
        release: &[f64],
        epoch: u64,
    ) {
        let cache = &mut analysis.cache;
        cache.load_tasks((0..claim.len()).map(|i| (claim[i], period[i], drel[i], phase[i])));
        cache.load_releases(release.iter().copied());
        cache.release_epoch = epoch;
    }

    /// The live `(time, task, claim)` triples of the cached sequence, as
    /// bits, and each chain's pending `(index, next)` state.
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
            .map(|c| (c.index, c.next.to_bits()))
            .collect();
        (live, chains)
    }

    /// Moves next releases the ways the engine and the fault channels
    /// do, one task or a batch per call: lattice moves `origin +
    /// k·period` (the engine's release arithmetic), additive steps
    /// (`release + period`, up to three, on the lattice or an ulp off it),
    /// and sporadic gaps in `(T, 2T)`, which restart the generator at a new
    /// origin. Until then the origin is the task's phase, so lattice moves
    /// slide; from then on they lie off the task's lattice.
    fn move_bases(
        rng: &mut Rng,
        period: &[f64],
        origin: &mut [f64],
        index: &mut [u64],
        release: &mut [f64],
    ) {
        let n = period.len();
        let batch = rng.below(4) == 0;
        let first = rng.below(n as u64) as usize;
        for i in 0..n {
            if i != first && !(batch && rng.below(2) == 0) {
                continue;
            }
            match rng.below(16) {
                0..=5 => {
                    for _ in 0..=rng.below(3) {
                        release[i] += period[i];
                        index[i] += 1;
                    }
                }
                6..=14 => {
                    index[i] += 1 + rng.below(2);
                    release[i] = origin[i] + index[i] as f64 * period[i];
                }
                _ => {
                    release[i] += period[i] * rng.range_f64(1.0, 2.0);
                    origin[i] = release[i];
                    index[i] = 0;
                }
            }
        }
    }

    /// Every repair of the cached sequence must leave exactly what a fresh
    /// build from the current release bases gives: the same live `(time,
    /// task, claim)` triples and chain states, bit for bit, with times
    /// non-decreasing over tombstones too (the block sweep binary-searches
    /// them) and every block summary current. The moves cover lattice
    /// slides (`phase + k·period`, the engine's release arithmetic),
    /// additive steps that land an ulp off the lattice, sporadic gaps in
    /// `(T, 2T)` and the off-lattice moves after them, multi-task batches,
    /// twin tasks whose events tie bit-for-bit, horizon growth, and runs of
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
            let (mut origin, mut release) = (phase.clone(), phase.clone());
            let mut analysis = DemandAnalysis::default();
            let mut horizon = 0.0;
            for epoch in 0..48u64 {
                if epoch > 0 {
                    move_bases(rng, &period, &mut origin, &mut index, &mut release);
                }
                let floor = (0..n).map(|i| release[i] + drel[i]).fold(0.0, f64::max);
                let growth = if rng.below(2) == 0 {
                    0.0
                } else {
                    rng.range_f64(0.0, max_period)
                };
                horizon = (horizon + growth).max(floor);
                load_outlook(
                    &mut analysis,
                    &claim,
                    &period,
                    &drel,
                    &phase,
                    &release,
                    epoch,
                );
                analysis.ensure_seq(horizon);
                analysis.check_seq();

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
        let [slides, restamps, rebuilds, compactions] = counts;
        assert!(
            slides > 0 && restamps > 0 && rebuilds > 0 && compactions > 0,
            "a repair path never ran: {slides} slides, {restamps} re-stamps, \
             {rebuilds} rebuilds, {compactions} compactions"
        );
    }

    /// Periodic releases, computed as the engine computes them
    /// (`Task::release_of`), always repair as slides: tasks with non-dyadic
    /// periods and non-zero phases, some of them bit-tied twins, release
    /// in time order one at a time, in batches, or across an idle gap long
    /// enough for the shortest period to release more than 512 times, with
    /// horizon growth and compaction. Every repair must equal a fresh build
    /// bit for bit, and none may re-stamp or rebuild.
    #[test]
    fn periodic_moves_always_slide() {
        const PERIODS: [f64; 6] = [0.1, 1.0 / 3.0, 0.7, 1.1, 2.3, 0.3];
        let (mut counts, mut gaps) = ([0u64; 4], 0u64);
        stadvs_sim::rng::check("periodic_moves_always_slide", 128, |rng| {
            let n = 1 + rng.below(6) as usize;
            let mut tasks: Vec<Task> = Vec::new();
            for i in 0..n {
                let task = if i > 0 && rng.below(4) == 0 {
                    tasks[rng.below(i as u64) as usize].clone()
                } else {
                    let period =
                        PERIODS[rng.below(6) as usize] * [1.0, 3.0, 10.0][rng.below(3) as usize];
                    let deadline = period * rng.range_f64(0.5, 1.0);
                    Task::with_deadline(0.1 * deadline, period, deadline)
                        .and_then(|t| t.with_phase(rng.range_f64(0.01, 3.0) * period))
                        .map_err(|e| e.to_string())?
                };
                tasks.push(task);
            }
            let claim: Vec<f64> = (0..n).map(|_| rng.range_f64(0.01, 1.0)).collect();
            let period: Vec<f64> = tasks.iter().map(Task::period).collect();
            let drel: Vec<f64> = tasks.iter().map(Task::deadline).collect();
            let phase: Vec<f64> = tasks.iter().map(Task::phase).collect();
            let max_period = period.iter().copied().fold(0.0, f64::max);
            let min_period = period.iter().copied().fold(f64::INFINITY, f64::min);
            let mut index = vec![0u64; n];
            let mut release: Vec<f64> = tasks.iter().map(|t| t.release_of(0)).collect();
            // Releases the earliest pending job (ties to the lower task).
            let release_next = |index: &mut [u64], release: &mut [f64]| {
                let i = (0..n)
                    .min_by(|&a, &b| release[a].total_cmp(&release[b]))
                    .unwrap_or(0);
                index[i] += 1;
                release[i] = tasks[i].release_of(index[i]);
                release[i]
            };
            let mut analysis = DemandAnalysis::default();
            let mut horizon = 0.0;
            for epoch in 0..48u64 {
                if epoch > 0 {
                    match rng.below(16) {
                        0..=7 => {
                            release_next(&mut index, &mut release);
                        }
                        8..=14 => {
                            for _ in 0..2 + rng.below(5) {
                                release_next(&mut index, &mut release);
                            }
                        }
                        _ => {
                            // An idle gap: every job due in it is released.
                            gaps += 1;
                            let earliest = release.iter().copied().fold(f64::INFINITY, f64::min);
                            let end = earliest + (513 + rng.below(200)) as f64 * min_period;
                            while release.iter().any(|&r| r <= end) {
                                release_next(&mut index, &mut release);
                            }
                        }
                    }
                }
                let floor = (0..n).map(|i| release[i] + drel[i]).fold(0.0, f64::max);
                let growth = if rng.below(2) == 0 {
                    0.0
                } else {
                    rng.range_f64(0.0, max_period)
                };
                horizon = (horizon + growth).max(floor);
                load_outlook(
                    &mut analysis,
                    &claim,
                    &period,
                    &drel,
                    &phase,
                    &release,
                    epoch,
                );
                analysis.ensure_seq(horizon);
                analysis.check_seq();

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
                let [_, restamps, rebuilds, _] = analysis.repair_counts;
                if restamps + rebuilds > 0 {
                    return Err(format!(
                        "epoch {epoch}: a periodic move re-stamped ({restamps}) or rebuilt ({rebuilds})"
                    ));
                }
            }
            for (total, k) in counts.iter_mut().zip(analysis.repair_counts) {
                *total += k;
            }
            Ok(())
        });
        let [slides, _, _, compactions] = counts;
        assert!(
            slides > 0 && compactions > 0 && gaps > 0,
            "{slides} slides, {compactions} compactions, {gaps} idle gaps"
        );
    }

    /// A time at or within `TIME_EPS` of a chain event of a random task:
    /// the `k`-th event of its cached basis, as the cached sequence
    /// generates it, then left as is or nudged either way by less than
    /// `TIME_EPS` (never below `now`).
    fn near_event(rng: &mut Rng, cache: &DispatchCache, now: f64) -> f64 {
        let i = rng.below(cache.n_tasks as u64) as usize;
        let basis = cache.basis[i];
        let k = basis.index + rng.below(12);
        let t = chain_event(basis.anchor, k, cache.period[i], cache.drel[i]);
        match rng.below(3) {
            0 => t,
            1 => t + rng.range_f64(0.0, TIME_EPS),
            _ => (t - rng.range_f64(0.0, TIME_EPS)).max(now),
        }
    }

    /// The fast sweep, taking whole blocks, must equal the reference sweep
    /// bit for bit and visit no more events, dispatch after dispatch of a
    /// sequence kept by every repair path (the moves of [`move_bases`],
    /// horizon growth, compaction). Tasks span up to a 320:1 period
    /// spread, with bit-tied twins and near twins inside `TIME_EPS`, so
    /// groups straddle block boundaries; ready and ledger singletons sit
    /// on sequence events, within `TIME_EPS` of them, or anywhere. In a
    /// quarter of the cases the releases start `4·2^53·q` out and a ready
    /// claim just under `2^53·q` is due first, so the running sum crosses
    /// the exact range a few events in: blocks past it must be swept one
    /// event at a time. Every block summary is checked against a fresh one
    /// after every sweep, and blocks must be taken whole, and refused by
    /// the range guard alone, somewhere in the run.
    #[test]
    fn block_sweep_matches_the_reference() {
        let mut repairs = [0u64; 4];
        let mut blocks = [0u64; 2];
        stadvs_sim::rng::check("block_sweep_matches_the_reference", 96, |rng| {
            let n = 1 + rng.below(6) as usize;
            let crossing = rng.below(4) == 0;
            let spread = if rng.below(2) == 0 { 1.0 } else { 20.0 };
            let density = rng.range_f64(if crossing { 0.5 } else { 0.1 }, 1.0);
            let (mut weight, mut period, mut drel, mut phase) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for i in 0..n {
                if i > 0 && rng.below(3) == 0 {
                    // A bit-tied twin, or a near twin inside `TIME_EPS`.
                    let j = rng.below(i as u64) as usize;
                    let nudge = if rng.below(2) == 0 {
                        0.0
                    } else {
                        rng.range_f64(0.0, 0.5 * TIME_EPS)
                    };
                    period.push(period[j]);
                    drel.push(drel[j]);
                    phase.push(phase[j] + nudge);
                } else {
                    let t = rng.range_f64(1.0, 16.0)
                        / if spread > 1.0 {
                            rng.range_f64(1.0, spread)
                        } else {
                            1.0
                        };
                    period.push(t);
                    drel.push(t * rng.range_f64(0.5, 1.0));
                    phase.push(rng.range_f64(0.0, t));
                }
                weight.push(rng.range_f64(0.05, 1.0));
            }
            // Claims at density `Σ claim_i/T_i = density ≤ 1`, the tail
            // bound's premise.
            let total: f64 = weight.iter().sum();
            let claim: Vec<f64> = (0..n)
                .map(|i| density * weight[i] / total * period[i])
                .collect();
            let max_period = period.iter().copied().fold(0.0, f64::max);
            let grid = claim_grid(max_period);
            let limit = grid * EXACT_SPAN;
            if crossing {
                for p in &mut phase {
                    *p += 4.0 * limit;
                }
            }
            let mut index = vec![0u64; n];
            let (mut origin, mut release) = (phase.clone(), phase.clone());
            let mut analysis = DemandAnalysis::new([0.25, 1.0, 4.0][rng.below(3) as usize]);
            let mut now: f64 = 0.0;
            for epoch in 0..24u64 {
                if epoch > 0 {
                    move_bases(rng, &period, &mut origin, &mut index, &mut release);
                }
                load_outlook(
                    &mut analysis,
                    &claim,
                    &period,
                    &drel,
                    &phase,
                    &release,
                    epoch,
                );
                let earliest = release.iter().copied().fold(f64::INFINITY, f64::min);
                let first = analysis
                    .cache
                    .next_deadline
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                now = if crossing {
                    now + rng.range_f64(0.0, max_period)
                } else {
                    now.max(earliest - rng.range_f64(0.0, max_period))
                }
                .min(earliest);

                let mut ready = Vec::new();
                for pos in 0..rng.below(5) as usize {
                    let deadline = if rng.below(2) == 0 {
                        near_event(rng, &analysis.cache, now)
                    } else {
                        now + rng.range_f64(0.0, 2.0 * max_period)
                    };
                    let claim = on_grid(rng.range_f64(0.0, 0.5) * max_period, grid);
                    ready.push(ReadyEvent {
                        deadline,
                        pos,
                        claim,
                    });
                }
                if crossing {
                    // Just under the exact range, due before the first task
                    // event; and a late job that stretches the window.
                    let claim = on_grid(limit - rng.range_f64(0.5, 8.0) * max_period, grid);
                    ready.push(ReadyEvent {
                        deadline: (first - rng.range_f64(0.0, max_period)).max(now),
                        pos: ready.len(),
                        claim,
                    });
                    ready.push(ReadyEvent {
                        deadline: first + rng.range_f64(2.0, 8.0) * max_period,
                        pos: ready.len(),
                        claim: on_grid(rng.range_f64(0.0, 0.5) * max_period, grid),
                    });
                }
                let earliest_due = ready.iter().map(|e| e.deadline).min_by(f64::total_cmp);
                let deadline = match (earliest_due, rng.below(4)) {
                    (Some(d), 0 | 1) => d,
                    (Some(_), 2) => ready[rng.below(ready.len() as u64) as usize].deadline,
                    _ => now.max(first - max_period) + rng.range_f64(0.0, 4.0 * max_period),
                };

                // Ledger tags ascend and stay inside the horizon.
                let cap = analysis.cache.first_deadlines.max(deadline);
                let mut tags: Vec<f64> = (0..rng.below(4))
                    .map(|_| {
                        if rng.below(2) == 0 {
                            near_event(rng, &analysis.cache, now)
                        } else {
                            now + rng.range_f64(0.0, 2.0 * max_period)
                        }
                        .min(cap)
                    })
                    .collect();
                tags.sort_by(f64::total_cmp);
                tags.dedup_by(|a, b| a.to_bits() == b.to_bits());
                let amounts: Vec<f64> = tags
                    .iter()
                    .map(|_| rng.range_f64(0.0, 0.3) * max_period)
                    .collect();
                analysis
                    .cache
                    .load_ledger(tags.iter().copied().zip(amounts.iter().copied()));

                analysis.ready.clone_from(&ready);
                let (slow, oracle_events) = analysis.sweep(now, deadline, false);
                analysis.ready.clone_from(&ready);
                let (fast, events) = analysis.sweep(now, deadline, true);
                analysis.check_seq();
                if fast.slack.to_bits() != slow.slack.to_bits()
                    || fast.binding_claims.to_bits() != slow.binding_claims.to_bits()
                {
                    return Err(format!(
                        "epoch {epoch}: fast sweep {fast:?} != reference {slow:?}"
                    ));
                }
                if events > oracle_events {
                    return Err(format!(
                        "epoch {epoch}: fast sweep visited {events} events, reference {oracle_events}"
                    ));
                }
            }
            for (total, k) in repairs.iter_mut().zip(analysis.repair_counts) {
                *total += k;
            }
            for (total, k) in blocks.iter_mut().zip(analysis.block_counts) {
                *total += k;
            }
            Ok(())
        });
        let [slides, restamps, rebuilds, compactions] = repairs;
        assert!(
            slides > 0 && restamps > 0 && rebuilds > 0 && compactions > 0,
            "a repair path never ran: {slides} slides, {restamps} re-stamps, \
             {rebuilds} rebuilds, {compactions} compactions"
        );
        let [taken, guarded] = blocks;
        assert!(
            taken > 0 && guarded > 0,
            "{taken} blocks taken whole, {guarded} refused by the range guard alone"
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
