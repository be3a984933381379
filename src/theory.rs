//! # Theory notes: why the slack-time analysis is safe
//!
//! This chapter collects, in one place, the safety arguments implemented
//! across [`stadvs_core`] — including the pitfalls that were discovered as
//! *real deadline misses* by the randomized test suite and then root-caused.
//! It is documentation, not code; every claim here is enforced by
//! `tests/hard_guarantee.rs` and the independent referee
//! [`stadvs_sim::audit_outcome`].
//!
//! ## 1. Model
//!
//! Periodic tasks `τ_i = (C_i, T_i, D_i ≤ T_i)`, preemptive EDF, normalized
//! processor speed `s ∈ (0, 1]`. Executing at speed `s` for wall-clock `Δ`
//! completes `s·Δ` work. Actual demands are unknown a priori, bounded by
//! `C_i`, and revealed only at completion. A governor may choose a new speed
//! at every scheduling point (release, completion, idle end, or a
//! self-requested power-management point).
//!
//! ## 2. The canonical schedule and the claims currency
//!
//! Let `s* = minimum feasible static speed` — equal to the utilization `U`
//! for implicit deadlines, and to the demand-bound intensity supremum
//! `sup_t dbf(t)/t` for constrained deadlines. The **canonical schedule** is
//! EDF run at the constant speed `s*`; it meets every deadline by
//! definition of `s*`, and in it every job of `τ_i` occupies exactly
//! `κ·C_i` of wall-clock processor time (`κ = 1/s*`), all of it before the
//! job's deadline.
//!
//! That occupancy is the job's **claim** — the currency all slack sources
//! share. The central invariant the governor maintains at every scheduling
//! point `t`:
//!
//! > **Claims invariant.** For every checkpoint `D`:
//! > `claims(t, D) ≤ D − t`, where `claims(t, D)` sums the remaining claims
//! > of ready jobs with deadlines `≤ D`, the canonical occupancies of
//! > future jobs with deadlines `≤ D`, and banked ledger entries with tags
//! > `≤ D`.
//!
//! The canonical schedule itself witnesses the invariant initially; each
//! transition preserves it:
//!
//! * **execution** of the EDF-minimum job for `δ` shrinks every window by
//!   `δ` and the running job's claim by `δ` (its claim is absorbed at the
//!   earliest outstanding position);
//! * **completion** moves the unused claim into the ledger at the same
//!   deadline tag (or discards it);
//! * **dispatch absorption** moves ledger entries with tags `≤ d_J` into
//!   `J`'s claim — tags only move *later*, which is the safe direction;
//! * **extra-slack grants** (§3) consume only surplus the invariant proves.
//!
//! Two transition rules are easy to miss, and both absences produced
//! millisecond-scale misses in randomized testing before being added:
//!
//! 1. **Idle drains the bank.** While the real processor idles, the
//!    canonical schedule keeps performing the service the ledger banks;
//!    windows shrink with no claim shrinking. Clearing the ledger on idle
//!    restores the plain canonical state (safe: an idle instant means the
//!    real schedule is strictly ahead).
//! 2. **Claims floor at remaining work.** A job that consumed granted extra
//!    slack has spent more wall time than its canonical claim; clamping its
//!    visible claim at `max(granted − wall, remaining worst-case work)`
//!    keeps other jobs' analyses covering the time it still needs.
//!
//! ## 3. The demand analysis and its tail bound
//!
//! For the dispatched job `J` (deadline `d`), the minimum over checkpoints
//! `D ≥ d` of `(D − t) − claims(t, D)` is time *nobody* has claimed;
//! granting `J` its share keeps the invariant. Checkpoints before `d` do
//! not bind `J`: any earlier-deadline arrival preempts it and takes its own
//! claim first.
//!
//! Enumerating checkpoints must stop somewhere; beyond the window the
//! analysis uses an analytic bound. With `a_i` the next release of `τ_i`,
//! the release count obeys `count_i(D) ≤ (D − a_i − D_i)/T_i + 1`, and
//! canonical claims accrue at rate exactly 1, so for `D ≥ max_i(a_i + D_i)`
//!
//! ```text
//! slack(D) ≥ Σ_i (a_i + D_i − t)·(u_i·κ) − Σ_i C_i·κ − ready − bank,
//! ```
//!
//! a constant equal to the steady-state sawtooth valley. Any finite window
//! therefore yields a certificate valid over the **unbounded** horizon.
//!
//! ## 4. A documented unsound alternative
//!
//! An earlier draft measured demand slack in raw worst-case-work units and
//! combined it with the canonical allowance by `max(…)`. Counterexample
//! (`U = 0.75`): `τ_1 = (2, 4)`, `τ_2 = (2, 8)`, worst-case demands. At
//! `t = 0` the work-based analysis certifies the full window `[0, 4]` for
//! `J_1` (slack 2 at every checkpoint), so `J_1` runs at speed `1/2` and
//! occupies `[0, 4]` — overdrawing its canonical allotment of `8/3`. At
//! `t = 4`, `J_1'` takes its canonical allowance `8/3` (the `max` picks it),
//! finishing worst-case at `6.67`, and `J_2` — with 2 units of work and
//! `1.33` of window — misses deadline 8 by `0.67`. The two certificates
//! assumed different invariants; measuring demand *in claim units* removes
//! the conflict, and as a bonus distributes static slack the way the
//! canonical schedule would.
//!
//! Conversely, banking is **not** redundant next to the claims analysis:
//! an unrecorded early completion is visible only transiently (the
//! worst-case tail bound rightly refuses to promise unrecorded time
//! sustainably), while a deadline-tagged entry is a claim the analysis
//! protects until spent or expired. The deadline-tag consumption rule of
//! classic reclaiming *emerges* from the claims analysis rather than being
//! postulated.
//!
//! ## 5. Arrival stretching
//!
//! A job alone in the ready set may stretch to
//! `min(d, next arrival) − outstanding bank`: at the chosen speed it
//! worst-case-completes before anything else exists, so the state at the
//! next arrival is at least as advanced as the canonical schedule's — minus
//! the banked claims whose windows the stretch would otherwise eat, which
//! is why the bank total is subtracted.
//!
//! ## 6. Switch overhead
//!
//! Transition latency `δ` erodes windows without eroding claims. Pricing it
//! into the currency restores the invariant: each job of `τ_i` carries a
//! margin `m_i = δ·(2 + Σ_{D_j<D_i}((D_i − D_j)/T_j + 1))` bounding its
//! dispatch switch plus one resume per possible preemption (only
//! earlier-absolute-deadline arrivals preempt, and such an arrival must
//! land in the first `D_i − D_j` of the window). The canonical stretch is
//! re-solved with WCETs inflated by the margins (`(C+m)·κ ≥ C·κ + m` for
//! `κ ≥ 1` keeps the inflation conservative); if no stretch `≥ 1` exists
//! the governor runs at full speed and never switches. The margin bound is
//! only valid because the dispatch speed is **committed** across
//! non-preempting releases — those arrivals were already counted by the
//! demand analysis — and margins are forfeited (never banked) at
//! settlement, since a job's recorded wall time excludes the transition
//! latencies spent on its behalf.
//!
//! ## 7. Intra-job pacing
//!
//! Within a fixed allowance `A` for remaining work `W`, splitting into `n`
//! chunks with survival probabilities `P_k` and minimizing expected energy
//! `Σ P_k·w·s_k²` under `Σ w/s_k = A` yields `s_k ∝ P_k^{−1/3}`. The plan's
//! worst case consumes exactly `A`, so every guarantee above is untouched.
//! The survival profile is learned online per task and conditioned on
//! current progress; with degenerate (always-worst-case) demand the learned
//! profile is flat and the plan collapses to the constant speed — a fixed
//! distribution assumption instead pays a convexity penalty exactly when
//! it is wrong.
//!
//! ## 8. What the tests enforce
//!
//! * `tests/hard_guarantee.rs` — every governor, randomized task sets
//!   (including constrained deadlines and discrete platforms), zero misses
//!   under `MissPolicy::Fail` plus the full independent audit;
//! * `tests/bound_dominance.rs` — the YDS optimum lower-bounds every
//!   governor on every case; `YDS ≤ oracle-static ≤ st-edf ≤ no-dvs`;
//! * `tests/analysis_cross_check.rs` — QPA agrees with worst-case
//!   simulation; the oracle speed equals the YDS peak and is tight; the
//!   minimum static speed is sufficient on constrained-deadline sets (this
//!   test caught a busy-period-horizon bug in an earlier version).
