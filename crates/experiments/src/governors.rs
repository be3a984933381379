//! The governor table: one row per selectable governor, with its stable
//! name, the workload regimes its guarantee survives, a one-sentence
//! deadline-safety argument and a fresh-instance factory.
//!
//! [`make_governor`] and [`governor_caps`] look names up here, so the
//! table is the single source of truth for every per-regime governor
//! exclusion — jitter, sporadic arrivals, weakly-hard skips (DESIGN.md
//! §10, §14): tests and experiments derive "safe under regime X" from it
//! instead of keeping their own name lists. A row does not compile
//! without its `safety` sentence, so no governor becomes selectable
//! without a stated deadline argument; each type's docs keep the full
//! proof.

use stadvs_baselines::{CcEdf, Dra, FeedbackEdf, LaEdf, LppsEdf, NoDvs, StaticEdf};
use stadvs_core::{SlackEdf, SlackEdfConfig};
use stadvs_sim::{FaultPlan, Governor, TaskSet};

/// Which workload regimes a governor's hard-real-time argument survives.
///
/// Doubles as a *requirement* vector: [`GovernorCaps::default`] requires
/// nothing, and [`GovernorCaps::covers`] checks a row's capabilities
/// against a requirement built from the workload at hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorCaps {
    /// Bounded release jitter (delayed arrivals against the periodic
    /// lattice).
    pub jitter: bool,
    /// Sporadic arrival processes (seeded inter-arrival stretches; the
    /// same delay-only safety class as jitter).
    pub sporadic: bool,
    /// Weakly-hard (m,k) skip reclamation: jobs may complete instantly at
    /// release with zero demand. Every work-conserving governor treats a
    /// skip as an (extreme) early completion, so this is universally safe.
    pub weakly_hard: bool,
}

impl GovernorCaps {
    /// Every regime supported.
    pub const ALL: GovernorCaps = GovernorCaps {
        jitter: true,
        sporadic: true,
        weakly_hard: true,
    };

    /// Strictly periodic arrivals only: laEDF's lookahead defers work
    /// against *future periodic* releases, so every delayed-arrival
    /// regime (jitter, sporadic) is excluded. Skips only remove demand,
    /// so weakly-hard stays safe.
    pub const PERIODIC_ONLY: GovernorCaps = GovernorCaps {
        jitter: false,
        sporadic: false,
        weakly_hard: true,
    };

    /// Whether these capabilities cover `required` — every regime the
    /// requirement names is supported.
    pub fn covers(&self, required: GovernorCaps) -> bool {
        (self.jitter || !required.jitter)
            && (self.sporadic || !required.sporadic)
            && (self.weakly_hard || !required.weakly_hard)
    }
}

/// One row of the governor table.
pub struct GovernorEntry {
    /// Stable governor name (what [`make_governor`] resolves, and the
    /// governor's own `name()`).
    pub name: &'static str,
    /// The workload regimes this governor's guarantee argument survives.
    pub caps: GovernorCaps,
    /// Why the governor meets every deadline of a feasible set, in one
    /// sentence.
    pub safety: &'static str,
    factory: fn() -> Box<dyn Governor>,
}

impl GovernorEntry {
    /// Builds a fresh instance of this row's governor (per run and per
    /// core: never share one instance across runs or cores).
    pub fn make(&self) -> Box<dyn Governor> {
        (self.factory)()
    }
}

/// Every selectable governor: the baselines in conventional comparison
/// order (weakest energy saver first), then `st-edf` and its variants.
/// Every variant's slack analysis re-derives its bounds from the *actual*
/// release instants, so all of them keep their guarantee under bounded
/// release jitter and sporadic arrivals.
pub static GOVERNORS: &[GovernorEntry] = &[
    GovernorEntry {
        name: "no-dvs",
        caps: GovernorCaps::ALL,
        safety: "Full speed is the schedule every EDF feasibility test assumes, so every \
                 set EDF can schedule at all meets its deadlines.",
        factory: || Box::new(NoDvs::new()),
    },
    GovernorEntry {
        name: "static-edf",
        caps: GovernorCaps::ALL,
        safety: "At the constant speed max_t dbf(t)/t the supply of every interval covers \
                 its demand bound, the EDF feasibility condition for implicit and \
                 constrained deadlines.",
        factory: || Box::new(StaticEdf::new()),
    },
    GovernorEntry {
        name: "lpps-edf",
        caps: GovernorCaps::ALL,
        safety: "It slows only a lone ready job, and only so far that its worst case ends by \
                 the earlier of its deadline and the next arrival, after which the \
                 full-speed argument applies unchanged.",
        factory: || Box::new(LppsEdf::new()),
    },
    GovernorEntry {
        name: "cc-edf",
        caps: GovernorCaps::ALL,
        safety: "The speed never falls below the utilization with every incomplete job \
                 counted at its worst case, and EDF at speed s is feasible whenever that \
                 utilization is at most s (Pillai & Shin, Theorem 2).",
        factory: || Box::new(CcEdf::new()),
    },
    GovernorEntry {
        name: "dra",
        caps: GovernorCaps::ALL,
        safety: "Every second a job spends, its own grant or an alpha-queue entry with a \
                 no-later deadline tag, is occupancy the canonical speed-U EDF schedule \
                 fits before the same deadline.",
        factory: || Box::new(Dra::new()),
    },
    GovernorEntry {
        name: "dra-ote",
        caps: GovernorCaps::ALL,
        safety: "As for dra, and a lone job stretched to the next arrival still worst-case \
                 completes by it, so the state at that arrival is never behind the \
                 canonical schedule.",
        factory: || Box::new(Dra::with_one_task_extension()),
    },
    GovernorEntry {
        name: "feedback-edf",
        caps: GovernorCaps::ALL,
        safety: "Each job owns its canonical C/U of wall time before its deadline, and the \
                 predicted part runs slow only in what is left after the worst-case tail \
                 is reserved at full speed.",
        factory: || Box::new(FeedbackEdf::new()),
    },
    GovernorEntry {
        name: "la-edf",
        caps: GovernorCaps::PERIODIC_ONLY,
        safety: "Work deferred past the earliest deadline is bounded to fit at full speed \
                 between that deadline and its own beside the (1 - U) reserve for future \
                 periodic releases.",
        factory: || Box::new(LaEdf::new()),
    },
    GovernorEntry {
        name: "st-edf",
        caps: GovernorCaps::ALL,
        safety: "Every second of a job's allowance is backed by a claim the slack-time \
                 analysis proved lies before its deadline in the worst case, so running \
                 at remaining/allowance finishes the worst case by the deadline.",
        factory: || Box::new(SlackEdf::new()),
    },
    GovernorEntry {
        name: "st-edf-oa",
        caps: GovernorCaps::ALL,
        safety: "As for st-edf, with each job's worst-case switch time priced into the \
                 claims and withheld from its execution allowance, so transition latency \
                 cannot push a worst case past its deadline.",
        factory: || Box::new(SlackEdf::with_config(SlackEdfConfig::overhead_aware())),
    },
    GovernorEntry {
        name: "st-edf[r]",
        caps: GovernorCaps::ALL,
        safety: "st-edf's claims argument with reclaiming alone: a job spends only its \
                 canonical claim and banked earliness whose deadline tags are no later \
                 than its own.",
        factory: || Box::new(SlackEdf::with_config(SlackEdfConfig::reclaiming_only())),
    },
    GovernorEntry {
        name: "st-edf[a]",
        caps: GovernorCaps::ALL,
        safety: "st-edf's claims argument with arrival stretching alone: a lone job's \
                 worst case completes before the next arrival, restoring a state the \
                 canonical schedule accepts.",
        factory: || Box::new(SlackEdf::with_config(SlackEdfConfig::arrival_only())),
    },
    GovernorEntry {
        name: "st-edf[d]",
        caps: GovernorCaps::ALL,
        safety: "st-edf's claims argument with the demand analysis alone, which adds only \
                 time that no outstanding claim needs before its deadline.",
        factory: || Box::new(SlackEdf::with_config(SlackEdfConfig::demand_only())),
    },
    GovernorEntry {
        name: "st-edf-cs",
        caps: GovernorCaps::ALL,
        safety: "As for st-edf, and the critical-speed floor only raises the speed, which \
                 finishes the worst case no later.",
        factory: || Box::new(SlackEdf::with_config(SlackEdfConfig::critical_speed())),
    },
    GovernorEntry {
        name: "st-edf-pace",
        caps: GovernorCaps::ALL,
        safety: "st-edf's allowance, spent by an accelerating plan capped at full speed \
                 whose worst case takes at most that allowance less a 2 us guard per step.",
        factory: || Box::new(SlackEdf::with_config(SlackEdfConfig::pacing(8))),
    },
];

/// The standard governor lineup of the evaluation, in comparison order.
pub const STANDARD_LINEUP: &[&str] = &[
    "no-dvs",
    "static-edf",
    "lpps-edf",
    "cc-edf",
    "dra",
    "dra-ote",
    "feedback-edf",
    "la-edf",
    "st-edf",
];

/// The row of [`GOVERNORS`] named `name`, if any.
pub fn governor_entry(name: &str) -> Option<&'static GovernorEntry> {
    GOVERNORS.iter().find(|g| g.name == name)
}

/// Builds a fresh governor by name: any row of [`GOVERNORS`]. Each call
/// returns a new instance — one per run, and one per core in
/// multiprocessor runs.
///
/// Returns `None` for unknown names and for the analytic pseudo-governors
/// ([`crate::ORACLE`], [`crate::YDS_BOUND`]), which
/// [`crate::Comparison::run_case`] resolves itself.
pub fn make_governor(name: &str) -> Option<Box<dyn Governor>> {
    governor_entry(name).map(GovernorEntry::make)
}

/// The capability flags of `name`'s row in [`GOVERNORS`]. `None` for
/// unknown names and pseudo-governors.
pub fn governor_caps(name: &str) -> Option<GovernorCaps> {
    governor_entry(name).map(|g| g.caps)
}

/// Whether `name`'s hard-real-time argument survives bounded release
/// jitter (the jitter column of [`governor_caps`]). `None` for unknown
/// names and pseudo-governors.
pub fn governor_supports_jitter(name: &str) -> Option<bool> {
    governor_caps(name).map(|c| c.jitter)
}

/// Filters a lineup down to the governors whose capabilities cover
/// `required` (see [`GovernorCaps::covers`]); unknown names are dropped.
pub fn capable_lineup<'a>(names: &[&'a str], required: GovernorCaps) -> Vec<&'a str> {
    names
        .iter()
        .copied()
        .filter(|name| governor_caps(name).is_some_and(|caps| caps.covers(required)))
        .collect()
}

/// Filters a lineup down to the governors safe to run under a plan with
/// release jitter (no-op for plans without a jitter channel).
pub fn jitter_safe_lineup<'a>(names: &[&'a str], plan: &FaultPlan) -> Vec<&'a str> {
    if !plan.has_jitter() {
        return names.to_vec();
    }
    capable_lineup(
        names,
        GovernorCaps {
            jitter: true,
            ..GovernorCaps::default()
        },
    )
}

/// The capability requirements of running `tasks`: sporadic and
/// weakly-hard flags are set when the set contains a task of that model.
/// Frame tasks require no extra capability — the boost floor is applied
/// by the simulator above whatever speed the governor picks.
pub fn required_caps(tasks: &TaskSet) -> GovernorCaps {
    use stadvs_sim::TaskKind;
    let mut required = GovernorCaps::default();
    for (_, t) in tasks.iter() {
        match t.kind() {
            TaskKind::Hard | TaskKind::Frame { .. } => {}
            TaskKind::WeaklyHard { .. } => required.weakly_hard = true,
            TaskKind::Sporadic { .. } => required.sporadic = true,
        }
    }
    required
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ORACLE, YDS_BOUND};

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = GOVERNORS.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GOVERNORS.len());
        for name in names {
            let g = make_governor(name).expect("resolvable");
            assert_eq!(g.name(), name);
        }
        for name in STANDARD_LINEUP {
            assert!(governor_entry(name).is_some(), "{name}");
        }
        assert!(make_governor("bogus").is_none());
        assert!(make_governor(ORACLE).is_none()); // resolved by run_case
        assert!(make_governor(YDS_BOUND).is_none());
    }

    #[test]
    fn table_names_match_governor_names() {
        // The row's `name` must be the governor's own `name()` — row
        // lookups and outcome labels would silently diverge otherwise.
        for g in GOVERNORS {
            assert_eq!(g.make().name(), g.name);
        }
    }

    #[test]
    fn every_row_states_one_sentence() {
        for g in GOVERNORS {
            let s = g.safety;
            assert!(
                s.len() > 40 && s.ends_with('.') && !s.contains(". "),
                "{}: {s:?} is not one sentence",
                g.name
            );
        }
    }

    #[test]
    fn make_returns_fresh_instances() {
        let b = make_governor("cc-edf").expect("exists");
        let c = make_governor("cc-edf").expect("exists");
        // Boxed instances must be distinct allocations (fresh state).
        assert!(!std::ptr::eq(b.as_ref(), c.as_ref()));
    }

    #[test]
    fn only_la_edf_lacks_jitter_support() {
        let excluded: Vec<&str> = GOVERNORS
            .iter()
            .filter(|g| !g.caps.jitter)
            .map(|g| g.name)
            .collect();
        assert_eq!(excluded, ["la-edf"]);
        assert_eq!(governor_supports_jitter("la-edf"), Some(false));
        assert_eq!(governor_supports_jitter("cc-edf"), Some(true));
        assert_eq!(governor_supports_jitter("st-edf"), Some(true));
        assert_eq!(governor_supports_jitter("st-edf[r]"), Some(true));
        assert_eq!(governor_supports_jitter(ORACLE), None);
        assert_eq!(governor_supports_jitter("bogus"), None);

        let jittery = stadvs_workload::FaultPlanSpec::noisy_releases(0xA1)
            .build()
            .unwrap();
        let filtered = jitter_safe_lineup(STANDARD_LINEUP, &jittery);
        assert!(!filtered.contains(&"la-edf"));
        assert_eq!(filtered.len(), STANDARD_LINEUP.len() - 1);
        let quiet = jitter_safe_lineup(STANDARD_LINEUP, &FaultPlan::NONE);
        assert_eq!(quiet, STANDARD_LINEUP);
    }

    #[test]
    fn sporadic_exclusions_match_jitter_exclusions() {
        // Sporadic arrivals are delay-only, the same safety class as
        // jitter — the two columns must agree for every row.
        for g in GOVERNORS {
            assert_eq!(g.caps.jitter, g.caps.sporadic, "{}", g.name);
        }
    }

    #[test]
    fn every_governor_supports_weakly_hard_skips() {
        // A skip is an extreme early completion; every work-conserving
        // governor already handles those.
        for g in GOVERNORS {
            assert!(g.caps.weakly_hard, "{}", g.name);
        }
    }

    #[test]
    fn caps_cover_requirements() {
        let none = GovernorCaps::default();
        assert!(GovernorCaps::ALL.covers(none));
        assert!(GovernorCaps::ALL.covers(GovernorCaps::ALL));
        assert!(GovernorCaps::PERIODIC_ONLY.covers(none));
        assert!(GovernorCaps::PERIODIC_ONLY.covers(GovernorCaps {
            weakly_hard: true,
            ..none
        }));
        assert!(!GovernorCaps::PERIODIC_ONLY.covers(GovernorCaps {
            jitter: true,
            ..none
        }));
        assert!(!GovernorCaps::PERIODIC_ONLY.covers(GovernorCaps {
            sporadic: true,
            ..none
        }));
    }

    #[test]
    fn caps_are_table_derived() {
        assert_eq!(governor_caps("la-edf"), Some(GovernorCaps::PERIODIC_ONLY));
        assert_eq!(governor_caps("cc-edf"), Some(GovernorCaps::ALL));
        assert_eq!(governor_caps("st-edf"), Some(GovernorCaps::ALL));
        assert_eq!(governor_caps("st-edf-pace"), Some(GovernorCaps::ALL));
        assert_eq!(governor_caps(ORACLE), None);
        assert_eq!(governor_caps("bogus"), None);

        // Sporadic requirements exclude exactly the jitter exclusions.
        let sporadic_need = GovernorCaps {
            sporadic: true,
            ..GovernorCaps::default()
        };
        let filtered = capable_lineup(STANDARD_LINEUP, sporadic_need);
        assert!(!filtered.contains(&"la-edf"));
        assert_eq!(filtered.len(), STANDARD_LINEUP.len() - 1);
        // Weakly-hard requirements exclude nobody.
        let wh_need = GovernorCaps {
            weakly_hard: true,
            ..GovernorCaps::default()
        };
        assert_eq!(capable_lineup(STANDARD_LINEUP, wh_need), STANDARD_LINEUP);
        // No requirements: unknown names are still dropped.
        let with_bogus = ["cc-edf", "bogus"];
        assert_eq!(
            capable_lineup(&with_bogus, GovernorCaps::default()),
            ["cc-edf"]
        );
    }

    #[test]
    fn required_caps_reflect_task_models() {
        use stadvs_sim::Task;
        let hard = TaskSet::new(vec![Task::new(1.0, 4.0).unwrap()]).unwrap();
        assert_eq!(required_caps(&hard), GovernorCaps::default());
        let mixed = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(1.0, 4.0).unwrap().weakly_hard(1, 2).unwrap(),
            Task::new(1.0, 8.0).unwrap().sporadic(0.5, 3).unwrap(),
            Task::new(1.0, 8.0).unwrap().frame(0.5).unwrap(),
        ])
        .unwrap();
        let required = required_caps(&mixed);
        assert!(required.weakly_hard && required.sporadic && !required.jitter);
    }
}
