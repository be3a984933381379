//! Deadline-tagged slack accounting.

use stadvs_sim::TIME_EPS;

/// A ledger of slack amounts, each tagged with the absolute deadline of the
/// job that donated it.
///
/// The tag encodes the safety rule of deadline-tagged reclaiming: slack
/// donated by a job with deadline `d_e` corresponds to processor time that
/// the canonical worst-case schedule provably spends **before `d_e`** — so
/// it may only be consumed by a job whose own deadline is at or after
/// `d_e`. Entries whose tag has passed represent time that already elapsed
/// and [expire](SlackLedger::expire).
///
/// The ledger is kept sorted by tag; donations merge into existing entries
/// with (approximately) equal tags.
///
/// ```
/// use stadvs_core::SlackLedger;
///
/// let mut ledger = SlackLedger::new();
/// ledger.donate(8.0, 2.0);
/// ledger.donate(5.0, 1.0);
/// assert_eq!(ledger.available_up_to(6.0), 1.0);  // only the tag-5 entry
/// assert_eq!(ledger.take_up_to(6.0), 1.0);       // ...which is now consumed
/// assert_eq!(ledger.total(), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlackLedger {
    entries: Vec<(f64, f64)>,
    /// Bumped on every mutation that changes the entries, so incremental
    /// consumers can key snapshots on it instead of comparing contents.
    revision: u64,
}

/// Equality compares the banked entries only — the
/// [`revision`](SlackLedger::revision) is a change counter, not state.
impl PartialEq for SlackLedger {
    fn eq(&self, other: &SlackLedger) -> bool {
        self.entries == other.entries
    }
}

impl SlackLedger {
    /// Creates an empty ledger.
    pub fn new() -> SlackLedger {
        SlackLedger::default()
    }

    /// Adds `amount` of slack tagged with `deadline`. Non-positive or
    /// negligible (≤ 1 ns) amounts are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` or `amount` is NaN.
    pub fn donate(&mut self, deadline: f64, amount: f64) {
        assert!(!deadline.is_nan() && !amount.is_nan(), "NaN in ledger");
        debug_assert!(
            amount.is_finite() && deadline.is_finite(),
            "non-finite ledger donation: {amount} tagged {deadline}"
        );
        if amount <= TIME_EPS {
            return;
        }
        self.revision += 1;
        match self
            .entries
            .binary_search_by(|&(tag, _)| tag.total_cmp(&deadline))
        {
            Ok(i) => self.entries[i].1 += amount,
            Err(i) => {
                // Merge with a neighbour whose tag is within tolerance to
                // keep the ledger compact under float jitter.
                if i > 0 && (self.entries[i - 1].0 - deadline).abs() <= TIME_EPS {
                    self.entries[i - 1].1 += amount;
                } else if i < self.entries.len() && (self.entries[i].0 - deadline).abs() <= TIME_EPS
                {
                    self.entries[i].1 += amount;
                } else {
                    self.entries.insert(i, (deadline, amount));
                }
            }
        }
    }

    /// Removes and returns all slack with tags at or before `deadline`.
    pub fn take_up_to(&mut self, deadline: f64) -> f64 {
        let before = self.entries.len();
        let mut taken = 0.0;
        self.entries.retain(|&(tag, amount)| {
            if tag <= deadline + TIME_EPS {
                taken += amount;
                false
            } else {
                true
            }
        });
        if self.entries.len() != before {
            self.revision += 1;
        }
        taken
    }

    /// Total slack with tags at or before `deadline`, without consuming it.
    pub fn available_up_to(&self, deadline: f64) -> f64 {
        self.entries
            .iter()
            .take_while(|&&(tag, _)| tag <= deadline + TIME_EPS)
            .map(|&(_, amount)| amount)
            .sum()
    }

    /// Drops entries whose tag is at or before `now` (their time has
    /// passed) and returns the expired total.
    pub fn expire(&mut self, now: f64) -> f64 {
        let before = self.entries.len();
        let mut expired = 0.0;
        self.entries.retain(|&(tag, amount)| {
            if tag <= now + TIME_EPS {
                expired += amount;
                false
            } else {
                true
            }
        });
        if self.entries.len() != before {
            self.revision += 1;
        }
        expired
    }

    /// Total banked slack.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|&(_, a)| a).sum()
    }

    /// Number of distinct tags.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.revision += 1;
        }
        self.entries.clear();
    }

    /// A counter bumped by every mutation that changed the entries
    /// ([`donate`](SlackLedger::donate) of a non-negligible amount,
    /// [`take_up_to`](SlackLedger::take_up_to)/[`expire`](SlackLedger::expire)
    /// that removed something, non-empty [`clear`](SlackLedger::clear)).
    /// Equal revisions on the same ledger ⇒ identical entries, so
    /// incremental consumers can reuse a snapshot without rescanning.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Iterates over `(tag, amount)` entries in tag order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn donate_take_roundtrip() {
        let mut l = SlackLedger::new();
        l.donate(10.0, 1.0);
        l.donate(5.0, 2.0);
        l.donate(7.0, 0.5);
        assert_eq!(l.len(), 3);
        assert!((l.total() - 3.5).abs() < 1e-12);
        assert!((l.available_up_to(7.0) - 2.5).abs() < 1e-12);
        assert!((l.take_up_to(7.0) - 2.5).abs() < 1e-12);
        assert!((l.total() - 1.0).abs() < 1e-12);
        assert_eq!(l.available_up_to(7.0), 0.0);
    }

    #[test]
    fn tags_merge_within_tolerance() {
        let mut l = SlackLedger::new();
        l.donate(5.0, 1.0);
        l.donate(5.0 + 1e-12, 1.0);
        assert_eq!(l.len(), 1);
        assert!((l.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negligible_donations_ignored() {
        let mut l = SlackLedger::new();
        l.donate(5.0, 0.0);
        l.donate(5.0, -1.0);
        l.donate(5.0, 1e-12);
        assert!(l.is_empty());
    }

    #[test]
    fn expiry_drops_past_tags() {
        let mut l = SlackLedger::new();
        l.donate(3.0, 1.0);
        l.donate(6.0, 2.0);
        let expired = l.expire(4.0);
        assert!((expired - 1.0).abs() < 1e-12);
        assert!((l.total() - 2.0).abs() < 1e-12);
        l.clear();
        assert!(l.is_empty());
    }

    #[test]
    fn entries_stay_sorted() {
        let mut l = SlackLedger::new();
        for &tag in &[9.0, 2.0, 7.0, 4.0, 11.0] {
            l.donate(tag, 1.0);
        }
        let tags: Vec<f64> = l.iter().map(|(t, _)| t).collect();
        let mut sorted = tags.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(tags, sorted);
    }

    #[test]
    fn revision_tracks_mutations_only() {
        let mut l = SlackLedger::new();
        let r0 = l.revision();
        l.donate(5.0, 1e-12); // negligible: ignored, no bump
        l.clear(); // already empty: no bump
        assert_eq!(l.take_up_to(10.0), 0.0); // nothing removed: no bump
        assert_eq!(l.expire(10.0), 0.0);
        assert_eq!(l.revision(), r0);
        l.donate(5.0, 1.0);
        assert!(l.revision() > r0);
        let r1 = l.revision();
        assert!((l.take_up_to(6.0) - 1.0).abs() < 1e-12);
        assert!(l.revision() > r1);
        // Equality ignores the revision counter.
        let mut a = SlackLedger::new();
        let mut b = SlackLedger::new();
        a.donate(3.0, 1.0);
        a.donate(4.0, 1.0);
        assert!((a.take_up_to(3.5) - 1.0).abs() < 1e-12);
        b.donate(4.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a.revision(), b.revision());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut l = SlackLedger::new();
        l.donate(f64::NAN, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use stadvs_sim::rng::check;

    /// The ledger conserves slack: donated = taken + expired + banked.
    #[test]
    fn conservation() {
        check("conservation", 256, |rng| {
            let mut ledger = SlackLedger::new();
            let mut donated = 0.0;
            let mut removed = 0.0;
            for _ in 0..rng.below(200) {
                match rng.below(3) {
                    0 => {
                        let tag = rng.range_f64(0.0, 100.0);
                        let amount = rng.range_f64(0.0, 10.0);
                        if amount > stadvs_sim::TIME_EPS {
                            donated += amount;
                        }
                        ledger.donate(tag, amount);
                    }
                    1 => removed += ledger.take_up_to(rng.range_f64(0.0, 100.0)),
                    _ => removed += ledger.expire(rng.range_f64(0.0, 100.0)),
                }
                // Invariants: sorted tags, positive amounts.
                let tags: Vec<f64> = ledger.iter().map(|(t, _)| t).collect();
                for w in tags.windows(2) {
                    assert!(w[0] < w[1]);
                }
                assert!(ledger.iter().all(|(_, a)| a > 0.0));
            }
            assert!((donated - removed - ledger.total()).abs() < 1e-6);
            Ok(())
        });
    }

    /// available_up_to never exceeds total and is monotone in deadline.
    #[test]
    fn availability_monotone() {
        check("availability_monotone", 256, |rng| {
            let mut ledger = SlackLedger::new();
            for _ in 0..1 + rng.below(49) {
                let tag = rng.range_f64(0.0, 50.0);
                let amount = rng.range_f64(0.001, 5.0);
                ledger.donate(tag, amount);
            }
            let d1 = rng.range_f64(0.0, 60.0);
            let d2 = rng.range_f64(0.0, 60.0);
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            assert!(ledger.available_up_to(lo) <= ledger.available_up_to(hi) + 1e-12);
            assert!(ledger.available_up_to(hi) <= ledger.total() + 1e-12);
            Ok(())
        });
    }
}
