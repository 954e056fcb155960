//! Epoch and charging-scheme accounting (§3.1, §5).
//!
//! The analysis hinges on quantities that are *measurable*: each match is an
//! *epoch* whose price is its creation-time sample size; user deletions pay
//! the payment Φ of §3.1 (1 for an early unmatched delete, the remaining
//! price for a matched delete, 0 for a late delete); per settle round the
//! added sample size must dominate the deleted sample size (Lemma 5.6); and
//! over an empty-to-empty run natural epochs must carry a constant fraction
//! of induced sample mass (Lemma 5.7). The experiments E6/E7 read these
//! counters to verify each lemma against its claimed constant.

/// Why an epoch ended (the paper's natural vs. induced deletions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochEnd {
    /// Deleted by the user in `deleteEdges`.
    Natural,
    /// Deleted by the algorithm: the match was incident on a newly settled
    /// match ("stolen").
    Stolen,
    /// Deleted by the algorithm: the match collected too many cross edges
    /// after rising ("bloated").
    Bloated,
}

/// Aggregated run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchingStats {
    /// Epochs created, total.
    pub epochs_created: u64,
    /// Total creation-time sample mass of all epochs (`Σ |S_e|`).
    pub sample_mass_created: u64,
    /// Epochs ended naturally / sample mass they carried.
    pub natural_epochs: u64,
    /// Total creation-time sample mass of naturally deleted epochs.
    pub natural_sample_mass: u64,
    /// Epochs ended by stealing / their sample mass.
    pub stolen_epochs: u64,
    /// Total creation-time sample mass of stolen epochs.
    pub stolen_sample_mass: u64,
    /// Epochs ended bloated / their sample mass.
    pub bloated_epochs: u64,
    /// Total creation-time sample mass of bloated epochs.
    pub bloated_sample_mass: u64,
    /// Total payment Φ over all user deletions (§3.1 charging scheme).
    pub total_payment: u64,
    /// Number of user edge deletions.
    pub user_deletions: u64,
    /// Number of user edge insertions.
    pub user_insertions: u64,
    /// Settle rounds executed across all batches.
    pub settle_rounds: u64,
    /// Running minimum of the per-round `S_a / S_d` over settle rounds
    /// with nonzero deleted sample size, for Lemma 5.6 (`S_a ≥ 2·S_d`);
    /// `None` until such a round runs. O(1) however long the run.
    pub min_round_ratio: Option<f64>,
    /// Batches processed.
    pub batches: u64,
}

impl MatchingStats {
    /// Record an epoch creation with sample size `s`.
    pub fn epoch_created(&mut self, s: usize) {
        self.epochs_created += 1;
        self.sample_mass_created += s as u64;
    }

    /// Record an epoch ending.
    pub fn epoch_ended(&mut self, end: EpochEnd, initial_sample: usize) {
        let s = initial_sample as u64;
        match end {
            EpochEnd::Natural => {
                self.natural_epochs += 1;
                self.natural_sample_mass += s;
            }
            EpochEnd::Stolen => {
                self.stolen_epochs += 1;
                self.stolen_sample_mass += s;
            }
            EpochEnd::Bloated => {
                self.bloated_epochs += 1;
                self.bloated_sample_mass += s;
            }
        }
    }

    /// Induced (stolen + bloated) epoch count.
    pub fn induced_epochs(&self) -> u64 {
        self.stolen_epochs + self.bloated_epochs
    }

    /// Induced sample mass (`S_i` of Lemma 5.7).
    pub fn induced_sample_mass(&self) -> u64 {
        self.stolen_sample_mass + self.bloated_sample_mass
    }

    /// Mean payment per user deletion (Lemma 3.3/5.8 bound this by 2 in
    /// expectation).
    pub fn mean_payment(&self) -> f64 {
        if self.user_deletions == 0 {
            0.0
        } else {
            self.total_payment as f64 / self.user_deletions as f64
        }
    }

    /// Ratio `S_n / S_i` (Lemma 5.7 proves > 1/3 for empty-to-empty runs).
    pub fn natural_to_induced_ratio(&self) -> f64 {
        if self.induced_sample_mass() == 0 {
            f64::INFINITY
        } else {
            self.natural_sample_mass as f64 / self.induced_sample_mass() as f64
        }
    }

    /// Record one settle round's added and deleted sample sizes.
    pub fn settle_round(&mut self, added: u64, deleted: u64) {
        if deleted > 0 {
            let ratio = added as f64 / deleted as f64;
            self.min_round_ratio = Some(self.min_round_ratio.map_or(ratio, |m| m.min(ratio)));
        }
    }

    /// Minimum per-round `S_a / S_d` over rounds with nonzero deletions
    /// (Lemma 5.6 proves ≥ 2); infinite when no such round ran.
    pub fn min_round_sample_ratio(&self) -> f64 {
        self.min_round_ratio.unwrap_or(f64::INFINITY)
    }

    /// Total user updates.
    pub fn total_updates(&self) -> u64 {
        self.user_deletions + self.user_insertions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bookkeeping() {
        let mut s = MatchingStats::default();
        s.epoch_created(4);
        s.epoch_created(8);
        s.epoch_ended(EpochEnd::Natural, 4);
        s.epoch_ended(EpochEnd::Stolen, 8);
        assert_eq!(s.epochs_created, 2);
        assert_eq!(s.sample_mass_created, 12);
        assert_eq!(s.natural_sample_mass, 4);
        assert_eq!(s.induced_epochs(), 1);
        assert_eq!(s.induced_sample_mass(), 8);
        assert!((s.natural_to_induced_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn payment_mean() {
        let s = MatchingStats {
            user_deletions: 4,
            total_payment: 6,
            ..Default::default()
        };
        assert!((s.mean_payment() - 1.5).abs() < 1e-12);
        let empty = MatchingStats::default();
        assert_eq!(empty.mean_payment(), 0.0);
    }

    #[test]
    fn round_ratio_min() {
        let mut s = MatchingStats::default();
        for (added, deleted) in [(10, 2), (8, 4), (5, 0)] {
            s.settle_round(added, deleted);
        }
        assert!((s.min_round_sample_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_with_no_induced_is_infinite() {
        let s = MatchingStats {
            natural_sample_mass: 5,
            ..Default::default()
        };
        assert!(s.natural_to_induced_ratio().is_infinite());
    }
}
