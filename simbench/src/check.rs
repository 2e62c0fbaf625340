//! Result checking: every simulation's deterministic outputs are compared
//! with a reference replay through the per-record trait paths, and
//! digested so two runs can be compared byte for byte.

use std::fmt::Write as _;
use std::hash::Hasher;
use unicache_core::hasher::DetHasher;
use unicache_core::{CacheStats, CoherentModel, HitWhere};
use unicache_hierarchy::{CoherenceStats, CoherentHierarchy};
use unicache_stats::{LifetimeTotals, RecencyLens};

/// The deterministic outputs of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A single cache model.
    Cache(CacheStats),
    /// A coherent hierarchy, as the simulation store reports it (cores
    /// merged).
    Coherent {
        merged: CacheStats,
        coh: CoherenceStats,
        lifetime: LifetimeTotals,
        recency: RecencyLens,
    },
    /// A coherent hierarchy read directly: every core and the shared L2.
    Hierarchy {
        per_core: Vec<CacheStats>,
        l2: Option<CacheStats>,
        coh: CoherenceStats,
        lifetime: LifetimeTotals,
        recency: RecencyLens,
    },
    /// The two-level timing hierarchy: both levels and the AMAT cycles.
    Timed {
        l1: CacheStats,
        l2: CacheStats,
        cycles: f64,
    },
}

impl Outcome {
    pub fn of_hierarchy(h: &CoherentHierarchy) -> Outcome {
        Outcome::Hierarchy {
            per_core: (0..h.cores()).map(|c| h.core_stats(c).clone()).collect(),
            l2: h.shared_l2_stats().cloned(),
            coh: *h.coherence_stats(),
            lifetime: h.merged_lifetime(),
            recency: h.merged_recency(),
        }
    }

    /// The store's view of a hierarchy outcome (cores merged, no L2).
    pub fn merged_view(&self) -> Outcome {
        match self {
            Outcome::Hierarchy {
                per_core,
                coh,
                lifetime,
                recency,
                ..
            } => {
                let mut merged = CacheStats::new(per_core[0].num_sets());
                for s in per_core {
                    merged.merge(s);
                }
                Outcome::Coherent {
                    merged,
                    coh: *coh,
                    lifetime: *lifetime,
                    recency: recency.clone(),
                }
            }
            other => other.clone(),
        }
    }

    /// A copy with exactly one statistic changed — what the checker must
    /// catch.
    pub fn corrupted(&self) -> Outcome {
        let mut bad = self.clone();
        match &mut bad {
            Outcome::Cache(s) | Outcome::Coherent { merged: s, .. } => {
                s.record(0, HitWhere::MissDirect)
            }
            Outcome::Hierarchy { coh, .. } => coh.invalidations += 1,
            Outcome::Timed { cycles, .. } => *cycles += 1.0,
        }
        bad
    }
}

/// Simulations attempted and failed, with the first failure kept for
/// the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one simulation; it fails unless `got` equals `want`.
    pub fn compare(&mut self, label: &str, got: &Outcome, want: &Outcome) {
        if got == want {
            self.attempted += 1;
        } else {
            self.fail(label, 1);
        }
    }

    /// Counts `sims` simulations that failed (mismatched or panicked).
    pub fn fail(&mut self, label: &str, sims: u64) {
        self.attempted += sims;
        self.failed += sims;
        if self.first_failure.is_none() {
            self.first_failure = Some(label.to_string());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Proves on a real outcome that the checker counts one corrupted
/// statistic as a failure and an intact one as a pass.
pub fn self_test(sample: &Outcome) -> bool {
    let mut t = Tally::default();
    t.compare("intact", sample, sample);
    t.compare("corrupted", &sample.corrupted(), sample);
    t.attempted == 2 && t.failed == 1 && t.first_failure.as_deref() == Some("corrupted")
}

/// The repository's deterministic FNV-1a hash over everything written to
/// it.
#[derive(Default)]
pub struct Digest(DetHasher);

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// Hashes the `Debug` rendering, which prints every field (floats
    /// with all their digits) in declaration order.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        let _ = write!(self, "{v:?}");
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::CacheGeometry;

    fn sample() -> Outcome {
        let mut s = CacheStats::new(CacheGeometry::paper_l1().num_sets());
        s.record(3, HitWhere::Primary);
        s.record(7, HitWhere::MissAfterProbe);
        Outcome::Cache(s)
    }

    #[test]
    fn one_corrupted_statistic_counts_as_a_failure() {
        assert!(self_test(&sample()));
        let timed = Outcome::Timed {
            l1: CacheStats::new(4),
            l2: CacheStats::new(4),
            cycles: 12.5,
        };
        assert!(self_test(&timed));
        let mut t = Tally::default();
        t.compare("a", &sample(), &sample());
        t.compare("b", &sample().corrupted(), &sample());
        t.fail("c (panicked)", 2);
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(t.first_failure.as_deref(), Some("b"));
    }

    #[test]
    fn digest_separates_outcomes_that_differ_in_one_statistic() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.debug(&sample());
        b.debug(&sample().corrupted());
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.debug(&sample());
        assert_eq!(a.hex(), c.hex());
    }
}
