//! What every workload provides to the measurement loop in `main`.

use crate::check::{Digest, Outcome, Tally};
use crate::span::{Ctx, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic counts, by per-layer metric name.
pub type Counts = Vec<(&'static str, u64)>;

/// The outputs of one measured pass.
pub struct PassOut {
    /// One entry per simulation, in reference order; `None` where the
    /// simulation panicked.
    pub outcomes: Vec<Option<Outcome>>,
    /// Counts the pass produced (identical on every pass).
    pub counts: Counts,
}

/// The reference replay of every simulation of a pass.
pub struct Reference {
    pub labels: Vec<String>,
    /// `None` where the replay itself panicked.
    pub outcomes: Vec<Option<Outcome>>,
    /// Counts taken while replaying (identical on every run at a seed).
    pub counts: Counts,
    /// Cross-checks made while replaying, beyond the pass comparisons.
    pub tally: Tally,
}

pub trait Workload: Sized + Sync {
    /// What a pass needs that must be new for every pass (the models
    /// themselves are built inside the pass).
    type Fresh;

    /// Builds the seeded inputs: traces, decoded streams, trained index
    /// functions. Timed as set-up.
    fn setup(seed: u64, tr: &Tracer, ctx: Ctx) -> Self;

    /// Digest of every input record.
    fn input_digest(&self) -> Digest;

    /// Input records generated.
    fn records(&self) -> u64;

    /// Records times the models stepped over them, per pass.
    fn lane_records(&self) -> u64;

    /// Replays every simulation through the per-record trait paths.
    fn reference(&self, tr: &Tracer, ctx: Ctx) -> Reference;

    /// Untimed preparation of one pass.
    fn fresh(&self) -> Self::Fresh;

    /// One measured pass over every simulation, from empty models.
    fn pass(&self, fresh: Self::Fresh, tr: &Tracer, ctx: Ctx) -> PassOut;

    /// Traced runs only: extra calls that attribute time to single
    /// layers. Returns the work counts those timings divide by.
    fn probe(&self, tr: &Tracer, ctx: Ctx) -> Counts;
}

/// Runs `f` over `items` on the repository's executor, one task per
/// item, inside an `exec.map` span. A task that panics yields `None`.
pub fn map_tasks<T: Sync, R: Send>(
    tr: &Tracer,
    ctx: Ctx,
    items: &[T],
    f: impl Fn(&T, Ctx) -> R + Sync,
) -> Vec<Option<R>> {
    let idx: Vec<usize> = (0..items.len()).collect();
    tr.record("exec.map", ctx, |c| {
        unicache_exec::map(&idx, |&i| {
            catch_unwind(AssertUnwindSafe(|| f(&items[i], c.task(i)))).ok()
        })
    })
}

/// Like [`map_tasks`] for set-up work, where a panic is fatal.
pub fn map_setup<T: Sync, R: Send>(
    tr: &Tracer,
    ctx: Ctx,
    items: &[T],
    f: impl Fn(&T, Ctx) -> R + Sync,
) -> Vec<R> {
    map_tasks(tr, ctx, items, f)
        .into_iter()
        .map(|r| r.expect("set-up task panicked"))
        .collect()
}

/// Flattens per-task outcome lists; a panicked task of `sizes[i]`
/// simulations yields that many `None`s.
pub fn flatten(results: Vec<Option<Vec<Outcome>>>, sizes: &[usize]) -> Vec<Option<Outcome>> {
    results
        .into_iter()
        .zip(sizes)
        .flat_map(|(r, &n)| match r {
            Some(v) => v.into_iter().map(Some).collect::<Vec<_>>(),
            None => vec![None; n],
        })
        .collect()
}
