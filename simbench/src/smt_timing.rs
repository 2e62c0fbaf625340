//! `smt-timing`: the per-record engines that bypass the simulation store.
//!
//! Figures 13 and 14 drive the SMT caches (`PerThreadIndexCache`,
//! `PartitionedCache`, `AdaptivePartitionedCache`) record by record over
//! seeded stochastic interleavings of their mixes, and the
//! `hierarchy_cycles` table drives the two-level `timing::Hierarchy`
//! over every MiBench trace. Every trace is relocated by a seeded
//! line-aligned offset first.

use crate::bench::{flatten, map_setup, map_tasks, Counts, PassOut, Reference, Workload};
use crate::check::{Digest, Outcome, Tally};
use crate::inputs::{digest_trace, generate, probe_index_many, relocate, sub_seed};
use crate::span::{Ctx, Tracer};
use std::sync::Arc;
use unicache_assoc::{AdaptiveGroupCache, BCache, ColumnAssociativeCache};
use unicache_core::{run_many, BlockAddr, CacheGeometry, CacheModel, IndexFunction, MemRecord};
use unicache_experiments::figures::smt::{fig13_mixes, fig14_mixes};
use unicache_indexing::{ModuloIndex, OddMultiplierIndex, RECOMMENDED_MULTIPLIERS};
use unicache_sim::CacheBuilder;
use unicache_smt::{
    interleave_refs, AdaptivePartitionedCache, InterleavePolicy, PartitionedCache,
    PerThreadIndexCache,
};
use unicache_timing::{Hierarchy, LatencyModel};
use unicache_trace::Trace;
use unicache_workloads::Workload as Program;

#[derive(Clone, Copy)]
enum Kind {
    /// Fig. 13: shared L1, conventional vs per-thread odd-multiplier index.
    PerThreadIndex,
    /// Fig. 14: static vs adaptive partitioning.
    Partitioned,
}

struct Mix {
    kind: Kind,
    threads: usize,
    merged: Trace,
}

fn paper() -> CacheGeometry {
    CacheGeometry::paper_l1()
}

impl Mix {
    /// Fresh, empty models of this mix's figure.
    fn models(&self) -> Vec<Box<dyn CacheModel>> {
        let sets = paper().num_sets();
        match self.kind {
            Kind::PerThreadIndex => {
                let conventional = (0..self.threads)
                    .map(|_| {
                        Arc::new(ModuloIndex::new(sets).expect("pow2")) as Arc<dyn IndexFunction>
                    })
                    .collect();
                let per_thread = (0..self.threads)
                    .map(|t| {
                        let m = RECOMMENDED_MULTIPLIERS[t % RECOMMENDED_MULTIPLIERS.len()];
                        Arc::new(OddMultiplierIndex::new(sets, m).expect("odd"))
                            as Arc<dyn IndexFunction>
                    })
                    .collect();
                vec![
                    Box::new(PerThreadIndexCache::new(paper(), conventional).expect("valid")),
                    Box::new(PerThreadIndexCache::new(paper(), per_thread).expect("valid")),
                ]
            }
            Kind::Partitioned => vec![
                Box::new(PartitionedCache::new(paper(), self.threads).expect("divisible")),
                Box::new(AdaptivePartitionedCache::new(paper(), self.threads).expect("divisible")),
            ],
        }
    }
}

/// The four L1s of `hierarchy_cycles`, each in the paper's two-level
/// hierarchy with its secondary-hit cost.
fn hierarchies() -> Vec<Hierarchy> {
    let lat = LatencyModel::default();
    let g = paper();
    vec![
        Hierarchy::paper(
            Box::new(CacheBuilder::new(g).build().expect("cache")),
            lat.rehash_hit,
            lat,
        ),
        Hierarchy::paper(
            Box::new(AdaptiveGroupCache::new(g).expect("valid")),
            lat.out_hit,
            lat,
        ),
        Hierarchy::paper(
            Box::new(BCache::new(g).expect("valid")),
            lat.rehash_hit,
            lat,
        ),
        Hierarchy::paper(
            Box::new(ColumnAssociativeCache::new(g).expect("valid")),
            lat.rehash_hit,
            lat,
        ),
    ]
}

const HIERARCHY_MODELS: usize = 4;
const MIX_MODELS: usize = 2;

fn timed(h: &Hierarchy, cycles: f64) -> Outcome {
    Outcome::Timed {
        l1: h.l1d().stats().clone(),
        l2: h.l2().stats().clone(),
        cycles,
    }
}

/// One executor task: a mix, or one trace through the timing hierarchies.
enum Task {
    Mix(usize),
    Timing(usize),
}

pub struct SmtTiming {
    mixes: Vec<Mix>,
    /// The relocated MiBench traces for the timing hierarchy.
    singles: Vec<(Program, Trace)>,
    tasks: Vec<Task>,
}

impl SmtTiming {
    fn task_size(&self, t: &Task) -> usize {
        match t {
            Task::Mix(_) => MIX_MODELS,
            Task::Timing(_) => HIERARCHY_MODELS,
        }
    }

    fn records_of(&self, t: &Task) -> &[MemRecord] {
        match *t {
            Task::Mix(i) => self.mixes[i].merged.records(),
            Task::Timing(i) => self.singles[i].1.records(),
        }
    }
}

impl Workload for SmtTiming {
    type Fresh = ();

    fn setup(seed: u64, tr: &Tracer, ctx: Ctx) -> Self {
        let mix_specs: Vec<(Kind, Vec<Program>)> = fig13_mixes()
            .into_iter()
            .map(|m| (Kind::PerThreadIndex, m))
            .chain(fig14_mixes().into_iter().map(|m| (Kind::Partitioned, m)))
            .collect();
        let mut programs: Vec<Program> = mix_specs.iter().flat_map(|(_, m)| m.clone()).collect();
        programs.extend(Program::mibench());
        programs.sort_by_key(|&p| p as u64);
        programs.dedup();
        let traces = map_setup(tr, ctx, &programs, |&p, c| {
            relocate(&generate(p, tr, c), sub_seed(seed, p as u64))
        });
        let trace_of = |p: Program| &traces[programs.iter().position(|&q| q == p).expect("known")];
        let mixes = map_setup(tr, ctx, &mix_specs, |(kind, mix), c| {
            let refs: Vec<&Trace> = mix.iter().map(|&p| trace_of(p)).collect();
            let policy = InterleavePolicy::Stochastic {
                seed: sub_seed(seed, 0x5417 + c.task as u64),
            };
            Mix {
                kind: *kind,
                threads: mix.len(),
                merged: tr.record("smt.interleave", c, |_| interleave_refs(&refs, policy)),
            }
        });
        let singles: Vec<(Program, Trace)> = Program::mibench()
            .into_iter()
            .map(|p| (p, trace_of(p).clone()))
            .collect();
        let tasks = (0..mixes.len())
            .map(Task::Mix)
            .chain((0..singles.len()).map(Task::Timing))
            .collect();
        SmtTiming {
            mixes,
            singles,
            tasks,
        }
    }

    fn input_digest(&self) -> Digest {
        let mut d = Digest::default();
        for m in &self.mixes {
            digest_trace(&mut d, &m.merged);
        }
        for (_, t) in &self.singles {
            digest_trace(&mut d, t);
        }
        d
    }

    fn records(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| self.records_of(t).len() as u64)
            .sum()
    }

    fn lane_records(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| (self.records_of(t).len() * self.task_size(t)) as u64)
            .sum()
    }

    /// Each SMT model alone through `CacheModel::run`, and each timing
    /// hierarchy record by record through `Hierarchy::access`, summing
    /// the cycles each access reports.
    fn reference(&self, tr: &Tracer, ctx: Ctx) -> Reference {
        let results = map_tasks(tr, ctx, &self.tasks, |t, _| {
            let records = self.records_of(t);
            match *t {
                Task::Mix(i) => self.mixes[i]
                    .models()
                    .into_iter()
                    .map(|mut m| {
                        m.run(records);
                        Outcome::Cache(m.stats().clone())
                    })
                    .collect::<Vec<_>>(),
                Task::Timing(_) => hierarchies()
                    .into_iter()
                    .map(|mut h| {
                        let cycles = records.iter().map(|&r| h.access(r)).sum();
                        timed(&h, cycles)
                    })
                    .collect(),
            }
        });
        let sizes: Vec<usize> = self.tasks.iter().map(|t| self.task_size(t)).collect();
        let labels = self
            .tasks
            .iter()
            .flat_map(|t| {
                let n = self.task_size(t);
                let name = match *t {
                    Task::Mix(i) => format!("mix {i}"),
                    Task::Timing(i) => format!("hierarchy {}", self.singles[i].0.name()),
                };
                (0..n).map(move |m| format!("{name} model {m}"))
            })
            .collect();
        Reference {
            labels,
            outcomes: flatten(results, &sizes),
            counts: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn fresh(&self) {}

    fn pass(&self, _: (), tr: &Tracer, ctx: Ctx) -> PassOut {
        let results = map_tasks(tr, ctx, &self.tasks, |t, c| {
            let records = self.records_of(t);
            match *t {
                Task::Mix(i) => {
                    let mut models = self.mixes[i].models();
                    let mut refs: Vec<&mut dyn CacheModel> = models
                        .iter_mut()
                        .map(|m| m.as_mut() as &mut dyn CacheModel)
                        .collect();
                    tr.record("smt.run_many", c, |_| run_many(&mut refs, records));
                    models
                        .iter()
                        .map(|m| Outcome::Cache(m.stats().clone()))
                        .collect::<Vec<_>>()
                }
                Task::Timing(_) => hierarchies()
                    .into_iter()
                    .map(|mut h| {
                        tr.record("timing.hierarchy_run", c, |_| h.run(records));
                        timed(&h, h.cycles())
                    })
                    .collect(),
            }
        });
        let sizes: Vec<usize> = self.tasks.iter().map(|t| self.task_size(t)).collect();
        let (mut smt, mut timing) = (0, 0);
        for t in &self.tasks {
            let n = (self.records_of(t).len() * self.task_size(t)) as u64;
            match t {
                Task::Mix(_) => smt += n,
                Task::Timing(_) => timing += n,
            }
        }
        PassOut {
            outcomes: flatten(results, &sizes),
            counts: vec![("smt.lane_records", smt), ("timing.lane_records", timing)],
        }
    }

    fn probe(&self, tr: &Tracer, ctx: Ctx) -> Counts {
        let sets = paper().num_sets();
        let mut fns: Vec<Arc<dyn IndexFunction>> =
            vec![Arc::new(ModuloIndex::new(sets).expect("pow2"))];
        for m in RECOMMENDED_MULTIPLIERS {
            fns.push(Arc::new(OddMultiplierIndex::new(sets, m).expect("odd")));
        }
        let bits = paper().offset_bits();
        let mut n = 0;
        for m in &self.mixes {
            let blocks: Vec<BlockAddr> = m.merged.iter().map(|r| r.addr >> bits).collect();
            n += probe_index_many(&fns, &blocks, tr, ctx);
        }
        vec![("indexing.index_many_records", n)]
    }
}
