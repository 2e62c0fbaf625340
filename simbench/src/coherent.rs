//! The two coherent-hierarchy workloads.
//!
//! `coherent-private` is the `xp coherent` sweep: multiprogrammed mixes
//! merged by the simulation store with a seeded stochastic interleave,
//! simulated as `CoherentGroup`s. The programs share no data (they do
//! share one virtual layout, so some lines collide by address), and most
//! commits take the private-line fast path.
//!
//! `coherent-shared` drives `HierarchyBuilder` and `run_coherent_fused`
//! directly with seeded synthetic threads that load and store one shared
//! region, so the serial MESI walk, snoops, victim buffers and
//! invalidations do most of the work.

use crate::bench::{flatten, map_setup, map_tasks, Counts, PassOut, Reference, Workload};
use crate::check::{Digest, Outcome, Tally};
use crate::inputs::{digest_trace, probe_index_many, sub_seed, SCALE};
use crate::span::{Ctx, Tracer};
use std::sync::Arc;
use unicache_core::{BlockAddr, CacheGeometry, CoherentModel, IndexFunction, MemRecord};
use unicache_experiments::{CoherentGroup, SimStore, TraceStore};
use unicache_hierarchy::{run_coherent_fused, CoherentHierarchy, HierarchyBuilder, L2Mode};
use unicache_indexing::IndexScheme;
use unicache_smt::{interleave_refs, InterleavePolicy};
use unicache_trace::{synth, Trace};
use unicache_workloads::Workload as Program;

/// The schemes `xp coherent` compares.
const SCHEMES: [IndexScheme; 3] = [
    IndexScheme::Conventional,
    IndexScheme::Xor,
    IndexScheme::PrimeModulo,
];
const VICTIM_DEPTHS: [usize; 2] = [0, 4];

/// `xp coherent`'s per-core L1: 8 KB, 2-way, 32 B lines.
fn l1_geom() -> CacheGeometry {
    CacheGeometry::from_sets(128, 32, 2).expect("valid L1 geometry")
}

/// `xp coherent`'s shared inclusive L2: 8x the L1's sets, 4-way.
fn l2_geom() -> CacheGeometry {
    let l1 = l1_geom();
    CacheGeometry::from_sets(l1.num_sets() * 8, l1.line_bytes(), 4).expect("valid L2 geometry")
}

fn build(scheme: IndexScheme, cores: usize, depth: usize, chunked: bool) -> CoherentHierarchy {
    let index = scheme
        .build(l1_geom(), None)
        .expect("coherent schemes are training-free");
    HierarchyBuilder::new(l1_geom(), index)
        .cores(cores)
        .victim_depth(depth)
        .l2(L2Mode::Shared(l2_geom()))
        .chunked(chunked)
        .build()
        .expect("valid hierarchy")
}

/// Per-record replay of one hierarchy through `CoherentModel::access`.
fn replay(scheme: IndexScheme, cores: usize, depth: usize, records: &[MemRecord]) -> Outcome {
    let mut h = build(scheme, cores, depth, false);
    h.run(records);
    Outcome::of_hierarchy(&h)
}

/// Bus and fast-path counters summed over `hiers`.
#[derive(Default)]
struct HierCounts {
    fast: u64,
    serial: u64,
    bus: u64,
    invalidations: u64,
    victim_hits: u64,
    lane_records: u64,
}

impl HierCounts {
    fn add(&mut self, h: &CoherentHierarchy, records: usize) {
        let coh = h.coherence_stats();
        self.fast += h.fast_path_commits();
        self.serial += h.serial_path_commits();
        self.bus += coh.bus_transactions();
        self.invalidations += coh.invalidations;
        self.victim_hits += coh.victim_hits;
        self.lane_records += records as u64;
    }

    fn merge(&mut self, o: HierCounts) {
        self.fast += o.fast;
        self.serial += o.serial;
        self.bus += o.bus;
        self.invalidations += o.invalidations;
        self.victim_hits += o.victim_hits;
        self.lane_records += o.lane_records;
    }

    fn counts(&self) -> Counts {
        vec![
            ("hierarchy.fast_commits", self.fast),
            ("hierarchy.serial_commits", self.serial),
            ("hierarchy.bus_transactions", self.bus),
            ("hierarchy.invalidations", self.invalidations),
            ("hierarchy.victim_hits", self.victim_hits),
            ("hierarchy.lane_records", self.lane_records),
        ]
    }
}

/// Block addresses of `records` at the L1 line size, for the
/// `index_many` probe.
fn blocks_of(records: &[MemRecord]) -> Vec<BlockAddr> {
    let bits = l1_geom().offset_bits();
    records.iter().map(|r| r.addr >> bits).collect()
}

fn probe_schemes(blocks: &[BlockAddr], tr: &Tracer, ctx: Ctx) -> u64 {
    let fns: Vec<Arc<dyn IndexFunction>> = SCHEMES
        .iter()
        .map(|s| s.build(l1_geom(), None).expect("training-free scheme"))
        .collect();
    probe_index_many(&fns, blocks, tr, ctx)
}

// ---------------------------------------------------------------- private

/// The four-thread mixes of Fig. 13; the first is `xp coherent`'s.
fn private_mixes() -> Vec<Vec<Program>> {
    use Program::*;
    vec![
        vec![Fft, Basicmath, Patricia, Susan],
        vec![Susan, Bitcount, Adpcm, Patricia],
    ]
}

pub struct CoherentPrivate {
    traces: Arc<TraceStore>,
    groups: Vec<CoherentGroup>,
    /// The merged stream of each mix, in `private_mixes` order.
    merged: Vec<Arc<Trace>>,
}

impl CoherentPrivate {
    fn merged_of(&self, g: &CoherentGroup) -> &Trace {
        let i = private_mixes()
            .iter()
            .position(|m| *m == g.mix)
            .expect("group of a known mix");
        &self.merged[i]
    }
}

impl Workload for CoherentPrivate {
    type Fresh = SimStore;

    fn setup(seed: u64, tr: &Tracer, ctx: Ctx) -> Self {
        let mixes = private_mixes();
        let traces = Arc::new(TraceStore::new(SCALE));
        let mut programs: Vec<Program> = mixes.iter().flatten().copied().collect();
        programs.sort_by_key(|&p| p as u64);
        programs.dedup();
        tr.record("workloads.generate", ctx, |_| traces.prefetch(&programs));
        let store = SimStore::with_traces(Arc::clone(&traces));
        let policies: Vec<InterleavePolicy> = (0..mixes.len())
            .map(|i| InterleavePolicy::Stochastic {
                seed: sub_seed(seed, i as u64),
            })
            .collect();
        let merged = mixes
            .iter()
            .zip(&policies)
            .map(|(mix, &policy)| {
                tr.record("smt.interleave", ctx, |_| store.merged_trace(mix, policy))
            })
            .collect();
        let mut groups = Vec::new();
        for (mix, &policy) in mixes.iter().zip(&policies) {
            for cores in [1, 2, 4] {
                for victim_depth in VICTIM_DEPTHS {
                    groups.push(CoherentGroup {
                        mix: mix.clone(),
                        policy,
                        geom: l1_geom(),
                        cores,
                        victim_depth,
                        l2: Some(l2_geom()),
                        schemes: SCHEMES.to_vec(),
                    });
                }
            }
        }
        CoherentPrivate {
            traces,
            groups,
            merged,
        }
    }

    fn input_digest(&self) -> Digest {
        let mut d = Digest::default();
        for t in &self.merged {
            digest_trace(&mut d, t);
        }
        d
    }

    fn records(&self) -> u64 {
        self.merged.iter().map(|t| t.len() as u64).sum()
    }

    fn lane_records(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| (self.merged_of(g).len() * g.schemes.len()) as u64)
            .sum()
    }

    /// Replays every member per record, and also runs it through the
    /// chunked kernel directly (outside the store) to read the fast-path
    /// and bus counters the store does not report.
    fn reference(&self, tr: &Tracer, ctx: Ctx) -> Reference {
        let results = map_tasks(tr, ctx, &self.groups, |g, c| {
            let records = self.merged_of(g).records();
            let mut tally = Tally::default();
            let mut counts = HierCounts::default();
            let mut outcomes = Vec::new();
            for &s in &g.schemes {
                let want = replay(s, g.cores, g.victim_depth, records);
                let mut h = build(s, g.cores, g.victim_depth, true);
                tr.record("hierarchy.run_coherent_fused", c, |_| {
                    run_coherent_fused(&mut [&mut h], records)
                });
                counts.add(&h, records.len());
                tally.compare(
                    &format!("direct chunked {s:?} {}c v{}", g.cores, g.victim_depth),
                    &Outcome::of_hierarchy(&h),
                    &want,
                );
                outcomes.push(want.merged_view());
            }
            (outcomes, counts, tally)
        });
        let mut tally = Tally::default();
        let mut counts = HierCounts::default();
        let mut per_group = Vec::new();
        for r in results {
            match r {
                Some((o, c, t)) => {
                    counts.merge(c);
                    tally.merge(t);
                    per_group.push(Some(o));
                }
                None => {
                    tally.fail("reference replay panicked", SCHEMES.len() as u64);
                    per_group.push(None);
                }
            }
        }
        let sizes: Vec<usize> = self.groups.iter().map(|g| g.schemes.len()).collect();
        Reference {
            labels: group_labels(&self.groups),
            outcomes: flatten(per_group, &sizes),
            counts: counts.counts(),
            tally,
        }
    }

    /// A store with empty result caches whose merged streams are already
    /// built (interleaving is set-up work).
    fn fresh(&self) -> SimStore {
        let store = SimStore::with_traces(Arc::clone(&self.traces));
        for g in &self.groups {
            store.merged_trace(&g.mix, g.policy);
        }
        store
    }

    fn pass(&self, store: SimStore, tr: &Tracer, ctx: Ctx) -> PassOut {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.record("experiments.prefetch_coherent_groups", ctx, |_| {
                store.prefetch_coherent_groups(&self.groups)
            });
            tr.record("experiments.coherent", ctx, |_| {
                self.groups
                    .iter()
                    .flat_map(|g| g.schemes.iter().map(|&s| g.key_for(s)))
                    .map(|key| {
                        let out = store.coherent(&key);
                        Some(Outcome::Coherent {
                            merged: out.merged.clone(),
                            coh: out.coh,
                            lifetime: out.lifetime,
                            recency: out.recency.clone(),
                        })
                    })
                    .collect::<Vec<_>>()
            })
        }));
        let sims: usize = self.groups.iter().map(|g| g.schemes.len()).sum();
        PassOut {
            outcomes: run.unwrap_or_else(|_| vec![None; sims]),
            counts: vec![
                ("experiments.sims_run", store.sims_run()),
                ("experiments.store_hits", store.hits()),
                ("experiments.streams_decoded", store.streams_decoded()),
            ],
        }
    }

    fn probe(&self, tr: &Tracer, ctx: Ctx) -> Counts {
        let mut n = 0;
        for t in &self.merged {
            n += probe_schemes(&blocks_of(t.records()), tr, ctx);
        }
        vec![("indexing.index_many_records", n)]
    }
}

fn group_labels(groups: &[CoherentGroup]) -> Vec<String> {
    groups
        .iter()
        .flat_map(|g| {
            g.schemes.iter().map(move |s| {
                format!(
                    "{s:?} {}c v{} ({} threads)",
                    g.cores,
                    g.victim_depth,
                    g.mix.len()
                )
            })
        })
        .collect()
}

// ----------------------------------------------------------------- shared

/// Records each synthetic thread issues.
const THREAD_RECORDS: usize = 40_000;
/// Base of the region every thread shares.
const SHARED_BASE: u64 = 0x4000_0000;
/// Uniform threads spread over 32 KB (4x one L1).
const UNIFORM_SPAN: u64 = 32 * 1024;
/// Hot-spot threads: 80% of references to a 4 KB hot region, the rest
/// over 60 KB.
const HOT_BYTES: u64 = 4 * 1024;
const COLD_BYTES: u64 = 60 * 1024;
const HOT_FRAC: f64 = 0.8;

#[derive(Clone, Copy, Debug)]
enum Pattern {
    Uniform,
    Hotspot,
}

/// (cores, pattern, store fraction): both core counts and patterns, and
/// store fractions from 5% to 30%, fixed so every seed does the same
/// kind of work.
const SHARED_CONFIGS: [(usize, Pattern, f64); 4] = [
    (2, Pattern::Uniform, 0.05),
    (2, Pattern::Hotspot, 0.30),
    (4, Pattern::Uniform, 0.30),
    (4, Pattern::Hotspot, 0.15),
];

/// One synthetic thread: its records over the shared region.
fn thread_trace(seed: u64, pattern: Pattern, stores: f64, tr: &Tracer, ctx: Ctx) -> Trace {
    tr.record("trace.synth", ctx, |_| match pattern {
        Pattern::Uniform => {
            synth::uniform_rw(seed, THREAD_RECORDS, SHARED_BASE, UNIFORM_SPAN, stores)
        }
        Pattern::Hotspot => {
            // `hotspot` issues loads only; turn a seeded share into stores.
            let loads = synth::hotspot(
                seed,
                THREAD_RECORDS,
                SHARED_BASE,
                HOT_BYTES,
                COLD_BYTES,
                HOT_FRAC,
            );
            let cut = (stores * u64::MAX as f64) as u64;
            Trace::from_records(
                loads
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        if sub_seed(seed, i as u64) < cut {
                            MemRecord::write(r.addr)
                        } else {
                            *r
                        }
                    })
                    .collect(),
            )
        }
    })
}

struct SharedGroup {
    config: usize,
    cores: usize,
    depth: usize,
}

pub struct CoherentShared {
    merged: Vec<Trace>,
    groups: Vec<SharedGroup>,
}

impl Workload for CoherentShared {
    type Fresh = ();

    fn setup(seed: u64, tr: &Tracer, ctx: Ctx) -> Self {
        let merged = map_setup(tr, ctx, &SHARED_CONFIGS, |&(cores, pattern, stores), c| {
            let threads: Vec<Trace> = (0..cores)
                .map(|t| {
                    let s = sub_seed(seed, (cores * 16 + t) as u64 ^ (pattern as u64) << 32);
                    thread_trace(s, pattern, stores, tr, c)
                })
                .collect();
            let refs: Vec<&Trace> = threads.iter().collect();
            let policy = InterleavePolicy::Stochastic {
                seed: sub_seed(seed, 0x5eed + cores as u64),
            };
            tr.record("smt.interleave", c, |_| interleave_refs(&refs, policy))
        });
        let groups = SHARED_CONFIGS
            .iter()
            .enumerate()
            .flat_map(|(config, &(cores, _, _))| {
                VICTIM_DEPTHS.iter().map(move |&depth| SharedGroup {
                    config,
                    cores,
                    depth,
                })
            })
            .collect();
        CoherentShared { merged, groups }
    }

    fn input_digest(&self) -> Digest {
        let mut d = Digest::default();
        for t in &self.merged {
            digest_trace(&mut d, t);
        }
        d
    }

    fn records(&self) -> u64 {
        self.merged.iter().map(|t| t.len() as u64).sum()
    }

    fn lane_records(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| (self.merged[g.config].len() * SCHEMES.len()) as u64)
            .sum()
    }

    fn reference(&self, tr: &Tracer, ctx: Ctx) -> Reference {
        let results = map_tasks(tr, ctx, &self.groups, |g, _| {
            let records = self.merged[g.config].records();
            SCHEMES
                .iter()
                .map(|&s| replay(s, g.cores, g.depth, records))
                .collect::<Vec<_>>()
        });
        let sizes = vec![SCHEMES.len(); self.groups.len()];
        let labels = self
            .groups
            .iter()
            .flat_map(|g| {
                let (cores, pattern, stores) = SHARED_CONFIGS[g.config];
                SCHEMES.iter().map(move |s| {
                    format!("{s:?} {pattern:?} {cores}c stores {stores} v{}", g.depth)
                })
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
        let results = map_tasks(tr, ctx, &self.groups, |g, c| {
            let records = self.merged[g.config].records();
            let mut hiers: Vec<CoherentHierarchy> = SCHEMES
                .iter()
                .map(|&s| build(s, g.cores, g.depth, true))
                .collect();
            let mut refs: Vec<&mut CoherentHierarchy> = hiers.iter_mut().collect();
            tr.record("hierarchy.run_coherent_fused", c, |_| {
                run_coherent_fused(&mut refs, records)
            });
            let mut counts = HierCounts::default();
            for h in &hiers {
                counts.add(h, records.len());
            }
            let outs: Vec<Outcome> = hiers.iter().map(Outcome::of_hierarchy).collect();
            (outs, counts)
        });
        let mut counts = HierCounts::default();
        let per_group = results
            .into_iter()
            .map(|r| {
                r.map(|(o, c)| {
                    counts.merge(c);
                    o
                })
            })
            .collect();
        PassOut {
            outcomes: flatten(per_group, &vec![SCHEMES.len(); self.groups.len()]),
            counts: counts.counts(),
        }
    }

    fn probe(&self, tr: &Tracer, ctx: Ctx) -> Counts {
        let mut n = 0;
        for t in &self.merged {
            n += probe_schemes(&blocks_of(t.records()), tr, ctx);
        }
        vec![("indexing.index_many_records", n)]
    }
}
