//! `fig-sweep`: every registry scheme over every trace, as fused groups.
//!
//! Figures 4, 6 and 8 and the associativity sweep: all 21 traces, each
//! relocated by a seeded line-aligned offset, run under every `SchemeId`
//! at the paper L1 and under the baseline at the 2/4/8-way geometries of
//! the associativity sweep. One fused group per (trace, geometry) goes
//! through `SchemeId::build_lane` and `run_fused`; groups are tasks of
//! the repository's executor.

use crate::bench::{flatten, map_setup, map_tasks, Counts, PassOut, Reference, Workload};
use crate::check::{Digest, Outcome, Tally};
use crate::inputs::{digest_trace, generate, probe_index_many, relocate, sub_seed};
use crate::span::{Ctx, Tracer};
use std::sync::Arc;
use unicache_assoc::ColumnAssociativeCache;
use unicache_core::{run_fused, BlockAddr, BlockStream, CacheGeometry, FusedLane, IndexFunction};
use unicache_experiments::SchemeId;
use unicache_indexing::IndexScheme;
use unicache_sim::CacheBuilder;
use unicache_trace::Trace;
use unicache_workloads::Workload as Program;

/// Every index scheme except the conventional one (which `Baseline` is).
fn index_schemes() -> Vec<IndexScheme> {
    IndexScheme::all()
        .into_iter()
        .filter(|s| *s != IndexScheme::Conventional)
        .collect()
}

/// Every registry scheme at the paper L1.
fn paper_schemes() -> Vec<SchemeId> {
    let mut s = vec![SchemeId::Baseline];
    s.extend(index_schemes().into_iter().map(SchemeId::Index));
    s.push(SchemeId::ColumnAssoc);
    s.extend(index_schemes().into_iter().map(SchemeId::ColumnAssocWith));
    s.extend([SchemeId::Adaptive, SchemeId::BCache, SchemeId::Skewed]);
    s
}

/// The associativity sweep's extra geometries (32 KB, 32 B lines).
fn sweep_geoms() -> Vec<CacheGeometry> {
    [2u32, 4, 8]
        .iter()
        .map(|&ways| CacheGeometry::new(32 * 1024, 32, ways).expect("valid sweep geometry"))
        .collect()
}

fn is_cachesim(s: SchemeId) -> bool {
    matches!(s, SchemeId::Baseline | SchemeId::Index(_))
}

struct Input {
    program: Program,
    trace: Trace,
    stream: BlockStream,
    /// Givargis and Givargis-XOR, trained on this trace at the paper L1.
    trained: Vec<(IndexScheme, Arc<dyn IndexFunction>)>,
}

impl Input {
    fn trained(&self, s: IndexScheme) -> Option<Arc<dyn IndexFunction>> {
        self.trained
            .iter()
            .find(|(t, _)| *t == s)
            .map(|(_, f)| Arc::clone(f))
    }

    /// The lane `build_lane` would make, with the index trained in set-up
    /// rather than again inside the pass.
    fn lane(&self, scheme: SchemeId, geom: CacheGeometry) -> Box<dyn FusedLane> {
        match scheme {
            SchemeId::Index(s) if s.needs_training() => Box::new(
                CacheBuilder::new(geom)
                    .index(self.trained(s).expect("trained in set-up"))
                    .build()
                    .expect("valid cache"),
            ),
            SchemeId::ColumnAssocWith(s) if s.needs_training() => Box::new(
                ColumnAssociativeCache::with_index(
                    geom,
                    self.trained(s).expect("trained in set-up"),
                )
                .expect("valid column-associative cache"),
            ),
            other => other.build_lane(geom, None),
        }
    }
}

struct Group {
    input: usize,
    geom: CacheGeometry,
    schemes: Vec<SchemeId>,
}

pub struct FigSweep {
    inputs: Vec<Input>,
    groups: Vec<Group>,
}

impl Workload for FigSweep {
    type Fresh = ();

    fn setup(seed: u64, tr: &Tracer, ctx: Ctx) -> Self {
        let paper = CacheGeometry::paper_l1();
        let programs = Program::all();
        let inputs = map_setup(tr, ctx, &programs, |&program, c| {
            let trace = relocate(&generate(program, tr, c), sub_seed(seed, program as u64));
            let stream = tr.record("core.decode", c, |_| {
                BlockStream::from_records(trace.records(), paper.line_bytes())
            });
            let blocks = tr.record("trace.unique_blocks", c, |_| {
                trace.unique_blocks(paper.line_bytes())
            });
            let trained = [IndexScheme::Givargis, IndexScheme::GivargisXor]
                .into_iter()
                .map(|s| {
                    let f = tr.record("indexing.train", c, |_| {
                        s.build(paper, Some(&blocks)).expect("training succeeds")
                    });
                    (s, f)
                })
                .collect();
            Input {
                program,
                trace,
                stream,
                trained,
            }
        });
        let mut groups = Vec::new();
        for i in 0..inputs.len() {
            groups.push(Group {
                input: i,
                geom: paper,
                schemes: paper_schemes(),
            });
            for geom in sweep_geoms() {
                groups.push(Group {
                    input: i,
                    geom,
                    schemes: vec![SchemeId::Baseline],
                });
            }
        }
        FigSweep { inputs, groups }
    }

    fn input_digest(&self) -> Digest {
        let mut d = Digest::default();
        for i in &self.inputs {
            digest_trace(&mut d, &i.trace);
        }
        d
    }

    fn records(&self) -> u64 {
        self.inputs.iter().map(|i| i.trace.len() as u64).sum()
    }

    fn lane_records(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| (self.inputs[g.input].stream.len() * g.schemes.len()) as u64)
            .sum()
    }

    fn reference(&self, tr: &Tracer, ctx: Ctx) -> Reference {
        let sizes: Vec<usize> = self.groups.iter().map(|g| g.schemes.len()).collect();
        let results = map_tasks(tr, ctx, &self.groups, |g, _| {
            let input = &self.inputs[g.input];
            // An independent training of the Givargis schemes, as the
            // simulation store would do it.
            let training = input.trace.unique_blocks(g.geom.line_bytes());
            g.schemes
                .iter()
                .map(|s| {
                    let mut model = s.build_model(g.geom, Some(&training));
                    model.run(input.trace.records());
                    Outcome::Cache(model.stats().clone())
                })
                .collect::<Vec<_>>()
        });
        let labels = self
            .groups
            .iter()
            .flat_map(|g| {
                let name = self.inputs[g.input].program.name();
                g.schemes
                    .iter()
                    .map(move |s| format!("{name} {s:?} {}-way", g.geom.ways()))
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
        let sizes: Vec<usize> = self.groups.iter().map(|g| g.schemes.len()).collect();
        let results = map_tasks(tr, ctx, &self.groups, |g, c| {
            let input = &self.inputs[g.input];
            let mut lanes: Vec<Box<dyn FusedLane>> =
                g.schemes.iter().map(|&s| input.lane(s, g.geom)).collect();
            let mut refs: Vec<&mut dyn FusedLane> = lanes
                .iter_mut()
                .map(|l| l.as_mut() as &mut dyn FusedLane)
                .collect();
            tr.record("core.run_fused", c, |_| run_fused(&mut refs, &input.stream));
            lanes
                .iter()
                .map(|l| Outcome::Cache(l.stats().clone()))
                .collect::<Vec<_>>()
        });
        PassOut {
            outcomes: flatten(results, &sizes),
            counts: vec![("core.lane_records", self.lane_records())],
        }
    }

    fn probe(&self, tr: &Tracer, ctx: Ctx) -> Counts {
        let paper = CacheGeometry::paper_l1();
        let (mut indexed, mut cachesim, mut assoc) = (0, 0, 0);
        for input in &self.inputs {
            let blocks: Vec<BlockAddr> = input.stream.iter().map(|(b, _)| b).collect();
            let fns: Vec<Arc<dyn IndexFunction>> = IndexScheme::all()
                .into_iter()
                .map(|s| {
                    input
                        .trained(s)
                        .unwrap_or_else(|| s.build(paper, None).expect("training-free scheme"))
                })
                .collect();
            indexed += probe_index_many(&fns, &blocks, tr, ctx);
            for s in paper_schemes() {
                let mut lane = input.lane(s, paper);
                let (name, count) = if is_cachesim(s) {
                    ("cachesim.run_fused_lane", &mut cachesim)
                } else {
                    ("assoc.run_fused_lane", &mut assoc)
                };
                tr.record(name, ctx, |_| {
                    run_fused(&mut [lane.as_mut()], &input.stream)
                });
                *count += input.stream.len() as u64;
            }
        }
        vec![
            ("indexing.index_many_records", indexed),
            ("cachesim.lane_records", cachesim),
            ("assoc.lane_records", assoc),
        ]
    }
}
