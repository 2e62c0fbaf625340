//! The unicache benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. The run builds the workload's seeded inputs
//! several times (set-up, timed), replays every simulation through the
//! per-record trait paths (the reference, untimed), then runs measured
//! passes from empty models for `--seconds`, comparing each pass's
//! results with the reference. With `--trace 1` every other pass records
//! spans around the calls into each layer, probes time single layers,
//! and the spans are written to `simbench/out/`.
//!
//! Standard output ends with four lines: `det {...}` (deterministic
//! half: inputs, counts and result digests, byte-identical across runs
//! at one seed), `timing {...}` (every host-time figure), a
//! human-readable `summary`, and one JSON result object whose metrics
//! are the end-to-end metrics of `BENCHMARK.json` (`--trace 0`) or its
//! per-layer metrics (`--trace 1`).

mod bench;
mod check;
mod coherent;
mod fig_sweep;
mod inputs;
mod json;
mod smt_timing;
mod span;

use bench::{Counts, Workload};
use check::{Digest, Tally};
use json::{obj, Value};
use span::{Ctx, Phase, Span, Tracer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use unicache_timing::Stopwatch;

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_RUNS: usize = 9;
/// Executor workers for set-up and the measured passes. One worker, as
/// the repository's own timing runs use (`xp --jobs 1`): on a small
/// shared host, two-worker pass times spread about five times wider from
/// run to run than one-worker pass times.
const MEASURE_JOBS: usize = 1;
/// Traced runs add this many passes on every available worker, which
/// give the executor's figures (idle share, longest task).
const PARALLEL_PASSES: usize = 3;
/// Fewest measured passes, however long a pass takes.
const MIN_PASSES: usize = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses the command line; `--seconds` defaults to `default_seconds`.
fn parse_args(default_seconds: f64) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: default_seconds,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Everything a run measured, before it is turned into metrics.
struct Run {
    setup_s: Vec<f64>,
    /// Wall time of each untraced and each traced pass.
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Traced runs: passes on every available worker.
    parallel: Vec<ParallelPass>,
    records: u64,
    lane_records: u64,
    simulations: usize,
    input_digest: Digest,
    reference_digest: Digest,
    first_pass_digest: Digest,
    first_pass_failed: u64,
    counts: BTreeMap<&'static str, u64>,
    probe_counts: BTreeMap<&'static str, u64>,
    tally: Tally,
    self_test: bool,
    counts_stable: bool,
    spans: Vec<Span>,
}

/// One pass on `jobs` executor workers, with the executor's accounting.
struct ParallelPass {
    jobs: usize,
    wall: f64,
    exec: unicache_exec::ExecStats,
}

fn digest_outcomes<'a>(outs: impl Iterator<Item = Option<&'a check::Outcome>>) -> Digest {
    let mut d = Digest::default();
    for o in outs {
        d.debug(&o);
    }
    d
}

/// Compares a pass's outcomes with the reference, one by one.
fn check_pass(out: &bench::PassOut, reference: &bench::Reference) -> Tally {
    let mut t = Tally::default();
    for ((got, want), label) in out
        .outcomes
        .iter()
        .zip(&reference.outcomes)
        .zip(&reference.labels)
    {
        match (got, want) {
            (Some(g), Some(r)) => t.compare(label, g, r),
            _ => t.fail(&format!("{label} (panicked)"), 1),
        }
    }
    if out.outcomes.len() != reference.outcomes.len() {
        t.fail("pass returned the wrong number of simulations", 1);
    }
    t
}

/// Runs one pass from fresh models, timed, with the executor's
/// accounting reset first.
fn timed_pass<W: Workload>(
    w: &W,
    tr: &Tracer,
    phase: Phase,
) -> (bench::PassOut, f64, unicache_exec::ExecStats) {
    let fresh = w.fresh();
    unicache_exec::reset_stats();
    let sw = Stopwatch::start();
    let out = w.pass(fresh, tr, Ctx::root(phase));
    let wall = sw.elapsed_secs();
    (out, wall, unicache_exec::stats())
}

fn run<W: Workload>(args: &Args) -> Run {
    let quiet = Tracer::new(false);
    let traced = Tracer::new(args.trace);
    let all_workers = unicache_exec::default_jobs();

    unicache_exec::set_global_jobs(MEASURE_JOBS);
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for i in 0..SETUP_RUNS {
        // The traced run records the spans of the last set-up only.
        let tr = if i + 1 == SETUP_RUNS { &traced } else { &quiet };
        // Each set-up starts from nothing, as in a fresh process.
        drop(inputs.take());
        let sw = Stopwatch::start();
        inputs = Some(W::setup(args.seed, tr, Ctx::root(Phase::Setup)));
        setup_s.push(sw.elapsed_secs());
    }
    let w = inputs.expect("at least one set-up");

    unicache_exec::set_global_jobs(all_workers);
    let reference = w.reference(&traced, Ctx::root(Phase::Probe));
    let mut tally = reference.tally.clone();
    let self_test = reference
        .outcomes
        .iter()
        .flatten()
        .next()
        .is_some_and(check::self_test);
    let mut counts: BTreeMap<&'static str, u64> = reference.counts.iter().copied().collect();

    unicache_exec::set_global_jobs(MEASURE_JOBS);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first_pass: Option<(Digest, u64, Counts)> = None;
    let mut counts_stable = true;
    let mut measured = 0.0;
    let mut pass = 0u32;
    // At least MIN_PASSES passes, unless they would take far longer than
    // the run was given.
    while measured < args.seconds
        || (walls.len() + traced_walls.len() < MIN_PASSES && measured < 3.0 * args.seconds)
    {
        // Traced runs alternate untraced and traced passes.
        let is_traced = args.trace && pass % 2 == 1;
        let tr = if is_traced { &traced } else { &quiet };
        let (out, wall, exec) = timed_pass(&w, tr, Phase::Pass(pass));
        measured += wall;
        if is_traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        let pass_tally = check_pass(&out, &reference);
        let mut pass_counts = out.counts;
        pass_counts.push(("exec.tasks", exec.tasks));
        match &first_pass {
            None => {
                first_pass = Some((
                    digest_outcomes(out.outcomes.iter().map(Option::as_ref)),
                    pass_tally.failed,
                    pass_counts,
                ))
            }
            Some((_, _, c)) => counts_stable &= *c == pass_counts,
        }
        tally.merge(pass_tally);
        pass += 1;
    }
    let (first_pass_digest, first_pass_failed, pass_counts) =
        first_pass.expect("at least one pass");
    counts.extend(pass_counts);

    unicache_exec::set_global_jobs(all_workers);
    let mut parallel = Vec::new();
    let mut probe_counts = BTreeMap::new();
    if args.trace {
        for _ in 0..PARALLEL_PASSES {
            let (out, wall, exec) = timed_pass(&w, &quiet, Phase::Probe);
            tally.merge(check_pass(&out, &reference));
            parallel.push(ParallelPass {
                jobs: all_workers,
                wall,
                exec,
            });
        }
        probe_counts.extend(w.probe(&traced, Ctx::root(Phase::Probe)));
    }

    Run {
        setup_s,
        walls,
        traced_walls,
        parallel,
        records: w.records(),
        lane_records: w.lane_records(),
        simulations: reference.outcomes.len(),
        input_digest: w.input_digest(),
        reference_digest: digest_outcomes(reference.outcomes.iter().map(Option::as_ref)),
        first_pass_digest,
        first_pass_failed,
        counts,
        probe_counts,
        tally,
        self_test,
        counts_stable,
        spans: traced.spans(),
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median, quartiles, extremes and the highest whole percentile with at
/// least ten samples beyond it.
fn distribution(v: &[f64]) -> Value {
    let mut members = vec![
        ("samples", Value::from(v.len())),
        ("median", Value::from(median(v))),
        ("p25", Value::from(quantile(v, 0.25))),
        ("p75", Value::from(quantile(v, 0.75))),
        ("min", Value::from(quantile(v, 0.0))),
        ("max", Value::from(quantile(v, 1.0))),
    ];
    if v.len() > 10 {
        let pct = 100 * (v.len() - 10) / v.len();
        members.push(("tail_percentile", Value::from(pct)));
        members.push(("tail", Value::from(quantile(v, pct as f64 / 100.0))));
    }
    obj(members)
}

/// The process's peak resident set, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the traced run, by name.
fn per_layer(r: &Run) -> BTreeMap<&'static str, f64> {
    let traced_passes = r.traced_walls.len().max(1) as f64;
    let of = |phase: fn(&Phase) -> bool| -> Vec<Span> {
        r.spans
            .iter()
            .filter(|s| phase(&s.phase))
            .cloned()
            .collect()
    };
    let setup = of(|p| *p == Phase::Setup);
    let passes = of(|p| matches!(p, Phase::Pass(_)));
    let probes = of(|p| *p == Phase::Probe);
    let set_up = |name| span::total_secs(&setup, name);
    let probed = |name| span::total_secs(&probes, name);
    // Seconds per pass in spans named `name`; work that the pass does
    // inside the program, where no span can reach, is read from the
    // probe that repeats it.
    let per_pass = |name| {
        let t = span::total_secs(&passes, name) / traced_passes;
        if t > 0.0 {
            t
        } else {
            probed(name)
        }
    };
    let count = |name| r.counts.get(name).copied().unwrap_or(0) as f64;
    let probe_count = |name| r.probe_counts.get(name).copied().unwrap_or(0) as f64;

    let mut m = BTreeMap::new();
    m.insert("workloads.generate_s", set_up("workloads.generate"));
    m.insert("workloads.records", r.records as f64);
    m.insert("trace.synth_s", set_up("trace.synth"));
    m.insert("core.decode_s", set_up("core.decode"));
    m.insert("indexing.train_s", set_up("indexing.train"));
    m.insert("smt.interleave_s", set_up("smt.interleave"));

    let fused = per_pass("core.run_fused");
    m.insert("core.run_fused_s", fused);
    m.insert("core.lane_records", count("core.lane_records"));
    m.insert(
        "core.ns_per_lane_record",
        ratio(fused * 1e9, count("core.lane_records")),
    );
    for (metric, name, work) in [
        (
            "indexing.index_many_ns_per_record",
            "indexing.index_many",
            "indexing.index_many_records",
        ),
        (
            "cachesim.ns_per_lane_record",
            "cachesim.run_fused_lane",
            "cachesim.lane_records",
        ),
        (
            "assoc.ns_per_lane_record",
            "assoc.run_fused_lane",
            "assoc.lane_records",
        ),
    ] {
        m.insert(metric, ratio(probed(name) * 1e9, probe_count(work)));
    }

    let hier = per_pass("hierarchy.run_coherent_fused");
    m.insert("hierarchy.run_s", hier);
    m.insert(
        "hierarchy.ns_per_lane_record",
        ratio(hier * 1e9, count("hierarchy.lane_records")),
    );
    let (fast, serial) = (
        count("hierarchy.fast_commits"),
        count("hierarchy.serial_commits"),
    );
    m.insert("hierarchy.fast_path_frac", ratio(fast, fast + serial));
    m.insert("hierarchy.serial_commits", serial);
    m.insert(
        "hierarchy.bus_transactions",
        count("hierarchy.bus_transactions"),
    );
    m.insert("hierarchy.invalidations", count("hierarchy.invalidations"));
    m.insert("hierarchy.victim_hits", count("hierarchy.victim_hits"));

    let smt = per_pass("smt.run_many");
    m.insert("smt.access_s", smt);
    m.insert(
        "smt.ns_per_record",
        ratio(smt * 1e9, count("smt.lane_records")),
    );
    let timing = per_pass("timing.hierarchy_run");
    m.insert("timing.hierarchy_run_s", timing);
    m.insert(
        "timing.ns_per_record",
        ratio(timing * 1e9, count("timing.lane_records")),
    );

    let (sims, hits) = (
        count("experiments.sims_run"),
        count("experiments.store_hits"),
    );
    m.insert("experiments.sims_run", sims);
    m.insert("experiments.store_hits", hits);
    m.insert("experiments.hit_ratio", ratio(hits, hits + sims));
    m.insert(
        "experiments.streams_decoded",
        count("experiments.streams_decoded"),
    );

    // The executor's figures come from the passes on every worker.
    let par = |f: fn(&ParallelPass) -> f64| median(&r.parallel.iter().map(f).collect::<Vec<_>>());
    m.insert("exec.workers", par(|p| p.jobs as f64));
    m.insert("exec.tasks", count("exec.tasks"));
    m.insert("exec.busy_s", par(|p| p.exec.busy_seconds));
    m.insert("exec.max_task_s", par(|p| p.exec.max_task_seconds));
    m.insert(
        "exec.idle_frac",
        par(|p| 1.0 - ratio(p.exec.busy_seconds, p.jobs as f64 * p.wall)),
    );
    m.insert("exec.parallel_wall_s", par(|p| p.wall));
    let wall = median(&r.walls);
    m.insert(
        "trace.overhead_frac",
        ratio(median(&r.traced_walls), wall) - 1.0,
    );

    // Self time of one set-up plus one traced pass.
    let setup_self = span::self_secs_by_layer(&setup);
    let pass_self = span::self_secs_by_layer(&passes);
    for (layer, metric) in SELF_METRICS {
        let s = setup_self.get(layer).copied().unwrap_or(0.0)
            + pass_self.get(layer).copied().unwrap_or(0.0) / traced_passes;
        m.insert(metric, s);
    }
    m
}

const SELF_METRICS: [(&str, &str); 11] = [
    ("workloads", "workloads.self_s"),
    ("trace", "trace.self_s"),
    ("core", "core.self_s"),
    ("indexing", "indexing.self_s"),
    ("cachesim", "cachesim.self_s"),
    ("assoc", "assoc.self_s"),
    ("smt", "smt.self_s"),
    ("timing", "timing.self_s"),
    ("hierarchy", "hierarchy.self_s"),
    ("experiments", "experiments.self_s"),
    ("exec", "exec.self_s"),
];

/// The declarations of `BENCHMARK.json`: `(name, unit)` for the
/// end-to-end and the per-layer metrics, the workload names and the
/// length of a run.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
    workloads: Vec<String>,
    run_seconds: f64,
}

fn declared(doc: &Value) -> Result<Declared, String> {
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).map(str::to_string);
                Ok((
                    field("name").ok_or(format!("{key} entry without a name"))?,
                    field("unit").unwrap_or_default(),
                ))
            })
            .collect()
    };
    Ok(Declared {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
        workloads: list("workloads")?.into_iter().map(|(n, _)| n).collect(),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    })
}

fn load_declared() -> Result<Declared, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    declared(&Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?)
}

/// The result metrics, in declaration order, checked against the
/// declarations: a metric the benchmark does not compute is an error.
fn result_metrics(
    decl: &[(String, String)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Value, String> {
    if let Some(extra) = values.keys().find(|k| !decl.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    decl.iter()
        .map(|(name, unit)| {
            let v = values
                .get(name.as_str())
                .ok_or(format!("declared metric {name} is not computed"))?;
            Ok((
                name.clone(),
                obj([
                    ("value", Value::from(*v)),
                    ("unit", Value::from(unit.as_str())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Value::Obj)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<(), String> {
    let decl = load_declared()?;
    let args = parse_args(decl.run_seconds)?;
    if !decl.workloads.contains(&args.workload) {
        return Err(format!(
            "workload {} is not declared in BENCHMARK.json",
            args.workload
        ));
    }
    // The allocator tuning `xp` runs with.
    unicache_experiments::tune_allocator_for_traces();
    let r = match args.workload.as_str() {
        "fig-sweep" => run::<fig_sweep::FigSweep>(&args),
        "coherent-private" => run::<coherent::CoherentPrivate>(&args),
        "coherent-shared" => run::<coherent::CoherentShared>(&args),
        "smt-timing" => run::<smt_timing::SmtTiming>(&args),
        other => {
            return Err(format!(
                "BENCHMARK.json declares {other}, which is not built in"
            ))
        }
    };
    let rss = peak_rss_mib()?;

    let wall = median(&r.walls);
    let error_rate = ratio(r.tally.failed as f64, r.tally.attempted as f64);
    let correct = r.tally.failed == 0 && r.self_test && r.counts_stable;

    let det = obj([
        ("workload", Value::from(args.workload.as_str())),
        ("seed", Value::from(args.seed.to_string())),
        ("input_digest", Value::from(r.input_digest.hex())),
        ("records", Value::from(r.records)),
        ("simulations", Value::from(r.simulations)),
        ("lane_records", Value::from(r.lane_records)),
        ("reference_digest", Value::from(r.reference_digest.hex())),
        ("first_pass_digest", Value::from(r.first_pass_digest.hex())),
        ("first_pass_failed", Value::from(r.first_pass_failed)),
        ("checker_self_test", Value::from(r.self_test)),
        (
            "counts",
            obj(r.counts.iter().map(|(k, v)| (*k, Value::from(*v)))),
        ),
    ]);
    let timing = obj([
        ("jobs", Value::from(MEASURE_JOBS)),
        ("wall_s", distribution(&r.walls)),
        ("traced_wall_s", distribution(&r.traced_walls)),
        ("setup_s", distribution(&r.setup_s)),
        (
            "lane_records_per_s",
            Value::from(ratio(r.lane_records as f64, wall)),
        ),
        ("peak_rss_mib", Value::from(rss)),
        (
            "parallel_wall_s",
            distribution(&r.parallel.iter().map(|p| p.wall).collect::<Vec<_>>()),
        ),
    ]);
    println!("det {}", det.emit());
    println!("timing {}", timing.emit());
    println!(
        "summary workload={} seed={} wall_s={wall:.6} s lane_records_per_s={:.0} 1/s \
         setup_s={:.6} s peak_rss_mib={rss:.1} MiB error_rate={error_rate} \
         ({} of {} simulations failed{})",
        args.workload,
        args.seed,
        ratio(r.lane_records as f64, wall),
        median(&r.setup_s),
        r.tally.failed,
        r.tally.attempted,
        r.tally
            .first_failure
            .as_deref()
            .map(|f| format!("; first: {f}"))
            .unwrap_or_default(),
    );
    if !r.self_test {
        eprintln!("simbench: the checker's self-test failed");
    }
    if !r.counts_stable {
        eprintln!("simbench: deterministic counts differed between passes");
    }

    let (decl_metrics, values) = if args.trace {
        let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
        let path = format!("{out_dir}/spans-{}-seed{}.json", args.workload, args.seed);
        std::fs::write(&path, span::to_json(&r.spans).emit() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        (&decl.per_layer, per_layer(&r))
    } else {
        let mut m = BTreeMap::new();
        m.insert("wall_s", wall);
        m.insert("lane_records_per_s", ratio(r.lane_records as f64, wall));
        m.insert("setup_s", median(&r.setup_s));
        m.insert("peak_rss_mib", rss);
        (&decl.end_to_end, m)
    };
    let result = obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(r.tally.attempted)),
        ("failed", Value::from(r.tally.failed)),
        ("metrics", result_metrics(decl_metrics, &values)?),
    ]);
    println!("{}", result.emit());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_linear_interpolation() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_declarations_match_what_the_benchmark_computes() {
        let decl = load_declared().unwrap();
        assert_eq!(
            decl.workloads,
            [
                "fig-sweep",
                "coherent-private",
                "coherent-shared",
                "smt-timing"
            ]
        );
        let end_to_end: BTreeMap<&'static str, f64> =
            ["wall_s", "lane_records_per_s", "setup_s", "peak_rss_mib"]
                .into_iter()
                .map(|k| (k, 1.0))
                .collect();
        result_metrics(&decl.end_to_end, &end_to_end).unwrap();
        let empty = Run {
            setup_s: vec![1.0],
            walls: vec![1.0],
            traced_walls: vec![1.0],
            parallel: Vec::new(),
            records: 1,
            lane_records: 1,
            simulations: 1,
            input_digest: Digest::default(),
            reference_digest: Digest::default(),
            first_pass_digest: Digest::default(),
            first_pass_failed: 0,
            counts: BTreeMap::new(),
            probe_counts: BTreeMap::new(),
            tally: Tally::default(),
            self_test: true,
            counts_stable: true,
            spans: Vec::new(),
        };
        result_metrics(&decl.per_layer, &per_layer(&empty)).unwrap();
    }

    #[test]
    fn result_metrics_refuse_undeclared_and_missing_metrics() {
        let decl = vec![("wall_s".to_string(), "s".to_string())];
        let mut values = BTreeMap::new();
        assert!(result_metrics(&decl, &values).is_err());
        values.insert("wall_s", 0.5);
        let v = result_metrics(&decl, &values).unwrap();
        let wall = v.get("wall_s").and_then(|m| m.get("value"));
        assert_eq!(wall.and_then(Value::as_f64), Some(0.5));
        values.insert("setup_s", 0.1);
        assert!(result_metrics(&decl, &values).is_err());
    }
}
