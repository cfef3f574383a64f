//! `sim-scc` and `sim-memory`: whole rounds of simulation jobs at
//! `baseline` and `full-scc`, one thread, through
//! `Runner::serial_uncached` so every job simulates.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scc_lang::{corpus, Opt};
use scc_sim::{run_workload, Job, OptLevel, Runner, SimOptions, SimResult};

use crate::prep::{self, Prepared, SetupTimes};
use crate::serve::{self, Served};
use crate::util::{self, cpu_s, geomean, median, per_call_us, Rng, Tracer};
use crate::{oracle, Metrics, Report};

const LEVELS: [OptLevel; 2] = [OptLevel::Baseline, OptLevel::Full];

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 15;

/// Fewest rounds per run, so every job time is a median of several.
const MIN_ROUNDS: usize = 3;

/// One simulation workload: which programs, at which scale.
pub struct Spec {
    pub registry: &'static [&'static str],
    pub guests: &'static [&'static str],
    pub scale: i64,
}

/// The registry programs where full-scc compacts most, plus the whole
/// guest corpus: compute-bound, so the SCC unit, the uop-cache
/// partitions, the predictors and rename/commit do the work.
pub const SIM_SCC: Spec = Spec {
    registry: &[
        "perlbench",
        "gcc",
        "xalancbmk",
        "exchange",
        "freqmine",
        "vips",
    ],
    guests: &["sort", "sieve", "matmul", "search", "interp", "cksum"],
    scale: 1000,
};

/// DRAM-bound programs: fast-forward and the memory hierarchy do the
/// work; SCC removes few micro-ops.
pub const SIM_MEMORY: Spec = Spec {
    registry: &["mcf", "xz", "canneal"],
    guests: &[],
    scale: 8000,
};

/// What one pass of set-up plus timed rounds measured.
struct Measured {
    setup_s: f64,
    setup: SetupTimes,
    progs: Vec<Prepared>,
    /// `(program index, level)` per job.
    jobs: Vec<(usize, OptLevel)>,
    /// Host seconds per job, one entry per round.
    times: Vec<Vec<f64>>,
    /// The first round's result per job.
    results: Vec<Arc<SimResult>>,
    /// `workload/level` of jobs whose counters changed between rounds.
    unrepeatable: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Measured {
    fn job_s(&self, j: usize) -> f64 {
        median(&self.times[j])
    }

    /// `(simulated cycles, host seconds)` summed over one level's jobs.
    fn level_totals(&self, level: OptLevel) -> (f64, f64) {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, &(_, l))| l == level)
            .fold((0.0, 0.0), |(c, t), (j, _)| {
                (c + self.results[j].stats.cycles as f64, t + self.job_s(j))
            })
    }

    fn level_results(&self, level: OptLevel) -> impl Iterator<Item = &SimResult> {
        self.jobs
            .iter()
            .zip(&self.results)
            .filter(move |((_, l), _)| *l == level)
            .map(|(_, r)| &**r)
    }
}

fn setup(spec: &Spec, tr: &Tracer) -> (f64, SetupTimes, Vec<Prepared>) {
    let mut reps = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = cpu_s();
        let mut t = SetupTimes::default();
        let progs = tr.span("setup", 0, |id| {
            prep::programs(spec.registry, spec.guests, spec.scale, tr, id, &mut t)
        });
        reps.push((cpu_s() - t0, t));
        last = Some(progs);
    }
    let pick = |f: fn(&(f64, SetupTimes)) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        build_s: pick(|r| r.1.build_s),
    };
    (pick(|r| r.0), times, last.expect("at least one set-up"))
}

fn measure(spec: &Spec, seed: u64, seconds: u64, tr: &Tracer) -> Measured {
    let (setup_s, setup, progs) = setup(spec, tr);
    let jobs: Vec<(usize, OptLevel)> = (0..progs.len())
        .flat_map(|p| LEVELS.map(|l| (p, l)))
        .collect();
    let runner = Runner::serial_uncached();
    let mut rng = Rng::new(seed, 1);
    let mut times = vec![Vec::new(); jobs.len()];
    let mut results: Vec<Option<Arc<SimResult>>> = vec![None; jobs.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut unrepeatable = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        tr.span("round", 0, |round| {
            for j in order {
                let (p, level) = jobs[j];
                let job = Job::new(&progs[p].workload, &SimOptions::new(level));
                let t0 = cpu_s();
                let r = tr.span("sim.Runner.run", round, |_| {
                    runner.try_run(std::slice::from_ref(&job))
                });
                times[j].push(cpu_s() - t0);
                attempted += 1;
                let r = match r {
                    Ok(mut v) => v.pop().expect("one result per job"),
                    Err(_) => {
                        failed += 1;
                        continue;
                    }
                };
                if !oracle::check(&r, level, &progs[p].expected) {
                    failed += 1;
                }
                // Simulation should be deterministic; a job whose counters
                // differ from its first round's is reported, not failed,
                // because the difference comes and goes between runs.
                match &results[j] {
                    Some(first) if first.stats != r.stats => {
                        let label = format!("{}/{}", progs[p].workload.name, level.label());
                        if !unrepeatable.contains(&label) {
                            unrepeatable.push(label);
                        }
                    }
                    Some(_) => {}
                    None => results[j] = Some(r),
                }
            }
        });
        rounds += 1;
    }
    // A job that never produced a result has failed every round; stand
    // in an empty result so the metrics stay computable.
    let results = results
        .into_iter()
        .zip(&jobs)
        .map(|(r, &(p, level))| {
            r.unwrap_or_else(|| {
                Arc::new(oracle::stand_in(
                    &progs[p].workload.name,
                    level,
                    &progs[p].expected,
                ))
            })
        })
        .collect();
    Measured {
        setup_s,
        setup,
        progs,
        jobs,
        times,
        results,
        unrepeatable,
        attempted,
        failed,
    }
}

fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    out.metric("setup_s", m.setup_s, "s");
    let (mut all_time, mut all_uops) = (0.0, 0.0);
    for level in LEVELS {
        let (cycles, secs) = m.level_totals(level);
        out.metric(
            &format!("sim_cycles_per_s.{}", level.label()),
            cycles / secs,
            "1/s",
        );
        all_time += secs;
        all_uops += m
            .level_results(level)
            .map(|r| r.stats.program_uops as f64)
            .sum::<f64>();
    }
    out.metric("program_uops_per_s", all_uops / all_time, "1/s");
    let pairs: Vec<(&SimResult, &SimResult)> = m
        .level_results(OptLevel::Baseline)
        .zip(m.level_results(OptLevel::Full))
        .collect();
    let uops: Vec<f64> = pairs
        .iter()
        .map(|(b, f)| f.stats.committed_uops as f64 / b.stats.committed_uops as f64)
        .collect();
    let cycles: Vec<f64> = pairs
        .iter()
        .map(|(b, f)| b.stats.cycles as f64 / f.stats.cycles as f64)
        .collect();
    out.metric("uop_reduction", 1.0 - geomean(&uops), "ratio");
    out.metric("sim_speedup", geomean(&cycles), "ratio");
    out.metric(
        "peak_rss_mb",
        util::proc_status_mb("self", "VmHWM").unwrap_or(f64::NAN),
        "MB",
    );
    out.note(format!(
        "rounds {}, jobs whose counters changed between rounds: {:?}",
        m.times[0].len(),
        m.unrepeatable
    ));
    out
}

/// CPU seconds `scc_lang::compile` takes over the whole guest corpus at
/// `O2` and the `ITERS` of `scale`, median of `SETUP_REPS` passes. It is
/// part of `setup_s` where the workload holds guest programs, and a probe
/// of the compiler on the same inputs where it does not.
fn compile_s(scale: i64, tr: &Tracer) -> f64 {
    let reps: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = cpu_s();
            for g in corpus::CORPUS {
                let compiled =
                    tr.span("lang.compile", 0, |_| g.compile(Opt::O2, g.iters_at(scale)));
                compiled.unwrap_or_else(|e| panic!("guest `{}` failed to compile: {e}", g.name));
            }
            cpu_s() - t0
        })
        .collect();
    median(&reps)
}

/// Runs one simulation workload; with `trace`, runs it a second time
/// with spans on and adds the per-layer metrics, the ablations and the
/// service layers' probe (`serve::probe`, with the `scc-serve` binary at
/// `serve_bin` and scratch files under `dir`).
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: &Path,
    dir: &Path,
) -> Report {
    let plain = measure(spec, seed, seconds, &Tracer::new(false));
    let mut out = Report {
        attempted: plain.attempted,
        failed: plain.failed,
        ..Report::default()
    };
    out.end_to_end = end_to_end(&plain);
    if !trace {
        return out;
    }
    let tr = Tracer::new(true);
    let m = measure(spec, seed, seconds, &tr);
    out.attempted += m.attempted;
    out.failed += m.failed;
    out.traced = end_to_end(&m);
    let layers = &mut out.layers;
    layers.overhead(&out.end_to_end, &out.traced, "program_uops_per_s");

    layers.metric("workloads.build_s", m.setup.build_s, "s");
    layers.metric("lang.compile_s", compile_s(spec.scale, &tr), "s");
    let traces: Vec<Vec<u8>> = m
        .progs
        .iter()
        .map(|p| {
            tr.span("lang.trace.encode", 0, |_| {
                scc_lang::trace::encode(&p.workload.program, "perfbench")
            })
        })
        .collect();
    layers.metric(
        "lang.trace_decode_us",
        per_call_us(&traces, 20, &tr, "lang.trace.decode", |b| {
            std::hint::black_box(scc_lang::trace::decode(b).expect("own trace decodes"));
        }),
        "us",
    );
    let ns_per_cycle = |level| {
        let (c, t) = m.level_totals(level);
        t * 1e9 / c
    };
    let (base_ns, full_ns) = (
        ns_per_cycle(OptLevel::Baseline),
        ns_per_cycle(OptLevel::Full),
    );
    layers.metric("pipeline.ns_per_cycle.baseline", base_ns, "ns");
    layers.metric("pipeline.ns_per_cycle.full-scc", full_ns, "ns");

    // Ablations over the same jobs, once each: fast-forward off against
    // the timed rounds' medians, and the Runner against a direct
    // `run_workload` call made right after it.
    let runner = Runner::serial_uncached();
    let (mut ff_off, mut ff_on, mut overhead) = (0.0, 0.0, 0.0);
    tr.span("ablation", 0, |ab| {
        for (j, &(p, level)) in m.jobs.iter().enumerate() {
            let w = &m.progs[p].workload;
            let want = &m.progs[p].expected;
            let mut opts = SimOptions::new(level);
            opts.fast_forward = false;
            let t0 = cpu_s();
            let r = tr.span("ablation.fast_forward_off", ab, |_| run_workload(w, &opts));
            ff_off += cpu_s() - t0;
            ff_on += m.job_s(j);
            let job = Job::new(w, &SimOptions::new(level));
            let timed_runner = || {
                let t0 = cpu_s();
                let r = tr.span("ablation.Runner.run", ab, |_| {
                    runner.try_run(std::slice::from_ref(&job))
                });
                (r, cpu_s() - t0)
            };
            let timed_direct = || {
                let t0 = cpu_s();
                let r = tr.span("ablation.run_workload", ab, |_| {
                    run_workload(w, &SimOptions::new(level))
                });
                (r, cpu_s() - t0)
            };
            // Alternate which goes first: the second run of a program
            // finds its memory already faulted in.
            let ((via_runner, runner_s), (direct, direct_s)) = if j % 2 == 0 {
                let a = timed_runner();
                (a, timed_direct())
            } else {
                let b = timed_direct();
                (timed_runner(), b)
            };
            overhead += runner_s - direct_s;
            let via_runner_ok = via_runner.is_ok_and(|v| oracle::check(&v[0], level, want));
            for ok in [
                oracle::check(&r, level, want),
                via_runner_ok,
                oracle::check(&direct, level, want),
            ] {
                out.attempted += 1;
                out.failed += u64::from(!ok);
            }
        }
    });
    layers.metric("pipeline.ff_speedup", ff_off / ff_on, "ratio");

    let base: Vec<&SimResult> = m.level_results(OptLevel::Baseline).collect();
    let full: Vec<&SimResult> = m.level_results(OptLevel::Full).collect();
    let all: Vec<&SimResult> = base.iter().chain(&full).copied().collect();
    let sum =
        |rs: &[&SimResult], f: fn(&SimResult) -> u64| rs.iter().map(|r| f(r)).sum::<u64>() as f64;
    layers.metric(
        "pipeline.cycles.baseline",
        sum(&base, |r| r.stats.cycles),
        "count",
    );
    layers.metric(
        "pipeline.cycles.full-scc",
        sum(&full, |r| r.stats.cycles),
        "count",
    );
    layers.metric(
        "pipeline.squashed_uops.full-scc",
        sum(&full, |r| r.stats.squashed_uops),
        "count",
    );

    let compactions = sum(&full, |r| r.stats.compactions);
    let committed_streams = sum(&full, |r| r.stats.streams_committed);
    let (full_cycles, full_s) = m.level_totals(OptLevel::Full);
    layers.metric("core.ns_per_cycle", full_ns - base_ns, "ns");
    layers.metric(
        "core.ns_per_compaction",
        (full_s * 1e9 - full_cycles * base_ns) / compactions,
        "ns",
    );
    layers.metric("core.compactions", compactions, "count");
    layers.metric("core.streams_committed", committed_streams, "count");
    layers.metric(
        "core.commit_ratio",
        committed_streams / compactions,
        "ratio",
    );
    let fetched = sum(&full, |r| {
        r.stats.uops_from_icache + r.stats.uops_from_unopt + r.stats.uops_from_opt
    });
    layers.metric(
        "uopcache.opt_uop_share",
        sum(&full, |r| r.stats.uops_from_opt) / fetched,
        "ratio",
    );
    layers.metric(
        "predictors.branch_mpki",
        1000.0 * sum(&full, |r| r.stats.branches_mispredicted)
            / sum(&full, |r| r.stats.committed_uops),
        "1/kuop",
    );
    layers.metric(
        "predictors.vp_probes",
        sum(&full, |r| r.stats.vp_probes),
        "count",
    );
    layers.metric(
        "memsys.dram_accesses",
        sum(&all, |r| r.stats.hierarchy.dram),
        "count",
    );
    layers.metric(
        "memsys.l1d_miss_ratio",
        sum(&all, |r| r.stats.hierarchy.l1d.misses)
            / sum(&all, |r| r.stats.hierarchy.l1d.accesses()),
        "ratio",
    );
    layers.metric("sim.runner_overhead_s", overhead, "s");

    let served: Vec<Served> = m
        .jobs
        .iter()
        .zip(&m.results)
        .map(|(&(p, level), result)| Served {
            workload: &m.progs[p].workload,
            level,
            result,
        })
        .collect();
    let (attempted, failed) = serve::probe(serve_bin, dir, &served, seed, &tr, layers);
    out.attempted += attempted;
    out.failed += failed;
    out.spans = Some(tr);
    out
}
