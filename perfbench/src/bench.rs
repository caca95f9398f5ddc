//! The closed loops, the layer probes, and the metrics they yield.
//!
//! A plain run (`--trace 0`) sets up nine times, makes one untimed
//! warm-up pass, then runs the workload's closed loop for `--seconds` and
//! reports the end-to-end metrics. A traced run (`--trace 1`) warms up
//! the same way, then alternates plain passes with
//! traced ones (the program's `Obs` attached to every sim run) for
//! `--seconds`, then probes every layer on the workload's own inputs and
//! reports the per-layer metrics.

use crate::inputs::{self, Inputs, Machine, Unit, Workload};
use crate::jobs::{self, JobTrace, Scrape};
use crate::replay;
use crate::report::{band_quantile, median, median_ns, ns_to_ms, ratio, Metrics};
use crate::units::{par_runtime, run_par, run_sim, SimStats};
use bulk_obs::{prometheus, Obs, PromScope};
use bulk_par::ParStats;
use bulk_trace::jobspec::JobSpec;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// A plain loop times at least this many units, so the top of its p90
/// band (p95) has at least ten samples above it.
pub const MIN_UNITS: usize = 200;
/// Half-widths of the bands the end-to-end p50 and p90 average over
/// ([`band_quantile`]): p40–p60 and p85–p95.
const P50_BAND: f64 = 0.1;
/// See [`P50_BAND`].
const P90_BAND: f64 = 0.05;
/// Every loop makes at least two passes, so every sim unit and every job
/// spec is repeated and its repeat compared with its first run.
pub const MIN_PASSES: usize = 2;
/// The parallel-runtime probe repeats its pass for at least this long.
const PAR_PROBE: Duration = Duration::from_secs(1);

/// Counts attempted and failed operations, keeping the first few errors.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (units, scrapes, probe runs).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first errors, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts `r`; returns its value when it passed.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopData {
    /// Host time of each passing unit (job: submit to done line).
    pub latency_ns: Vec<u64>,
    /// Submit to the first output the client sees: the first streamed
    /// event of a job; the whole result of a sim or parallel run.
    pub first_ns: Vec<u64>,
    /// Host time the client waited on the program: units plus scrapes.
    pub program_ns: u64,
    /// Trace loads and stores of the passing units.
    pub accesses: u64,
    /// Passes completed (bulkd: one session per trace seed each).
    pub passes: usize,
    /// Units attempted, passing or not.
    pub attempted: usize,
    /// Simulated cycles of one pass (sim workloads).
    pub pass_cycles: u64,
    /// Passing jobs with their unit index (bulkd).
    pub jobs: Vec<(usize, JobTrace)>,
    /// Passing scrapes (bulkd).
    pub scrapes: Vec<Scrape>,
    /// Jobs the daemon retained at the end of each session (bulkd).
    pub retained: Vec<u64>,
    /// Per pass, the highest resident memory sampled after each unit, MB.
    pub pass_rss_mb: Vec<f64>,
}

/// The first result of every sim unit and job spec; repeats must match.
#[derive(Debug, Default)]
pub struct References {
    sim: Vec<Option<SimStats>>,
    streams: Vec<Option<u64>>,
}

fn repeat_check<T: PartialEq + Clone>(
    refs: &mut Vec<Option<T>>,
    i: usize,
    v: &T,
    what: &str,
) -> Result<(), String> {
    if refs.len() <= i {
        refs.resize_with(i + 1, || None);
    }
    match &refs[i] {
        Some(first) if first != v => Err(format!("unit {i}: a repeat changed its {what}")),
        Some(_) => Ok(()),
        None => {
            refs[i] = Some(v.clone());
            Ok(())
        }
    }
}

/// Runs `inputs`' closed loop until `budget` has passed, at least
/// `min_passes` passes are done and at least `min_units` units were
/// attempted.
/// `obs` attaches the program's observability bundle to every sim run.
pub fn closed_loop(
    inputs: &Inputs,
    budget: Duration,
    min_passes: usize,
    min_units: usize,
    obs: bool,
    refs: &mut References,
    tally: &mut Tally,
) -> io::Result<LoopData> {
    let mut d = LoopData::default();
    let start = Instant::now();
    let rt = par_runtime(inputs.seed);
    while d.passes < min_passes || d.attempted < min_units || start.elapsed() < budget {
        let (mut cycles, mut rss_mb) = (0, 0.0f64);
        match inputs.workload {
            Workload::SimPaper => {
                for (i, unit) in inputs.units.iter().enumerate() {
                    let o = obs.then(|| Arc::new(Obs::new()));
                    let (ns, r) = run_sim(inputs, unit, false, o);
                    rss_mb = rss_mb.max(resident_mb());
                    let r = r.and_then(|s| refs_sim(refs, i, s));
                    if let Some(s) = tally.check(r) {
                        cycles += s.cycles;
                        d.push_unit(unit, ns, ns);
                    }
                }
            }
            Workload::ParThreads => {
                for unit in &inputs.units {
                    let (ns, r) = run_par(&rt, inputs, unit);
                    rss_mb = rss_mb.max(resident_mb());
                    if tally.check(r).is_some() {
                        d.push_unit(unit, ns, ns);
                    }
                }
            }
            Workload::BulkdLive => {
                // One session per trace seed keeps the daemon's job table,
                // and so a scrape's cost, the same size for every seed count.
                for mix in inputs.seed_groups() {
                    let s = jobs::session(inputs, &mix)?;
                    rss_mb = rss_mb.max(s.rss_mb);
                    for (i, job) in s.jobs {
                        let r = job.and_then(|j| {
                            repeat_check(&mut refs.streams, i, &j.stream_hash, "event stream")
                                .map(|()| j)
                        });
                        if let Some(j) = tally.check(r) {
                            d.push_unit(&inputs.units[i], j.done_ns, j.first_event_ns);
                            d.jobs.push((i, j));
                        }
                    }
                    for sc in s.scrapes {
                        if let Some(sc) = tally.check(sc) {
                            d.program_ns += sc.ns;
                            d.scrapes.push(sc);
                        }
                    }
                    d.retained.push(s.jobs_retained);
                }
            }
        }
        d.pass_cycles = cycles;
        d.pass_rss_mb.push(rss_mb);
        d.passes += 1;
        d.attempted += inputs.units.len()
            * if inputs.workload == Workload::BulkdLive {
                jobs::ROUNDS_PER_SESSION
            } else {
                1
            };
    }
    Ok(d)
}

/// One untimed pass, so allocator growth, page faults and the first
/// daemon's start are not timed. Its units are checked like any other and
/// become the references every timed repeat must match.
///
/// # Errors
///
/// As [`closed_loop`].
pub fn warm_up(inputs: &Inputs, refs: &mut References, tally: &mut Tally) -> io::Result<()> {
    closed_loop(inputs, Duration::ZERO, 1, 0, false, refs, tally).map(drop)
}

fn refs_sim(refs: &mut References, i: usize, s: SimStats) -> Result<SimStats, String> {
    repeat_check(&mut refs.sim, i, &s, "simulated stats").map(|()| s)
}

impl LoopData {
    fn absorb(&mut self, o: LoopData) {
        self.latency_ns.extend(o.latency_ns);
        self.first_ns.extend(o.first_ns);
        self.program_ns += o.program_ns;
        self.accesses += o.accesses;
        self.passes += o.passes;
        self.attempted += o.attempted;
        self.pass_cycles = o.pass_cycles;
        self.jobs.extend(o.jobs);
        self.scrapes.extend(o.scrapes);
        self.retained.extend(o.retained);
        self.pass_rss_mb.extend(o.pass_rss_mb);
    }

    fn push_unit(&mut self, unit: &Unit, latency_ns: u64, first_ns: u64) {
        self.latency_ns.push(latency_ns);
        self.first_ns.push(first_ns);
        self.program_ns += latency_ns;
        self.accesses += unit.accesses;
    }
}

/// Resident memory of this process now, in MB, from `/proc/self/status`.
pub fn resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Generates the inputs `SETUPS` times (bulkd: plus a daemon spawn and
/// ping each time). Returns the inputs and each set-up's and each
/// generation's host seconds.
pub fn setup(workload: Workload, seed: u64) -> io::Result<(Inputs, Vec<f64>, Vec<f64>)> {
    let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let start = Instant::now();
        let generated = inputs::generate(workload, seed);
        gen_s.push(start.elapsed().as_secs_f64());
        if workload == Workload::BulkdLive {
            let daemon = jobs::Daemon::spawn()?;
            setup_s.push(start.elapsed().as_secs_f64());
            drop(daemon);
        } else {
            setup_s.push(start.elapsed().as_secs_f64());
        }
        inputs = Some(black_box(generated));
    }
    let inputs = inputs.expect("SETUPS is at least one");
    Ok((inputs, setup_s, gen_s))
}

/// The end-to-end metrics of a plain loop.
pub fn end_to_end(d: &LoopData, setup_s: &[f64]) -> Metrics {
    let lat = ns_to_ms(&d.latency_ns);
    let mut m = Metrics::default();
    m.set("setup_s", median(setup_s), "s");
    m.set(
        "accesses_per_s",
        ratio(d.accesses as f64, d.program_ns as f64 / 1e9),
        "1/s",
    );
    m.set("latency_ms_p50", band_quantile(&lat, 0.5, P50_BAND), "ms");
    m.set("latency_ms_p90", band_quantile(&lat, 0.9, P90_BAND), "ms");
    m.set(
        "first_event_ms_p50",
        band_quantile(&ns_to_ms(&d.first_ns), 0.5, P50_BAND),
        "ms",
    );
    // Not the process's all-time peak (`VmHWM`): that grows with run
    // length and is set by whichever moment the daemon's threads happened
    // to overlap most.
    m.set("peak_rss_mb", median(&d.pass_rss_mb), "MB");
    m
}

fn sum_counter(regs: &[Arc<Obs>], suffix: &str) -> f64 {
    regs.iter()
        .flat_map(|o| o.registry().counters())
        .filter(|(n, _)| n.strip_prefix("tm.").or_else(|| n.strip_prefix("tls.")) == Some(suffix))
        .map(|(_, v)| v as f64)
        .sum()
}

fn sum_histogram(regs: &[Arc<Obs>], suffix: &str) -> f64 {
    regs.iter()
        .flat_map(|o| o.registry().histograms())
        .filter(|(n, _)| n.strip_prefix("tm.").or_else(|| n.strip_prefix("tls.")) == Some(suffix))
        .map(|(_, h)| h.sum() as f64)
        .sum()
}

/// Sim probe: every trace of `inputs` under all eight sim schemes, once
/// plain (timed) and once with `Obs` attached (counted). Also the
/// audit probe: the Bulk-family runs again with the auditor on.
fn sim_probe(inputs: &Inputs, tally: &mut Tally, m: &mut Metrics) {
    let units = inputs::units_like(inputs, Workload::SimPaper);
    let mut by_scheme: Vec<(String, Vec<f64>)> = Vec::new();
    let (mut tm_ns, mut tm_acc, mut tls_ns, mut tls_acc) = (0.0, 0.0, 0.0, 0.0);
    let (mut tm_cs, mut tls_cs) = ((0.0, 0.0), (0.0, 0.0));
    let (mut cycles, mut regs, mut labels) = (0u64, Vec::new(), Vec::new());
    let (mut plain_ns, mut audit_ns, mut checks) = (0.0, 0.0, 0.0);
    for unit in &units {
        let (ns, plain) = run_sim(inputs, unit, false, None);
        let Some(s) = tally.check(plain) else {
            continue;
        };
        let key = unit.scheme_key();
        match by_scheme.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(ns as f64 / 1e6),
            None => by_scheme.push((key.clone(), vec![ns as f64 / 1e6])),
        }
        let (acc_ns, acc, cs) = match unit.machine {
            Machine::Tm(..) => (&mut tm_ns, &mut tm_acc, &mut tm_cs),
            Machine::Tls(..) => (&mut tls_ns, &mut tls_acc, &mut tls_cs),
        };
        *acc_ns += ns as f64;
        *acc += unit.accesses as f64;
        cs.0 += s.commits as f64;
        cs.1 += s.squashes as f64;
        cycles += s.cycles;
        let obs = Arc::new(Obs::new());
        let (_, observed) = run_sim(inputs, unit, false, Some(Arc::clone(&obs)));
        let observed = observed.and_then(|o| {
            if o == s {
                Ok(o)
            } else {
                Err(format!(
                    "{}: attaching Obs changed the simulated stats",
                    unit.spec_line
                ))
            }
        });
        if tally.check(observed).is_some() {
            regs.push(obs);
            labels.push(key.clone());
        }
        let signatures = match unit.machine {
            Machine::Tm(_, sch) => sch.uses_signatures(),
            Machine::Tls(_, sch) => sch.uses_signatures(),
        };
        if signatures {
            let (a_ns, audited) = run_sim(inputs, unit, true, None);
            if let Some(a) = tally.check(audited) {
                plain_ns += ns as f64;
                audit_ns += a_ns as f64;
                checks += a.audit_checks as f64;
            }
        }
    }
    for (key, v) in &by_scheme {
        m.set(format!("{key}.run_ms"), median(v), "ms");
    }
    m.set("tm.ns_per_access", ratio(tm_ns, tm_acc), "ns");
    m.set("tls.ns_per_access", ratio(tls_ns, tls_acc), "ns");
    m.set(
        "tm.commit_efficiency",
        ratio(tm_cs.0, tm_cs.0 + tm_cs.1),
        "frac",
    );
    m.set(
        "tls.commit_efficiency",
        ratio(tls_cs.0, tls_cs.0 + tls_cs.1),
        "frac",
    );
    m.set("sim.cycles", cycles as f64, "cycles");
    let c = |n: &str| sum_counter(&regs, n);
    m.set("sig.expansion.calls", c("expansion.calls"), "count");
    m.set("sig.expansion.tag_reads", c("expansion.tag_reads"), "count");
    m.set(
        "sig.expansion.match_frac",
        ratio(c("expansion.matched_lines"), c("expansion.tag_reads")),
        "frac",
    );
    for v in [
        "true_positive",
        "false_positive",
        "true_negative",
        "false_negative",
    ] {
        m.set(
            format!("core.verdict.{v}"),
            c(&format!("verdict.{v}")),
            "count",
        );
    }
    let (fp, tn) = (c("verdict.false_positive"), c("verdict.true_negative"));
    m.set("core.false_positive_frac", ratio(fp, fp + tn), "frac");
    m.set("core.squash.aliasing", c("squash.aliasing"), "count");
    m.set(
        "core.invalidate.overshoot_frac",
        ratio(c("invalidate.overshoot"), c("invalidate.lines")),
        "frac",
    );
    m.set("mem.overflow.lookups", c("overflow.lookups"), "count");
    m.set(
        "mem.overflow.walked_entries",
        c("overflow.walked_entries"),
        "count",
    );
    m.set(
        "sim.commit.payload_bytes",
        sum_histogram(&regs, "commit.payload_bytes"),
        "bytes",
    );
    let total = c("cycles.total");
    for part in ["useful", "squashed", "commit", "stall", "overhead"] {
        m.set(
            format!("sim.cycles.{part}_frac"),
            ratio(c(&format!("cycles.{part}")), total),
            "frac",
        );
    }
    let scopes: Vec<PromScope<'_>> = regs
        .iter()
        .zip(&labels)
        .map(|(o, l)| PromScope::labelled(&[("unit", l.as_str())], o.registry()))
        .collect();
    m.set(
        "obs.prometheus_encode_ms",
        median_ns(|| {
            black_box(prometheus::encode(&scopes));
        }) / 1e6,
        "ms",
    );
    m.set("chaos.audit.checks", checks, "count");
    m.set(
        "chaos.audit.ns_per_check",
        ratio(audit_ns - plain_ns, checks),
        "ns",
    );
    m.set("chaos.audit.overhead_x", ratio(audit_ns, plain_ns), "x");
}

/// Parallel-runtime probe: every trace of `inputs` under Bulk and Lazy on
/// OS threads, whole passes for at least [`PAR_PROBE`]. Counts are the
/// first pass's.
fn par_probe(inputs: &Inputs, tally: &mut Tally, m: &mut Metrics) {
    let units = inputs::units_like(inputs, Workload::ParThreads);
    let rt = par_runtime(inputs.seed);
    let (mut tm_ms, mut tls_ms, mut spawn_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = ParStats::default();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < PAR_PROBE {
        for unit in &units {
            let (ns, r) = run_par(&rt, inputs, unit);
            let Some(s) = tally.check(r) else { continue };
            match unit.machine {
                Machine::Tm(..) => tm_ms.push(ns as f64 / 1e6),
                Machine::Tls(..) => tls_ms.push(ns as f64 / 1e6),
            }
            spawn_ms.push(ns.saturating_sub(s.wall_ns) as f64 / 1e6);
            if pass == 0 {
                first.commits += s.commits;
                first.squashes += s.squashes;
                first.false_squashes += s.false_squashes;
                first.records += s.records;
                first.claim_retries += s.claim_retries;
                first.audit_checks += s.audit_checks;
            }
        }
        pass += 1;
    }
    m.set("par.tm.run_ms", median(&tm_ms), "ms");
    m.set("par.tls.run_ms", median(&tls_ms), "ms");
    m.set("par.spawn_join_ms", median(&spawn_ms), "ms");
    m.set("par.records", first.records as f64, "count");
    m.set("par.claim_retries", first.claim_retries as f64, "count");
    let (retries, records) = (first.claim_retries as f64, first.records as f64);
    m.set(
        "par.claim_retry_frac",
        ratio(retries, retries + records),
        "frac",
    );
    let (commits, squashes) = (first.commits as f64, first.squashes as f64);
    m.set(
        "par.commit_efficiency",
        ratio(commits, commits + squashes),
        "frac",
    );
    m.set(
        "par.false_squash_frac",
        ratio(first.false_squashes as f64, squashes),
        "frac",
    );
    m.set("par.audit_checks", first.audit_checks as f64, "count");
}

/// bulkd metrics from `d`'s sessions, with each job's latency compared to
/// an in-process run of the same spec (`Obs` attached, as the daemon
/// runs it).
fn bulkd_metrics(jobs_in: &Inputs, d: &LoopData, tally: &mut Tally, m: &mut Metrics) {
    let inproc: Vec<Option<u64>> = jobs_in
        .units
        .iter()
        .map(|u| {
            let (ns, r) = run_sim(jobs_in, u, false, Some(Arc::new(Obs::new())));
            tally.check(r).map(|_| ns)
        })
        .collect();
    let ms = |f: &dyn Fn(&JobTrace) -> u64| -> f64 {
        median(
            &d.jobs
                .iter()
                .map(|(_, j)| f(j) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    m.set("bulkd.accept_ms", ms(&|j| j.accepted_ns), "ms");
    m.set("bulkd.first_event_ms", ms(&|j| j.first_event_ns), "ms");
    m.set(
        "bulkd.stream_ms",
        ms(&|j| j.trailer_ns.saturating_sub(j.first_event_ns)),
        "ms",
    );
    m.set(
        "bulkd.tail_ms",
        ms(&|j| j.done_ns.saturating_sub(j.trailer_ns)),
        "ms",
    );
    let shares: Vec<f64> = d
        .jobs
        .iter()
        .filter_map(|(i, j)| inproc[*i].map(|ns| ratio(ns as f64, j.done_ns as f64)))
        .collect();
    m.set("bulkd.run_share", median(&shares), "frac");
    let scrape_ms: Vec<f64> = d.scrapes.iter().map(|s| s.ns as f64 / 1e6).collect();
    m.set("bulkd.scrape_ms", median(&scrape_ms), "ms");
    let bytes: Vec<f64> = d.scrapes.iter().map(|s| s.bytes as f64).collect();
    m.set("bulkd.scrape_bytes", median(&bytes), "bytes");
    m.set(
        "bulkd.jobs_retained",
        d.retained.iter().copied().max().unwrap_or(0) as f64,
        "count",
    );
    let per_session = |f: &dyn Fn(&JobTrace) -> u64| -> f64 {
        d.jobs.iter().map(|(_, j)| f(j) as f64).sum::<f64>() / d.retained.len().max(1) as f64
    };
    m.set("obs.events_streamed", per_session(&|j| j.events), "count");
    m.set("obs.events_dropped", per_session(&|j| j.dropped), "count");
}

/// The per-layer metrics: plain and traced passes alternating for
/// `seconds`, then every layer probe on `inputs`.
pub fn per_layer(
    inputs: &Inputs,
    gen_s: &[f64],
    seconds: f64,
    tally: &mut Tally,
) -> io::Result<Metrics> {
    let mut m = Metrics::default();
    let mut refs = References::default();
    warm_up(inputs, &mut refs, tally)?;
    // Plain and traced passes alternate, so drift in the host's speed
    // over the run does not read as tracing overhead.
    let (mut plain, mut traced) = (LoopData::default(), LoopData::default());
    let start = Instant::now();
    while plain.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        plain.absorb(closed_loop(
            inputs,
            Duration::ZERO,
            1,
            0,
            false,
            &mut refs,
            tally,
        )?);
        traced.absorb(closed_loop(
            inputs,
            Duration::ZERO,
            1,
            0,
            true,
            &mut refs,
            tally,
        )?);
    }
    m.set("trace.generate_ms", median(gen_s) * 1e3, "ms");
    let specs: Vec<&str> = inputs.units.iter().map(|u| u.spec_line.as_str()).collect();
    let parse_ns = median_ns(|| {
        for s in &specs {
            black_box(JobSpec::parse(s).ok());
        }
    });
    m.set(
        "trace.jobspec_parse_ns",
        parse_ns / specs.len().max(1) as f64,
        "ns",
    );
    for (name, ns) in replay::time_layers(&replay::streams(inputs)) {
        m.set(name, ns, "ns");
    }
    sim_probe(inputs, tally, &mut m);
    par_probe(inputs, tally, &mut m);
    let plain_ms = median(&ns_to_ms(&plain.latency_ns));
    m.set(
        "obs.overhead_frac",
        ratio(median(&ns_to_ms(&traced.latency_ns)), plain_ms) - 1.0,
        "frac",
    );
    if inputs.workload == Workload::BulkdLive {
        bulkd_metrics(inputs, &traced, tally, &mut m);
    } else {
        let jobs_in = inputs::generate(Workload::BulkdLive, inputs.seed);
        let mut r = References::default();
        let d = closed_loop(&jobs_in, Duration::ZERO, 1, 0, false, &mut r, tally)?;
        bulkd_metrics(&jobs_in, &d, tally, &mut m);
    }
    Ok(m)
}
