//! Workload inputs, generated from the workload seed alone.
//!
//! Every input the program receives is a trace from `bulk_trace`'s
//! profile generators (Tables 6 and 7) or a job spec naming one. A unit
//! is one closed-loop step: one machine run, or one bulkd job.

use bulk_tls::TlsScheme;
use bulk_tm::Scheme;
use bulk_trace::{profiles, TlsOp, TlsWorkload, TmOp, TmWorkload};
use std::fmt;
use std::str::FromStr;

/// TM transactions per thread and TLS tasks of one bulkd job: small
/// enough that a job's events fit its ring and stream without drops.
const JOB_TXS: usize = 20;
/// See [`JOB_TXS`].
const JOB_TASKS: usize = 100;
/// Wall-clock budget of one bulkd job; a hang becomes a counted failure.
pub const JOB_TIMEOUT_MS: u64 = 10_000;
/// Threads per TM run and workers per TLS run on the parallel runtime.
pub const PAR_THREADS: usize = 2;
/// Trace seeds derived from the workload seed that one pass covers.
/// Parallel runs take 1–8 ms and the slowest bulkd jobs 20–25 ms, so a
/// pass over one seed's traces would let that seed's few slowest inputs
/// set the p90; `sim-paper`'s spread is set by the host, not its inputs.
fn trace_seeds(w: Workload) -> u64 {
    match w {
        Workload::SimPaper => 1,
        Workload::ParThreads | Workload::BulkdLive => 4,
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every TM and TLS profile under four schemes each, plain sim.
    SimPaper,
    /// TM and TLS profiles on OS threads (`ParRuntime`), Bulk and Lazy.
    ParThreads,
    /// Small sim jobs submitted one at a time to an in-process bulkd.
    BulkdLive,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SimPaper,
        Workload::ParThreads,
        Workload::BulkdLive,
    ];

    /// The name the benchmark's `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim-paper",
            Workload::ParThreads => "par-threads",
            Workload::BulkdLive => "bulkd-live",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{s}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which machine a unit runs, on which input, under which scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Index into [`Inputs::tm`].
    Tm(usize, Scheme),
    /// Index into [`Inputs::tls`].
    Tls(usize, TlsScheme),
}

/// One closed-loop step.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Machine, input and scheme.
    pub machine: Machine,
    /// Trace loads and stores the unit completes.
    pub accesses: u64,
    /// Commits a correct run reports: TM transactions or TLS tasks.
    pub expected_commits: u64,
    /// The unit as a bulkd job-spec line (what `BulkdLive` submits).
    pub spec_line: String,
}

impl Unit {
    /// `tm.bulk`, `tls.bulk_no_overlap`, … — the per-scheme metric stem.
    pub fn scheme_key(&self) -> String {
        match self.machine {
            Machine::Tm(_, s) => format!("tm.{}", s.kebab_name().replace('-', "_")),
            Machine::Tls(_, s) => format!("tls.{}", s.kebab_name().replace('-', "_")),
        }
    }
}

/// Everything a workload feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// The workload seed they were generated from.
    pub seed: u64,
    /// TM traces, one per TM profile and trace seed.
    pub tm: Vec<TmWorkload>,
    /// The seed each TM trace was generated from.
    pub tm_seeds: Vec<u64>,
    /// TLS traces, one per TLS profile and trace seed.
    pub tls: Vec<TlsWorkload>,
    /// The seed each TLS trace was generated from.
    pub tls_seeds: Vec<u64>,
    /// One closed-loop pass, in order.
    pub units: Vec<Unit>,
}

impl Inputs {
    /// The trace seed of `unit`'s input.
    fn unit_seed(&self, unit: &Unit) -> u64 {
        match unit.machine {
            Machine::Tm(i, _) => self.tm_seeds[i],
            Machine::Tls(i, _) => self.tls_seeds[i],
        }
    }

    /// Indices into [`Inputs::units`], one group per trace seed, in the
    /// order the seeds were generated; each group keeps pass order.
    pub fn seed_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, unit) in self.units.iter().enumerate() {
            let seed = self.unit_seed(unit);
            match groups.iter_mut().find(|(s, _)| *s == seed) {
                Some((_, g)) => g.push(i),
                None => groups.push((seed, vec![i])),
            }
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }
}

fn tm_schemes(w: Workload) -> &'static [Scheme] {
    match w {
        Workload::SimPaper => &[
            Scheme::Eager,
            Scheme::Lazy,
            Scheme::Bulk,
            Scheme::BulkPartial,
        ],
        Workload::ParThreads | Workload::BulkdLive => &[Scheme::Bulk, Scheme::Lazy],
    }
}

fn tls_schemes(w: Workload) -> &'static [TlsScheme] {
    match w {
        Workload::SimPaper => &[
            TlsScheme::Eager,
            TlsScheme::Lazy,
            TlsScheme::Bulk,
            TlsScheme::BulkNoOverlap,
        ],
        Workload::ParThreads | Workload::BulkdLive => &[TlsScheme::Bulk, TlsScheme::Lazy],
    }
}

/// Loads and stores of a TM trace.
fn tm_accesses(w: &TmWorkload) -> u64 {
    w.threads
        .iter()
        .flat_map(|t| &t.ops)
        .filter(|op| matches!(op, TmOp::Read(_) | TmOp::Write(_)))
        .count() as u64
}

/// Outermost transactions of a TM trace: the commits a correct run makes.
fn tm_transactions(w: &TmWorkload) -> u64 {
    let mut n = 0;
    for t in &w.threads {
        let mut depth = 0usize;
        for op in &t.ops {
            match op {
                TmOp::Begin => {
                    if depth == 0 {
                        n += 1;
                    }
                    depth += 1;
                }
                TmOp::End => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    n
}

/// Loads and stores of a TLS trace.
fn tls_accesses(w: &TlsWorkload) -> u64 {
    w.tasks
        .iter()
        .flat_map(|t| &t.ops)
        .filter(|op| matches!(op, TlsOp::Read(_) | TlsOp::Write(_)))
        .count() as u64
}

/// The job-spec line of one unit: `runtime` is the workload whose
/// substrate runs it, `sized` the workload whose trace sizes it uses.
fn spec_line(
    machine: &str,
    app: &str,
    scheme: &str,
    seed: u64,
    sized: Workload,
    runtime: Workload,
) -> String {
    let runtime = if runtime == Workload::ParThreads {
        "par"
    } else {
        "sim"
    };
    let mut line = format!(
        "{{\"machine\": \"{machine}\", \"app\": \"{app}\", \"scheme\": \"{scheme}\", \
         \"seed\": {seed}, \"runtime\": \"{runtime}\""
    );
    if sized == Workload::BulkdLive {
        let size = if machine == "tm" {
            format!("\"txs\": {JOB_TXS}")
        } else {
            format!("\"tasks\": {JOB_TASKS}")
        };
        line.push_str(&format!(", {size}, \"timeout_ms\": {JOB_TIMEOUT_MS}"));
    }
    line.push('}');
    line
}

/// The `k`-th trace seed of workload seed `seed` (`k = 0` is `seed`
/// itself); splitmix64 keeps nearby workload seeds from sharing traces.
fn trace_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates `workload`'s inputs from `seed`: the same seed gives the same
/// traces, units and spec lines.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let seeds = trace_seeds(workload);
    let mut inputs = Inputs {
        workload,
        seed,
        tm: Vec::new(),
        tm_seeds: Vec::new(),
        tls: Vec::new(),
        tls_seeds: Vec::new(),
        units: Vec::new(),
    };
    for s in (0..seeds).map(|k| trace_seed(seed, k)) {
        for mut p in profiles::tm_profiles() {
            match workload {
                Workload::ParThreads => p.threads = PAR_THREADS,
                Workload::BulkdLive => p.txs_per_thread = JOB_TXS,
                Workload::SimPaper => {}
            }
            inputs.tm.push(p.generate(s));
            inputs.tm_seeds.push(s);
        }
        for mut p in profiles::tls_profiles() {
            if workload == Workload::BulkdLive {
                p.tasks = JOB_TASKS;
            }
            inputs.tls.push(p.generate(s));
            inputs.tls_seeds.push(s);
        }
    }
    inputs.units = units_like(&inputs, workload);
    inputs
}

/// The units workload `like` runs (its schemes, its substrate), on the
/// traces of `inputs`: every TM trace under each TM scheme, then every
/// TLS trace under each TLS scheme.
pub fn units_like(inputs: &Inputs, like: Workload) -> Vec<Unit> {
    let sized = inputs.workload;
    let mut units = Vec::new();
    for (i, trace) in inputs.tm.iter().enumerate() {
        let (accesses, commits) = (tm_accesses(trace), tm_transactions(trace));
        for &s in tm_schemes(like) {
            units.push(Unit {
                machine: Machine::Tm(i, s),
                accesses,
                expected_commits: commits,
                spec_line: spec_line(
                    "tm",
                    &trace.name,
                    s.kebab_name(),
                    inputs.tm_seeds[i],
                    sized,
                    like,
                ),
            });
        }
    }
    for (i, trace) in inputs.tls.iter().enumerate() {
        let accesses = tls_accesses(trace);
        for &s in tls_schemes(like) {
            units.push(Unit {
                machine: Machine::Tls(i, s),
                accesses,
                expected_commits: trace.tasks.len() as u64,
                spec_line: spec_line(
                    "tls",
                    &trace.name,
                    s.kebab_name(),
                    inputs.tls_seeds[i],
                    sized,
                    like,
                ),
            });
        }
    }
    units
}
