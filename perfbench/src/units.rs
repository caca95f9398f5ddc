//! Running one unit on the sim or on OS threads, and checking its output.
//!
//! A unit that fails a check is returned as an error string, counted by
//! the caller, and never panics the benchmark.

use crate::inputs::{Inputs, Machine, Unit, PAR_THREADS};
use bulk_core::CommitEvent;
use bulk_mem::BandwidthStats;
use bulk_obs::Obs;
use bulk_par::{ParConfig, ParRuntime, ParStats, RunDetail, RunReport, Runtime};
use bulk_sim::SimConfig;
use bulk_tls::{TlsMachine, TlsStats};
use bulk_tm::{TmMachine, TmStats};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock budget of a parallel run's watchdog: a hung worker becomes
/// a `RuntimeError`, which the benchmark counts as a failed unit.
const PAR_STALL_TIMEOUT_MS: u64 = 10_000;

/// The simulated statistics a repeat of a sim unit must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Commits.
    pub commits: u64,
    /// Squashes.
    pub squashes: u64,
    /// Squashes a signature's aliasing alone caused.
    pub false_squashes: u64,
    /// Invariant checks the auditor made (0 when audit is off).
    pub audit_checks: u64,
    /// Interconnect traffic by class.
    pub bw: BandwidthStats,
    /// Every commit, in commit order.
    pub history: Vec<CommitEvent>,
}

impl From<&TmStats> for SimStats {
    fn from(s: &TmStats) -> Self {
        SimStats {
            cycles: s.cycles,
            commits: s.commits,
            squashes: s.squashes,
            false_squashes: s.false_squashes,
            audit_checks: s.audit_checks,
            bw: s.bw,
            history: s.history.clone(),
        }
    }
}

impl From<&TlsStats> for SimStats {
    fn from(s: &TlsStats) -> Self {
        SimStats {
            cycles: s.cycles,
            commits: s.commits,
            squashes: s.squashes,
            false_squashes: s.false_squashes,
            audit_checks: s.audit_checks,
            bw: s.bw,
            history: s.history.clone(),
        }
    }
}

fn check_sim(
    unit: &Unit,
    commits: u64,
    violations: usize,
    liveness: usize,
    first_violation: impl FnOnce() -> String,
) -> Result<(), String> {
    if violations + liveness > 0 {
        return Err(format!(
            "{}: {violations} invariant and {liveness} liveness violations, first: {}",
            unit.spec_line,
            first_violation()
        ));
    }
    if commits != unit.expected_commits {
        return Err(format!(
            "{}: {commits} commits, expected {}",
            unit.spec_line, unit.expected_commits
        ));
    }
    Ok(())
}

/// Runs `unit` on the simulator, timing construction and run together as
/// `run_tm`/`run_tls` do. Returns the host time in ns and the checked
/// statistics.
pub fn run_sim(
    inputs: &Inputs,
    unit: &Unit,
    audit: bool,
    obs: Option<Arc<Obs>>,
) -> (u64, Result<SimStats, String>) {
    let start = Instant::now();
    match unit.machine {
        Machine::Tm(i, scheme) => {
            let result = TmMachine::try_new(&inputs.tm[i], scheme, &SimConfig::tm_default())
                .and_then(|mut m| {
                    if audit {
                        m.enable_audit();
                    }
                    if let Some(obs) = obs {
                        m.attach_obs(obs);
                    }
                    m.try_run()
                });
            let ns = start.elapsed().as_nanos() as u64;
            let checked = result
                .map_err(|e| format!("{}: {e}", unit.spec_line))
                .and_then(|s| {
                    check_sim(
                        unit,
                        s.commits,
                        s.violations.len(),
                        s.liveness_violations.len(),
                        || first_of(&s.violations, &s.liveness_violations),
                    )?;
                    Ok(SimStats::from(&s))
                });
            (ns, checked)
        }
        Machine::Tls(i, scheme) => {
            let result = TlsMachine::try_new(&inputs.tls[i], scheme, &SimConfig::tls_default())
                .and_then(|mut m| {
                    if audit {
                        m.enable_audit();
                    }
                    if let Some(obs) = obs {
                        m.attach_obs(obs);
                    }
                    m.try_run()
                });
            let ns = start.elapsed().as_nanos() as u64;
            let checked = result
                .map_err(|e| format!("{}: {e}", unit.spec_line))
                .and_then(|s| {
                    check_sim(
                        unit,
                        s.commits,
                        s.violations.len(),
                        s.liveness_violations.len(),
                        || first_of(&s.violations, &s.liveness_violations),
                    )?;
                    Ok(SimStats::from(&s))
                });
            (ns, checked)
        }
    }
}

fn first_of<A: std::fmt::Display, B: std::fmt::Display>(a: &[A], b: &[B]) -> String {
    a.first()
        .map(ToString::to_string)
        .or_else(|| b.first().map(ToString::to_string))
        .unwrap_or_default()
}

/// The parallel runtime the `par-threads` workload drives: two OS threads
/// (TM) or workers (TLS), no compute dwell, so runs are CPU-bound.
pub fn par_runtime(seed: u64) -> ParRuntime {
    ParRuntime::new(ParConfig {
        tls_workers: PAR_THREADS,
        compute_ns_per_kcycle: 0,
        seed,
        stall_timeout_ms: PAR_STALL_TIMEOUT_MS,
        ..ParConfig::default()
    })
}

/// Runs `unit` on OS threads. Returns the host time in ns and the report.
pub fn run_par_report(
    rt: &ParRuntime,
    inputs: &Inputs,
    unit: &Unit,
) -> (u64, Result<RunReport, String>) {
    let start = Instant::now();
    let result = match unit.machine {
        Machine::Tm(i, scheme) => rt.run_tm(&inputs.tm[i], scheme, &SimConfig::tm_default()),
        Machine::Tls(i, scheme) => rt.run_tls(&inputs.tls[i], scheme, &SimConfig::tls_default()),
    };
    let ns = start.elapsed().as_nanos() as u64;
    (ns, result.map_err(|e| format!("{}: {e}", unit.spec_line)))
}

/// [`run_par_report`] plus the unit's checks: no runtime error, an empty
/// audit, no duplicate application, every transaction or task committed.
pub fn run_par(rt: &ParRuntime, inputs: &Inputs, unit: &Unit) -> (u64, Result<ParStats, String>) {
    let (ns, report) = run_par_report(rt, inputs, unit);
    let checked = report.and_then(|r| {
        let RunDetail::Par(s) = r.detail else {
            return Err(format!("{}: not a parallel-runtime report", unit.spec_line));
        };
        if let Some(v) = s.violations.first() {
            return Err(format!("{}: audit: {v}", unit.spec_line));
        }
        if s.duplicate_applications > 0 {
            return Err(format!(
                "{}: {} duplicate applications",
                unit.spec_line, s.duplicate_applications
            ));
        }
        if s.commits != unit.expected_commits {
            return Err(format!(
                "{}: {} commits, expected {}",
                unit.spec_line, s.commits, unit.expected_commits
            ));
        }
        Ok(s)
    });
    (ns, checked)
}
