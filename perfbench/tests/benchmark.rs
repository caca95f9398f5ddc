//! The benchmark's own checks: its inputs and probes agree with the
//! program's oracles, and its determinism checks hold on a clean build.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use bulk_par::{same_commit_class, Runtime, SimRuntime};
use bulk_sim::SimConfig;
use perfbench::bench::{closed_loop, References, Tally};
use perfbench::inputs::{generate, Machine, Workload};
use perfbench::jobs::{self, Daemon};
use perfbench::replay;
use perfbench::units::{par_runtime, run_par_report, run_sim};
use std::time::Duration;

const SEED: u64 = 42;

#[test]
fn par_threads_inputs_land_in_the_sim_commit_class() {
    let inputs = generate(Workload::ParThreads, SEED);
    let rt = par_runtime(SEED);
    for unit in &inputs.units {
        let sim = match unit.machine {
            Machine::Tm(i, s) => SimRuntime.run_tm(&inputs.tm[i], s, &SimConfig::tm_default()),
            Machine::Tls(i, s) => SimRuntime.run_tls(&inputs.tls[i], s, &SimConfig::tls_default()),
        }
        .expect("the sim oracle runs every par-threads input");
        let (_, par) = run_par_report(&rt, &inputs, unit);
        let par = par.unwrap_or_else(|e| panic!("{e}"));
        same_commit_class(&sim, &par).unwrap_or_else(|e| panic!("{}: {e}", unit.spec_line));
        assert_eq!(sim.commits, unit.expected_commits, "{}", unit.spec_line);
    }
}

#[test]
fn two_sim_paper_passes_give_identical_sim_cycles() {
    let inputs = generate(Workload::SimPaper, SEED);
    let pass = || {
        let mut tally = Tally::default();
        let d = closed_loop(
            &inputs,
            Duration::ZERO,
            1,
            0,
            false,
            &mut References::default(),
            &mut tally,
        )
        .expect("sim loops do no I/O");
        assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        assert_eq!(tally.attempted, inputs.units.len() as u64);
        d.pass_cycles
    };
    let first = pass();
    assert!(first > 0);
    assert_eq!(first, pass());
}

#[test]
fn a_repeated_bulkd_spec_streams_byte_identical_jsonl() {
    let inputs = generate(Workload::BulkdLive, SEED);
    let daemon = Daemon::spawn().expect("daemon starts on loopback");
    for unit in [&inputs.units[0], inputs.units.last().expect("units")] {
        let a = jobs::submit(&daemon.ingest(), unit).unwrap_or_else(|e| panic!("{e}"));
        let b = jobs::submit(&daemon.ingest(), unit).unwrap_or_else(|e| panic!("{e}"));
        assert!(a.events > 0, "{} streamed no events", unit.spec_line);
        assert_eq!(
            (a.events, a.stream_hash),
            (b.events, b.stream_hash),
            "{}",
            unit.spec_line
        );
        let x = bulkd::client::submit_spec(&daemon.ingest(), &unit.spec_line).expect("submit");
        let y = bulkd::client::submit_spec(&daemon.ingest(), &unit.spec_line).expect("submit");
        assert!(x.ok() && y.ok());
        assert_eq!(x.event_jsonl(), y.event_jsonl(), "{}", unit.spec_line);
    }
}

#[test]
fn replay_verdicts_match_bdm_disambiguate() {
    for w in [Workload::SimPaper, Workload::BulkdLive] {
        let inputs = generate(w, SEED);
        let mut conflicts = 0;
        for s in replay::streams(&inputs) {
            let sigs = replay::signatures(&s);
            let by_sig = replay::sig_verdicts(&s, &sigs);
            assert_eq!(by_sig, replay::bdm_verdicts(&s, &sigs));
            assert_eq!(by_sig.len(), s.pairs.len());
            conflicts += by_sig.iter().filter(|&&v| v).count();
        }
        assert!(conflicts > 0, "{w}: the replayed pairs never conflict");
    }
}

#[test]
fn a_wrong_result_is_a_counted_failure_not_a_panic() {
    let mut inputs = generate(Workload::BulkdLive, SEED);
    inputs.units[0].expected_commits += 1;
    let (_, r) = run_sim(&inputs, &inputs.units[0], false, None);
    let mut tally = Tally::default();
    assert!(tally.check(r).is_none());
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(
        tally.errors[0].contains("commits, expected"),
        "{}",
        tally.errors[0]
    );
}
