//! The `bulkd-live` client: an in-process daemon, one blocking client,
//! one connection at a time, every response line timestamped.

use crate::bench::resident_mb;
use crate::inputs::{Inputs, Unit, JOB_TIMEOUT_MS};
use bulkd::{DaemonConfig, DaemonHandle};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A session submits every job of the mix this many times, so each spec
/// is repeated and its stream can be compared byte for byte.
pub const ROUNDS_PER_SESSION: usize = 2;
/// `GET /metrics` after every this many jobs.
const SCRAPE_EVERY: usize = 8;
/// Client-side read timeout: longer than a job's own budget, so a daemon
/// that stops answering fails the job instead of wedging the benchmark.
const READ_TIMEOUT: Duration = Duration::from_millis(JOB_TIMEOUT_MS + 5_000);

/// A daemon that is always shut down and joined when dropped, including
/// when the benchmark unwinds from an error.
pub struct Daemon {
    handle: DaemonHandle,
}

impl Daemon {
    /// Binds both sockets on loopback ports chosen by the OS and waits
    /// until the ingest socket answers a ping.
    ///
    /// # Errors
    ///
    /// Bind failures and a daemon that does not answer its ping.
    pub fn spawn() -> io::Result<Daemon> {
        let handle = bulkd::spawn(DaemonConfig {
            default_timeout_ms: JOB_TIMEOUT_MS,
            ..DaemonConfig::default()
        })?;
        let daemon = Daemon { handle };
        let pong = bulkd::client::control(&daemon.ingest(), "ping")?;
        if !pong.contains("\"ok\": true") {
            return Err(io::Error::other(format!("daemon ping answered `{pong}`")));
        }
        Ok(daemon)
    }

    /// The ingest address.
    pub fn ingest(&self) -> String {
        self.handle.ingest_addr().to_string()
    }

    /// The HTTP address.
    pub fn http(&self) -> String {
        self.handle.http_addr().to_string()
    }

    /// Jobs the daemon's table holds (the `status` command's job count).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn jobs_retained(&self) -> io::Result<u64> {
        let status = bulkd::client::control(&self.ingest(), "status")?;
        Ok(status.matches("\"job\": ").count() as u64)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        self.handle.wait();
    }
}

/// One job as the client saw it. Times are ns since the spec was written.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// The `{"accepted": …}` line arrived.
    pub accepted_ns: u64,
    /// The first streamed event arrived; the trailer's time when the job
    /// streamed none.
    pub first_event_ns: u64,
    /// The `{"trailer": …}` line arrived.
    pub trailer_ns: u64,
    /// The done line arrived: the job's latency.
    pub done_ns: u64,
    /// Event lines streamed.
    pub events: u64,
    /// Events the daemon's ring dropped (from the trailer).
    pub dropped: u64,
    /// Hash of the event lines and the trailer: identical for identical
    /// specs.
    pub stream_hash: u64,
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Submits `unit`'s spec line and reads its stream to the done line.
/// Returns the client-side trace, or why the job failed: a socket error,
/// an error line, a done line that is not ok, or a wrong commit count.
pub fn submit(addr: &str, unit: &Unit) -> Result<JobTrace, String> {
    let fail = |e: io::Error| format!("{}: {e}", unit.spec_line);
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(fail)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(fail)?);
    let start = Instant::now();
    stream
        .write_all(format!("{}\n", unit.spec_line).as_bytes())
        .map_err(fail)?;
    stream.flush().map_err(fail)?;
    let mut trace = JobTrace::default();
    let mut hasher = DefaultHasher::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(fail)? == 0 {
            return Err(format!(
                "{}: connection closed before the done line",
                unit.spec_line
            ));
        }
        let now = start.elapsed().as_nanos() as u64;
        let l = line.trim_end();
        if l.starts_with("{\"accepted\"") {
            trace.accepted_ns = now;
        } else if l.starts_with("{\"error\"") {
            return Err(format!("{}: {l}", unit.spec_line));
        } else if l.starts_with("{\"done\"") {
            trace.done_ns = now;
            if !l.contains("\"status\": \"ok\"") {
                return Err(format!("{}: {l}", unit.spec_line));
            }
            let commits = field_u64(l, "commits");
            if commits != Some(unit.expected_commits) {
                return Err(format!(
                    "{}: done line reports {commits:?} commits, expected {}",
                    unit.spec_line, unit.expected_commits
                ));
            }
            if trace.trailer_ns == 0 {
                return Err(format!("{}: done line without a trailer", unit.spec_line));
            }
            break;
        } else if l.starts_with("{\"trailer\"") {
            trace.trailer_ns = now;
            if trace.events == 0 {
                trace.first_event_ns = now;
            }
            trace.dropped = field_u64(l, "dropped").unwrap_or(0);
            l.hash(&mut hasher);
        } else {
            if !l.starts_with('{') || !l.ends_with('}') {
                return Err(format!("{}: malformed event line `{l}`", unit.spec_line));
            }
            if trace.events == 0 {
                trace.first_event_ns = now;
            }
            trace.events += 1;
            l.hash(&mut hasher);
        }
    }
    trace.stream_hash = hasher.finish();
    Ok(trace)
}

/// One scrape as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Scrape {
    /// Host time of the `GET /metrics` round trip.
    pub ns: u64,
    /// Body size.
    pub bytes: u64,
}

/// `GET /metrics`, timed. The body must be a valid exposition.
pub fn scrape(addr: &str) -> Result<Scrape, String> {
    let start = Instant::now();
    let body = bulkd::client::scrape(addr).map_err(|e| format!("scrape: {e}"))?;
    let ns = start.elapsed().as_nanos() as u64;
    bulk_obs::prometheus::validate(&body)
        .map_err(|e| format!("scrape: invalid exposition: {e}"))?;
    Ok(Scrape {
        ns,
        bytes: body.len() as u64,
    })
}

/// Everything one session (fresh daemon, the job mix
/// [`ROUNDS_PER_SESSION`] times, a scrape every `SCRAPE_EVERY` jobs)
/// produced.
#[derive(Debug, Default)]
pub struct Session {
    /// Per job, in submission order: its unit index and its outcome.
    pub jobs: Vec<(usize, Result<JobTrace, String>)>,
    /// Every scrape.
    pub scrapes: Vec<Result<Scrape, String>>,
    /// Jobs the daemon retained at the end of the session.
    pub jobs_retained: u64,
    /// Highest resident memory sampled after each job, in MB.
    pub rss_mb: f64,
}

/// Runs one session over the units of `inputs` that `mix` indexes. A
/// daemon that cannot start is the only error; failed jobs and scrapes
/// are recorded in the session.
///
/// # Errors
///
/// The daemon failed to bind or to answer its ping.
pub fn session(inputs: &Inputs, mix: &[usize]) -> io::Result<Session> {
    let daemon = Daemon::spawn()?;
    let mut s = Session::default();
    let (ingest, http) = (daemon.ingest(), daemon.http());
    let mut submitted = 0;
    for _ in 0..ROUNDS_PER_SESSION {
        for &i in mix {
            s.jobs.push((i, submit(&ingest, &inputs.units[i])));
            s.rss_mb = s.rss_mb.max(resident_mb());
            submitted += 1;
            if submitted % SCRAPE_EVERY == 0 {
                s.scrapes.push(scrape(&http));
            }
        }
    }
    s.jobs_retained = daemon.jobs_retained()?;
    Ok(s)
}
