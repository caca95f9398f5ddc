//! Replays a workload's own address streams through the public `sig`,
//! `core` and `mem` APIs, timing each layer's operations in isolation.
//!
//! A *section* is what one signature pair covers: an outermost TM
//! transaction (nested sections included) or one TLS task. Each section
//! is disambiguated against the section it races with in the machine: the
//! same-numbered transaction of the next TM thread, or the next TLS task.

use crate::inputs::Inputs;
use crate::report::median_ns;
use bulk_core::Bdm;
use bulk_mem::{Addr, Cache, CacheGeometry};
use bulk_sig::{Signature, SignatureConfig};
use bulk_sim::SimConfig;
use bulk_trace::{TlsOp, TlsWorkload, TmOp, TmWorkload};
use std::hint::black_box;
use std::sync::Arc;

/// The loads and stores of one section.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Loads, in program order.
    pub reads: Vec<Addr>,
    /// Stores, in program order.
    pub writes: Vec<Addr>,
}

/// One machine's replayable streams.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The signature configuration the machine uses.
    pub cfg: Arc<SignatureConfig>,
    /// The machine's L1 shape.
    pub geom: CacheGeometry,
    /// Every section.
    pub sections: Vec<Section>,
    /// `(committer, receiver)` section indices to disambiguate.
    pub pairs: Vec<(usize, usize)>,
    /// Per processor, every access in program order (`true` = store).
    pub cpus: Vec<Vec<(bool, Addr)>>,
}

/// The TM machine's streams of `w`.
fn tm_stream(w: &TmWorkload) -> Stream {
    let mut sections = Vec::new();
    let mut per_thread: Vec<Vec<usize>> = Vec::new();
    let mut cpus = Vec::new();
    for t in &w.threads {
        let (mut depth, mut mine, mut cpu) = (0usize, Vec::new(), Vec::new());
        let mut cur = Section::default();
        for op in &t.ops {
            match *op {
                TmOp::Begin => depth += 1,
                TmOp::End => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        mine.push(sections.len());
                        sections.push(std::mem::take(&mut cur));
                    }
                }
                TmOp::Read(a) => {
                    cpu.push((false, a));
                    if depth > 0 {
                        cur.reads.push(a);
                    }
                }
                TmOp::Write(a) => {
                    cpu.push((true, a));
                    if depth > 0 {
                        cur.writes.push(a);
                    }
                }
                TmOp::Compute(_) => {}
            }
        }
        per_thread.push(mine);
        cpus.push(cpu);
    }
    let mut pairs = Vec::new();
    let n = per_thread.len();
    for t in 0..n {
        let next = &per_thread[(t + 1) % n];
        for (k, &c) in per_thread[t].iter().enumerate() {
            if let Some(&r) = next.get(k).filter(|&&r| r != c) {
                pairs.push((c, r));
            }
        }
    }
    Stream {
        cfg: SignatureConfig::s14_tm().into_shared(),
        geom: SimConfig::tm_default().geom,
        sections,
        pairs,
        cpus,
    }
}

/// The TLS machine's streams of `w`; tasks go to processors round-robin.
fn tls_stream(w: &TlsWorkload) -> Stream {
    let cfg = SimConfig::tls_default();
    let mut cpus = vec![Vec::new(); cfg.num_procs];
    let mut sections = Vec::new();
    for (i, task) in w.tasks.iter().enumerate() {
        let mut s = Section::default();
        for op in &task.ops {
            match *op {
                TlsOp::Read(a) => {
                    s.reads.push(a);
                    cpus[i % cfg.num_procs].push((false, a));
                }
                TlsOp::Write(a) => {
                    s.writes.push(a);
                    cpus[i % cfg.num_procs].push((true, a));
                }
                TlsOp::Compute(_) | TlsOp::Spawn => {}
            }
        }
        sections.push(s);
    }
    let pairs = (1..sections.len()).map(|i| (i - 1, i)).collect();
    Stream {
        cfg: SignatureConfig::s14_tls().into_shared(),
        geom: cfg.geom,
        sections,
        pairs,
        cpus,
    }
}

/// Every stream of `inputs`: one per TM trace, one per TLS trace.
pub fn streams(inputs: &Inputs) -> Vec<Stream> {
    inputs
        .tm
        .iter()
        .map(tm_stream)
        .chain(inputs.tls.iter().map(tls_stream))
        .collect()
}

/// The read and write signatures of every section.
pub fn signatures(s: &Stream) -> Vec<(Signature, Signature)> {
    s.sections
        .iter()
        .map(|sec| {
            let mut r = Signature::with_shared(Arc::clone(&s.cfg));
            let mut w = Signature::with_shared(Arc::clone(&s.cfg));
            sec.reads.iter().for_each(|&a| r.insert_addr(a));
            sec.writes.iter().for_each(|&a| w.insert_addr(a));
            (r, w)
        })
        .collect()
}

/// Eq. 1 on raw signatures: does each pair's committer write signature
/// meet the receiver's read or write signature?
pub fn sig_verdicts(s: &Stream, sigs: &[(Signature, Signature)]) -> Vec<bool> {
    s.pairs
        .iter()
        .map(|&(c, r)| sigs[c].1.intersects(&sigs[r].0) || sigs[c].1.intersects(&sigs[r].1))
        .collect()
}

/// A BDM holding each pair's receiver section as its one version.
fn receiver_bdms(s: &Stream) -> Vec<Bdm> {
    s.pairs
        .iter()
        .map(|&(_, r)| {
            let mut bdm = Bdm::new_shared(Arc::clone(&s.cfg), s.geom, 1);
            let v = bdm.alloc_version().expect("a fresh BDM has a free version");
            s.sections[r]
                .reads
                .iter()
                .for_each(|&a| bdm.record_load(v, a));
            s.sections[r]
                .writes
                .iter()
                .for_each(|&a| bdm.record_store(v, a));
            bdm
        })
        .collect()
}

/// The same pairs through `Bdm::disambiguate`.
pub fn bdm_verdicts(s: &Stream, sigs: &[(Signature, Signature)]) -> Vec<bool> {
    let bdms = receiver_bdms(s);
    s.pairs
        .iter()
        .zip(&bdms)
        .map(|(&(c, _), bdm)| {
            let v = bdm.versions_in_use().next().expect("one version in use");
            bdm.disambiguate(v, &sigs[c].1).squash()
        })
        .collect()
}

/// Host ns per operation of each replayed layer operation over all of
/// `streams`, keyed by its per-layer metric name.
pub fn time_layers(streams: &[Stream]) -> Vec<(&'static str, f64)> {
    let mut acc: Vec<(&'static str, f64, usize)> = Vec::new();
    let mut add =
        |name: &'static str, ns: f64, ops: usize| match acc.iter_mut().find(|e| e.0 == name) {
            Some(e) => {
                e.1 += ns;
                e.2 += ops;
            }
            None => acc.push((name, ns, ops)),
        };
    for s in streams {
        let sigs = signatures(s);
        let mut scratch = sigs.clone();
        let inserts = s
            .sections
            .iter()
            .map(|x| x.reads.len() + x.writes.len())
            .sum();
        let ns = median_ns(|| {
            for (sec, (r, w)) in s.sections.iter().zip(scratch.iter_mut()) {
                r.clear();
                w.clear();
                sec.reads.iter().for_each(|&a| r.insert_addr(a));
                sec.writes.iter().for_each(|&a| w.insert_addr(a));
            }
            black_box(&scratch);
        });
        add("sig.insert_ns", ns, inserts);
        let pairs = s.pairs.len();
        let ns = median_ns(|| {
            for &(c, r) in &s.pairs {
                black_box(sigs[c].1.intersects(&sigs[r].0));
                black_box(sigs[c].1.intersects(&sigs[r].1));
            }
        });
        add("sig.intersects_ns", ns, 2 * pairs);
        let n = sigs.len();
        let ns = median_ns(|| {
            for (r, w) in &sigs {
                black_box(r.union(w));
            }
        });
        add("sig.union_ns", ns, n);
        let ns = median_ns(|| {
            for (_, w) in &sigs {
                black_box(w.compress());
            }
        });
        add("sig.rle_compress_ns", ns, n);
        let compressed: Vec<_> = sigs.iter().map(|(_, w)| w.compress()).collect();
        let ns = median_ns(|| {
            for c in &compressed {
                black_box(Signature::decompress(Arc::clone(&s.cfg), c));
            }
        });
        add("sig.rle_decompress_ns", ns, n);
        let ns = median_ns(|| {
            for (_, w) in &sigs {
                black_box(w.decode_sets(&s.geom));
            }
        });
        add("sig.decode_sets_ns", ns, n);
        let caches: Vec<Cache> = s
            .pairs
            .iter()
            .map(|&(_, r)| {
                let mut cache = Cache::new(s.geom);
                let sec = &s.sections[r];
                for &a in sec.reads.iter().chain(&sec.writes) {
                    cache.fill_clean(a.line(s.geom.line_bytes()));
                }
                cache
            })
            .collect();
        let ns = median_ns(|| {
            for (&(c, _), cache) in s.pairs.iter().zip(&caches) {
                black_box(sigs[c].1.expand(cache));
            }
        });
        add("sig.expand_ns", ns, pairs);
        let bdms = receiver_bdms(s);
        let versions: Vec<_> = bdms
            .iter()
            .map(|b| b.versions_in_use().next().expect("one version in use"))
            .collect();
        let ns = median_ns(|| {
            for ((&(c, _), bdm), &v) in s.pairs.iter().zip(&bdms).zip(&versions) {
                black_box(bdm.disambiguate(v, &sigs[c].1));
            }
        });
        add("core.disambiguate_ns", ns, pairs);
        // Loads and stores are replayed as separate streams so each
        // operation is timed without a per-access clock read.
        for (store, name) in [(false, "mem.cache_load_ns"), (true, "mem.cache_store_ns")] {
            let ops = s
                .cpus
                .iter()
                .flatten()
                .filter(|(st, _)| *st == store)
                .count();
            let ns = median_ns(|| {
                for cpu in &s.cpus {
                    let mut cache = Cache::new(s.geom);
                    for &(_, a) in cpu.iter().filter(|(st, _)| *st == store) {
                        let line = a.line(s.geom.line_bytes());
                        if store {
                            black_box(cache.store(line));
                        } else {
                            black_box(cache.load(line));
                        }
                    }
                }
            });
            add(name, ns, ops);
        }
    }
    acc.into_iter()
        .map(|(name, ns, ops)| (name, ns / ops.max(1) as f64))
        .collect()
}
