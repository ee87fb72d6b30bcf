//! The ingest phase: a second world streamed onto the served graph. Each
//! arrival is appended to the sharded WAL, published into the live graph and
//! scored. Every round runs a closed-loop catch-up block, then a block of
//! arrivals at a fixed rate beside an in-process reader; each block runs
//! between two host-speed probes.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xfraud::diskstore::{BlockStore, StorageStats};
use xfraud::gnn::{batch_rng, predict_scores, streams, CommunitySampler, Sampler};
use xfraud::hetgraph::{GraphEvent, GraphSnapshot, NodeId, NodeType};
use xfraud::ingest::replay_dir;
use xfraud::netserve::loadgen::ids_for_arrival;
use xfraud::serve::score_one;

use crate::setup::System;
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::wire::load_config;
use crate::Counts;

/// Closed-loop catch-up arrivals per run, split evenly over the rounds.
pub const CATCHUP_ARRIVALS: usize = 1500;
/// Offered arrivals per second in the fixed-rate phase.
pub const ARRIVAL_RATE: f64 = 100.0;
/// Reader requests per second beside the fixed-rate arrivals.
pub const READER_RATE: f64 = 40.0;
pub const READER_IDS: usize = 1;
/// The loadgen's default hot-key skew, for the reader's ids.
const READER_GAMMA: f64 = 2.0;
/// `ShardedWal::sync` after every this many arrivals.
pub const SYNC_EVERY: usize = 16;
/// Arrivals between two checks of the served score against `score_one`.
const CHECK_EVERY: usize = 50;
/// The community cap of `Pipeline`'s scoring sampler, which the serving
/// engine and `Pipeline::score_transaction` share.
pub const SCORING_COMMUNITY_CAP: usize = 4000;
/// Root span of a catch-up arrival.
pub const CATCHUP_SPAN: &str = "catch-up arrival";

#[derive(Default)]
pub struct Ingest {
    /// Graph events of the catch-up arrivals that succeeded, and their busy
    /// (wall) time.
    pub catchup_events: usize,
    pub catchup_busy_s: f64,
    /// Per catch-up block, events per busy second at the probe's nominal
    /// host speed.
    pub catchup_rates: Vec<f64>,
    /// The catch-up busy time at nominal speed.
    pub catchup_norm_busy_s: f64,
    pub arrival_ms: Vec<f64>,
    /// `arrival_ms` at nominal speed.
    pub arrival_norm_ms: Vec<f64>,
    pub arrival_late_ms: Vec<f64>,
    pub reader_ms: Vec<f64>,
    pub reader_late_ms: Vec<f64>,
    pub reader_score_hits: u64,
    pub reader_score_lookups: u64,
    pub sync_ms: Vec<f64>,
    pub appended_events: usize,
    pub overlay_nodes: usize,
    pub overlay_edges: usize,
    pub retired_graphs: usize,
    pub compact_s: f64,
    pub replay_s: f64,
    pub wal_bytes: u64,
    pub flushes: u64,
    pub segments: usize,
    pub write_amp: f64,
    pub corrupt_reads: u64,
    /// Traced run only: per catch-up arrival, the replayed
    /// sample + feature fetch + forward time of its transaction.
    pub replayed_score_s: Vec<f64>,
}

/// Segment bytes the store wrote, reconstructed from `storage_stats`
/// readings taken after every arrival: a flush adds a segment; a
/// compaction replaces them all with one image (and is triggered by the
/// flush that crossed the threshold).
struct WriteTracker {
    segments: usize,
    bytes: u64,
    written: u64,
    last_flush: u64,
}

impl WriteTracker {
    fn observe(&mut self, segments: usize, bytes: u64) {
        if segments > self.segments {
            self.last_flush = bytes.saturating_sub(self.bytes) / (segments - self.segments) as u64;
            self.written += bytes.saturating_sub(self.bytes);
        } else if segments < self.segments {
            self.written += self.last_flush + bytes;
        }
        self.segments = segments;
        self.bytes = bytes;
    }
}

struct Ctx<'a> {
    sys: &'a System,
    seed: u64,
    tracer: &'a Tracer,
    counts: &'a Counts,
    sampler: CommunitySampler,
}

impl Ctx<'_> {
    /// One arrival: WAL append (and sync every [`SYNC_EVERY`]), publish,
    /// score. Returns the new transaction and its served score.
    fn arrive(
        &self,
        n: usize,
        events: &[GraphEvent],
        catch_up: bool,
        sync_ms: &mut Vec<f64>,
    ) -> Option<(NodeId, f32)> {
        let (t, s) = (self.tracer, self.sys);
        self.counts.attempted.fetch_add(1, Ordering::Relaxed);
        let req = n as u64;
        let name = if catch_up {
            CATCHUP_SPAN
        } else {
            "fixed-rate arrival"
        };
        let out = t.span(
            "bench",
            name,
            0,
            req,
            |root| -> Result<(NodeId, f32), String> {
                t.span("ingest", "ShardedWal::append_batch", root, req, |_| {
                    s.wal.append_batch(events)
                })
                .map_err(|e| format!("append_batch: {e}"))?;
                if (n + 1).is_multiple_of(SYNC_EVERY) {
                    let started = Instant::now();
                    t.span("ingest", "ShardedWal::sync", root, req, |_| s.wal.sync())
                        .map_err(|e| format!("WAL sync: {e}"))?;
                    sync_ms.push(started.elapsed().as_secs_f64() * 1e3);
                }
                let ids = t
                    .span("serve", "ScoringEngine::apply_events", root, req, |_| {
                        s.ingest_engine.apply_events(events)
                    })
                    .map_err(|e| format!("apply_events: {e}"))?;
                let txn = *ids.first().ok_or("arrival added no transaction")?;
                let score = t
                    .span("serve", "ScoringEngine::score", root, req, |_| {
                        s.ingest_engine.score_txn(txn)
                    })
                    .map_err(|e| format!("score_txn: {e}"))?;
                Ok((txn, score))
            },
        );
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.counts.fail(e);
                None
            }
        }
    }

    /// Gate: the served score equals `score_one` on the engine's current
    /// snapshot.
    fn check_arrival(&self, txn: NodeId, served: f32) -> Result<(), String> {
        let snap = self.sys.ingest_engine.graph_snapshot();
        let version = self.sys.ingest_engine.graph_version();
        let reference = score_one(
            &self.sys.pipeline.detector,
            &snap,
            &self.sampler,
            self.seed,
            version,
            txn,
        )
        .map_err(|e| format!("score_one({txn}): {e}"))?;
        if reference.to_bits() != served.to_bits() {
            return Err(format!(
                "arrival {txn}: served {served} but score_one on the snapshot gives {reference}"
            ));
        }
        Ok(())
    }

    /// Traced run: replays the engine's per-id stages on this thread —
    /// sample, feature fetch from the store, forward — and checks the bits.
    fn replay(
        &self,
        req: u64,
        snap: &GraphSnapshot,
        version: u64,
        txn: NodeId,
        served: f32,
    ) -> Result<f64, String> {
        let t = self.tracer;
        let started = Instant::now();
        let mut rng = batch_rng(self.seed, streams::SERVE, version, txn as u64);
        let mut batch = t.span("gnn", "Sampler::sample", 0, req, |_| {
            self.sampler.sample(snap, &[txn], &mut rng)
        });
        for i in 0..batch.n_nodes() {
            if batch.node_types[i] == NodeType::Txn {
                let global = batch.global_ids[i];
                let row = batch.features.row_mut(i);
                t.span("kvstore", "FeatureStore::fill_row", 0, req, |_| {
                    self.sys.features.fill_row(global, row)
                });
            }
        }
        let score = t.span("gnn", "predict_scores", 0, req, |_| {
            predict_scores(&self.sys.pipeline.detector, &batch, &mut rng)[0]
        });
        if score.to_bits() != served.to_bits() {
            return Err(format!(
                "replayed score of {txn} is {score}, served {served}"
            ));
        }
        Ok(started.elapsed().as_secs_f64())
    }
}

/// The ingest phase's state across rounds.
pub struct Ingestor<'a> {
    ctx: Ctx<'a>,
    /// Index of the next arrival of the stream.
    next: usize,
    /// Reader requests issued so far (their index seeds the id draw).
    reads: u64,
    start_stats: StorageStats,
    tracker: WriteTracker,
    appended: Vec<GraphEvent>,
    out: Ingest,
}

impl<'a> Ingestor<'a> {
    pub fn new(sys: &'a System, seed: u64, tracer: &'a Tracer, counts: &'a Counts) -> Self {
        let start_stats = sys.disk.storage_stats();
        Ingestor {
            ctx: Ctx {
                sys,
                seed,
                tracer,
                counts,
                sampler: CommunitySampler::new(SCORING_COMMUNITY_CAP),
            },
            next: 0,
            reads: 0,
            tracker: WriteTracker {
                segments: start_stats.n_segments,
                bytes: start_stats.segment_bytes,
                written: 0,
                last_flush: 0,
            },
            start_stats,
            appended: Vec::new(),
            out: Ingest::default(),
        }
    }

    /// Takes the next `n` arrivals of the stream.
    fn take(&mut self, n: usize) -> Result<std::ops::Range<usize>, String> {
        let range = self.next..self.next + n;
        if range.end > self.ctx.sys.arrivals.len() {
            return Err(format!(
                "the streamed world has {} arrivals; the run needs {}",
                self.ctx.sys.arrivals.len(),
                range.end
            ));
        }
        self.next = range.end;
        Ok(range)
    }

    fn record(&mut self, n: usize) {
        let (sys, a) = (self.ctx.sys, &self.ctx.sys.arrivals[n]);
        self.appended.extend(a.events.iter().cloned());
        let st = sys.disk.storage_stats();
        self.tracker.observe(st.n_segments, st.segment_bytes);
    }

    /// Closed loop: the next `count` arrivals back to back.
    pub fn catch_up(&mut self, count: usize, speed: &mut Speed) -> Result<(), String> {
        let range = self.take(count)?;
        let events = self.out.catchup_events;
        let ((busy, done), f) = speed.slice(|| self.catch_up_block(range));
        self.out.catchup_busy_s += busy;
        self.out.catchup_norm_busy_s += busy / f;
        if busy > 0.0 {
            let served = self.out.catchup_events - events;
            self.out.catchup_rates.push(served as f64 / (busy / f));
        }
        done
    }

    /// Runs the arrivals of `range`; returns the busy seconds of the ones
    /// that succeeded, and the first gate failure.
    fn catch_up_block(&mut self, range: std::ops::Range<usize>) -> (f64, Result<(), String>) {
        let sys = self.ctx.sys;
        let mut busy = 0.0;
        for n in range {
            let events = &sys.arrivals[n].events;
            let started = Instant::now();
            let served = self.ctx.arrive(n, events, true, &mut self.out.sync_ms);
            let secs = started.elapsed().as_secs_f64();
            self.record(n);
            let Some((txn, score)) = served else { continue };
            busy += secs;
            self.out.catchup_events += events.len();
            if let Err(e) = self.check(n, txn, score) {
                return (busy, Err(e));
            }
        }
        (busy, Ok(()))
    }

    /// The gates of one served catch-up arrival: every [`CHECK_EVERY`]th
    /// against `score_one`, and in the traced run the replayed stages.
    fn check(&mut self, n: usize, txn: NodeId, score: f32) -> Result<(), String> {
        let sys = self.ctx.sys;
        if n.is_multiple_of(CHECK_EVERY) {
            self.ctx.check_arrival(txn, score)?;
        }
        if self.ctx.tracer.enabled() {
            let snap = sys.ingest_engine.graph_snapshot();
            let version = sys.ingest_engine.graph_version();
            let s = self.ctx.replay(n as u64, &snap, version, txn, score)?;
            self.out.replayed_score_s.push(s);
        }
        Ok(())
    }

    /// Open loop for `secs` seconds: arrivals at [`ARRIVAL_RATE`] on this
    /// thread, reader requests at [`READER_RATE`] on a second one, both
    /// timed from their scheduled start.
    pub fn fixed_rate(&mut self, secs: f64, speed: &mut Speed) -> Result<(), String> {
        let arrivals = self.take((ARRIVAL_RATE * secs).ceil() as usize)?;
        let first_read = self.reads;
        let n_reads = (READER_RATE * secs).ceil() as u64;
        self.reads += n_reads;
        let ctx = &self.ctx;
        let (sys, counts, tracer) = (ctx.sys, ctx.counts, ctx.tracer);
        let reader_cfg = load_config(
            &sys.pipeline.test_nodes,
            READER_IDS,
            READER_GAMMA,
            READER_RATE,
            secs,
            ctx.seed ^ 0x7ead,
        );
        let before = sys.ingest_engine.metrics();
        let reader = Mutex::new((Vec::new(), Vec::new()));
        let mut fixed = Vec::new();
        let ((), f) = speed.slice(|| {
            let start = Instant::now() + Duration::from_millis(20);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let (mut lat, mut late) = (Vec::new(), Vec::new());
                    for j in 0..n_reads {
                        let ids = ids_for_arrival(&reader_cfg, first_read + j);
                        let scheduled = start + Duration::from_secs_f64(j as f64 / READER_RATE);
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        late.push(ms_since(scheduled, Instant::now()));
                        counts.attempted.fetch_add(1, Ordering::Relaxed);
                        let r = tracer.span("serve", "ScoringEngine::score", 0, j, |_| {
                            sys.ingest_engine.score(&ids)
                        });
                        match r {
                            Ok(_) => lat.push(ms_since(scheduled, Instant::now())),
                            Err(e) => counts.fail(format!("reader: {e}")),
                        }
                    }
                    *reader.lock().expect("reader samples poisoned") = (lat, late);
                });
                for (k, n) in arrivals.clone().enumerate() {
                    let scheduled = start + Duration::from_secs_f64(k as f64 / ARRIVAL_RATE);
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let late = ms_since(scheduled, Instant::now());
                    let served =
                        ctx.arrive(n, &sys.arrivals[n].events, false, &mut self.out.sync_ms);
                    fixed.push((late, served.map(|_| ms_since(scheduled, Instant::now()))));
                }
            })
        });
        for n in arrivals {
            self.record(n);
        }
        for (late, latency) in fixed {
            self.out.arrival_late_ms.push(late);
            self.out.arrival_ms.extend(latency);
            self.out.arrival_norm_ms.extend(latency.map(|ms| ms / f));
        }
        let (lat, late) = reader.into_inner().expect("reader samples poisoned");
        self.out.reader_ms.extend(lat);
        self.out.reader_late_ms.extend(late);
        let after = sys.ingest_engine.metrics();
        let hits = after.score_hits - before.score_hits;
        self.out.reader_score_hits += hits;
        self.out.reader_score_lookups += hits + (after.score_misses - before.score_misses);
        Ok(())
    }

    /// The post-run gates: compaction, WAL replay, corrupt reads.
    pub fn finish(mut self) -> Result<Ingest, String> {
        let ctx = &self.ctx;
        let (sys, tracer, seed) = (ctx.sys, ctx.tracer, ctx.seed);
        let out = &mut self.out;
        out.overlay_nodes = sys.ingest_engine.overlay_stats().0;
        out.overlay_edges = sys.ingest_engine.overlay_stats().1;
        out.retired_graphs = sys.ingest_engine.retired_graphs();

        // Gate: compaction leaves probe scores bit-identical.
        let mut probes: Vec<NodeId> = sys.pipeline.test_nodes.iter().copied().take(8).collect();
        probes.extend(
            sys.arrivals[..self.next]
                .iter()
                .rev()
                .take(8)
                .map(|a| a.txn_node),
        );
        let before = sys
            .ingest_engine
            .score(&probes)
            .map_err(|e| format!("pre-compaction probe: {e}"))?;
        let started = Instant::now();
        tracer
            .span("serve", "ScoringEngine::compact", 0, 0, |_| {
                sys.ingest_engine.compact()
            })
            .map_err(|e| format!("compact: {e}"))?;
        out.compact_s = started.elapsed().as_secs_f64();
        let snap = sys.ingest_engine.graph_snapshot();
        let version = sys.ingest_engine.graph_version();
        let served = sys
            .ingest_engine
            .score(&probes)
            .map_err(|e| format!("post-compaction probe: {e}"))?;
        for ((&txn, b), a) in probes.iter().zip(&before).zip(&served) {
            let fresh = score_one(
                &sys.pipeline.detector,
                &snap,
                &ctx.sampler,
                seed,
                version,
                txn,
            )
            .map_err(|e| format!("score_one({txn}) after compaction: {e}"))?;
            if b.to_bits() != a.to_bits() || b.to_bits() != fresh.to_bits() {
                return Err(format!(
                    "compaction moved the score of {txn}: before {b}, served after {a}, recomputed {fresh}"
                ));
            }
        }

        // Gate: the WAL replays every appended event, in order.
        tracer
            .span("ingest", "ShardedWal::sync", 0, 0, |_| sys.wal.sync())
            .map_err(|e| format!("WAL sync: {e}"))?;
        let started = Instant::now();
        let replay = tracer
            .span("ingest", "replay_dir", 0, 0, |_| {
                replay_dir(&sys.wal_dir, None)
            })
            .map_err(|e| format!("replay_dir: {e}"))?;
        out.replay_s = started.elapsed().as_secs_f64();
        if replay.events != self.appended {
            return Err(format!(
                "replay_dir returned {} events, {} were appended",
                replay.events.len(),
                self.appended.len()
            ));
        }
        out.appended_events = self.appended.len();
        out.wal_bytes = dir_bytes(&sys.wal_dir)?;

        // Gate: no corrupt read anywhere in the run.
        out.corrupt_reads = sys.disk.corrupt_read_count();
        if out.corrupt_reads != 0 {
            return Err(format!("{} corrupt segment reads", out.corrupt_reads));
        }
        let end_stats = sys.disk.storage_stats();
        out.flushes = end_stats.wal_epoch - self.start_stats.wal_epoch;
        out.segments = end_stats.n_segments;
        // Every arrival writes one feature row: an 8-byte key and f32 values.
        let user_bytes = (self.next * (8 + 4 * sys.features.dim())) as f64;
        out.write_amp = self.tracker.written as f64 / user_bytes;
        Ok(self.out)
    }
}

fn ms_since(t: Instant, now: Instant) -> f64 {
    now.saturating_duration_since(t).as_secs_f64() * 1e3
}

fn dir_bytes(dir: &std::path::Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("sizing {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}
