//! The wire phase: scoring requests over loopback HTTP to the `netserve`
//! front end, first open-loop at a fixed offered rate, then closed-loop.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xfraud::hetgraph::NodeId;
use xfraud::netserve::loadgen::ids_for_arrival;
use xfraud::netserve::{arrival_offsets, LoadConfig, RatePattern, ScoreClient, ScoreOutcome};

use crate::setup::{CLIENT_TIMEOUT, TENANT};
use crate::stats::{percentile, sorted};
use crate::sys;
use crate::trace::Tracer;
use crate::Counts;

/// Generator threads, one keep-alive connection each.
pub const CONNECTIONS: usize = 2;

/// The request generator of one workload: a seeded id draw with the
/// loadgen's hot-key skew (`gamma` 1 is uniform).
pub fn load_config(
    pool: &[NodeId],
    ids: usize,
    gamma: f64,
    rate: f64,
    secs: f64,
    seed: u64,
) -> LoadConfig {
    LoadConfig {
        rate_per_sec: rate,
        duration: Duration::from_secs_f64(secs),
        pattern: RatePattern::Constant,
        ids: pool.to_vec(),
        ids_per_request: ids,
        hotkey_gamma: gamma,
        connections: CONNECTIONS,
        tenant: TENANT.into(),
        seed,
        request_timeout: CLIENT_TIMEOUT,
    }
}

#[derive(Default)]
struct Samples {
    /// Successful requests, from scheduled send to response.
    latency_ms: Vec<f64>,
    /// Successful requests, from actual send to response.
    rtt_ms: Vec<f64>,
    /// How late the generator sent each request.
    late_ms: Vec<f64>,
}

#[derive(Default)]
pub struct OpenLoop {
    pub latency_ms: Vec<f64>,
    /// Per block, the median latency at the host-speed probe's nominal
    /// speed.
    pub p50s: Vec<f64>,
    pub rtt_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub txns: u64,
    pub threads_peak: f64,
}

impl OpenLoop {
    /// Merges another block's samples into this one; the host ran at
    /// `speed` (1 = nominal) during it.
    pub fn extend(&mut self, other: OpenLoop, speed: f64) {
        let p50 = percentile(&sorted(other.latency_ms.clone()), 0.5);
        self.p50s.extend(p50.map(|ms| ms / speed));
        self.latency_ms.extend(other.latency_ms);
        self.rtt_ms.extend(other.rtt_ms);
        self.late_ms.extend(other.late_ms);
        self.txns += other.txns;
        self.threads_peak = self.threads_peak.max(other.threads_peak);
    }
}

/// Scores one request, counting it; reconnects after a transport error.
fn send(
    client: &mut Option<ScoreClient>,
    addr: SocketAddr,
    ids: &[NodeId],
    counts: &Counts,
) -> bool {
    counts.attempted.fetch_add(1, Ordering::Relaxed);
    let c = match client {
        Some(c) => c,
        None => match ScoreClient::connect(addr, CLIENT_TIMEOUT) {
            Ok(c) => client.insert(c),
            Err(e) => {
                counts.fail(format!("connect: {e}"));
                return false;
            }
        },
    };
    match c.score(TENANT, ids) {
        Ok(ScoreOutcome::Scores(s)) if s.len() == ids.len() => true,
        Ok(ScoreOutcome::Scores(s)) => {
            counts.fail(format!("{} scores for {} ids", s.len(), ids.len()));
            false
        }
        Ok(ScoreOutcome::Rejected { status, error }) => {
            counts.fail(format!("HTTP {status}: {error}"));
            false
        }
        Err(e) => {
            counts.fail(format!("transport: {e}"));
            *client = None;
            false
        }
    }
}

/// Sends the seeded arrival plan of `cfg` from [`CONNECTIONS`] threads; a
/// free thread takes the next due arrival. Latency runs from the scheduled
/// send, so a stall is charged to every request it delays.
pub fn open_loop(addr: SocketAddr, cfg: &LoadConfig, counts: &Counts, tracer: &Tracer) -> OpenLoop {
    let plan = arrival_offsets(cfg);
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let txns = AtomicU64::new(0);
    let merged = Mutex::new(Samples::default());
    let start = Instant::now() + Duration::from_millis(20);
    let mut threads_peak = 0.0f64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = None;
                    let mut mine = Samples::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = plan.get(i) else { break };
                        let ids = ids_for_arrival(cfg, i as u64);
                        let scheduled = start + offset;
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let sent = Instant::now();
                        let ok = tracer.span("netserve", "ScoreClient::score", 0, i as u64, |_| {
                            send(&mut client, addr, &ids, counts)
                        });
                        if ok {
                            mine.rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                            mine.latency_ms
                                .push(scheduled.elapsed().as_secs_f64() * 1e3);
                            txns.fetch_add(ids.len() as u64, Ordering::Relaxed);
                        }
                        mine.late_ms
                            .push(sent.saturating_duration_since(scheduled).as_secs_f64() * 1e3);
                    }
                    let mut m = merged.lock().expect("sample merge poisoned");
                    m.latency_ms.extend(mine.latency_ms);
                    m.rtt_ms.extend(mine.rtt_ms);
                    m.late_ms.extend(mine.late_ms);
                })
            })
            .collect();
        // The spare main thread samples the process's thread count.
        while !done.load(Ordering::Relaxed) {
            threads_peak = threads_peak.max(sys::threads().unwrap_or(0.0));
            std::thread::sleep(Duration::from_millis(100));
            done.store(workers.iter().all(|w| w.is_finished()), Ordering::Relaxed);
        }
    });
    let m = merged.into_inner().expect("sample merge poisoned");
    OpenLoop {
        latency_ms: m.latency_ms,
        p50s: Vec::new(),
        rtt_ms: m.rtt_ms,
        late_ms: m.late_ms,
        txns: txns.into_inner(),
        threads_peak,
    }
}

pub struct ClosedLoop {
    pub txns: u64,
    pub secs: f64,
}

/// [`CONNECTIONS`] clients each send their next request as soon as the
/// previous one returns, for `secs` seconds.
pub fn closed_loop(
    addr: SocketAddr,
    cfg: &LoadConfig,
    secs: f64,
    counts: &Counts,
    tracer: &Tracer,
) -> ClosedLoop {
    let txns = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for c in 0..CONNECTIONS as u64 {
            let txns = &txns;
            s.spawn(move || {
                let mut client = None;
                // Index space disjoint from the open-loop plan's.
                let mut index = (c + 1) << 40;
                while Instant::now() < deadline {
                    let ids = ids_for_arrival(cfg, index);
                    index += 1;
                    let ok = tracer.span("netserve", "ScoreClient::score", 0, index, |_| {
                        send(&mut client, addr, &ids, counts)
                    });
                    if ok {
                        txns.fetch_add(ids.len() as u64, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    ClosedLoop {
        txns: txns.into_inner(),
        secs: started.elapsed().as_secs_f64(),
    }
}

/// Gate: scores served over the wire are bit-identical to the sequential
/// in-process reference for every probe id.
pub fn check_probe(addr: SocketAddr, probes: &[NodeId], reference: &[f32]) -> Result<(), String> {
    let mut client =
        ScoreClient::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("probe connect: {e}"))?;
    let wire = match client.score(TENANT, probes) {
        Ok(ScoreOutcome::Scores(s)) => s,
        other => return Err(format!("probe request failed: {other:?}")),
    };
    let same = wire.len() == reference.len()
        && wire
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err(format!(
            "wire scores differ from score_one: wire {wire:?}, reference {reference:?}"
        ));
    }
    Ok(())
}
