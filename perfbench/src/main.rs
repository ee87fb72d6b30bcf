//! `perfbench` — the repository benchmark. One run builds the system from a
//! seed, measures it through its public APIs, checks its outputs, and prints
//! one JSON line of metrics last on standard output.
//!
//! ```text
//! perfbench --workload wire_cold|wire_batch --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run goes through the same phases, so every run reports every
//! end-to-end metric: set-up (repeated, median reported), offline training,
//! inference and explanation, the wire phase, and the ingest phase. The
//! workload sets the wire path's request size and rate. End-to-end times
//! are reported at a host-speed probe's nominal speed (see `speed.rs`).
//! `--trace 1` records spans around each call into a layer and prints the
//! per-layer metrics instead. A failed correctness gate exits non-zero and
//! prints no metrics.

#![forbid(unsafe_code)]

mod ingest;
mod offline;
mod setup;
mod speed;
mod stats;
mod sys;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use xfraud::gnn::{batch_rng, predict_scores, streams, CommunitySampler, Sampler};
use xfraud::netserve::loadgen::ids_for_arrival;

use crate::speed::Speed;
use crate::stats::{median, percentile, sorted, supported_percentile};
use crate::trace::{self_time_by_layer, Tracer};

/// What a workload changes; everything else is shared by all runs.
pub struct Workload {
    pub name: &'static str,
    /// Open-loop offered requests per second on the wire.
    pub wire_rate: f64,
    /// Held-out transaction ids per wire request, drawn uniformly.
    pub wire_ids: usize,
}

// Offered rates and sizes are fixed here, never calibrated at run time, so
// two commits always receive the same load. Both run the wire engine with
// `no_cache()`, so every id pays sampling, feature fetch and the forward,
// and both offer about 20% of the 2-connection closed-loop capacity: on a
// shared 2-vCPU host heavier load turns the host's own speed swings into
// queueing. A cache-warm wire workload is not used: its median is thread
// wake-up latency, which moved 2x between identical sets of runs.
const WORKLOADS: [Workload; 2] = [
    // One id per request: netserve's per-request cost is paid once per
    // transaction.
    Workload {
        name: "wire_cold",
        wire_rate: 150.0,
        wire_ids: 1,
    },
    // Eight ids per request: the engine scores a request's ids in one
    // micro-batch, so netserve and the queue hops are shared by eight scores.
    Workload {
        name: "wire_batch",
        wire_rate: 20.0,
        wire_ids: 8,
    },
];

/// Set-ups per run; the median is reported and the last one is measured.
const SETUP_REPS: usize = 3;
/// Rounds of measured phases per run.
const ROUNDS: usize = 12;
/// Timed 640-transaction inference batches per run.
const INFER_BATCHES: usize = 24;
/// Shares of `--seconds` given to the timed phases.
const OPEN_SHARE: f64 = 0.35;
const CLOSED_SHARE: f64 = 0.15;
const ARRIVAL_SHARE: f64 = 0.5;
/// Held-out transactions whose wire scores must equal `score_one`.
const PROBES: usize = 16;
/// Transaction scorings replayed stage by stage in the traced run.
const REPLAYED_IDS: usize = 800;

/// Operations attempted and failed in one phase.
#[derive(Default)]
pub struct Counts {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    first_error: Mutex<Option<String>>,
}

impl Counts {
    pub fn fail(&self, error: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut first = self.first_error.lock().expect("error slot poisoned");
        first.get_or_insert(error);
    }
}

/// Operation counts of each phase.
#[derive(Default)]
struct Phases {
    offline: Counts,
    wire: Counts,
    ingest: Counts,
}

impl Phases {
    fn all(&self) -> [(&'static str, &Counts); 3] {
        [
            ("offline", &self.offline),
            ("wire", &self.wire),
            ("ingest", &self.ingest),
        ]
    }

    /// `(attempted, failed)` over every phase.
    fn totals(&self) -> (u64, u64) {
        self.all().iter().fold((0, 0), |(a, f), (_, c)| {
            (
                a + c.attempted.load(Ordering::Relaxed),
                f + c.failed.load(Ordering::Relaxed),
            )
        })
    }
}

#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let usage = "usage: perfbench --workload wire_cold|wire_batch --seed N --seconds S --trace 0|1";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace,
    })
}

/// glibc malloc settings every run is pinned to: large blocks always come
/// from the heap and freed memory is never trimmed back to the kernel.
/// Left dynamic, glibc's thresholds put some runs into a mode where freed
/// blocks go back to the kernel and every allocation faults its pages in
/// again (130k minor faults per round against 50k, 42 MiB resident against
/// 110 MiB), and inference ran 30% slower in those runs.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824";

/// Runs this program again as a child with [`MALLOC_TUNABLES`] in its
/// environment (glibc reads them only at start-up), waits for it and exits
/// with its code; returns when they are already set.
fn pin_allocator() {
    let tunables = std::env::var("GLIBC_TUNABLES").unwrap_or_default();
    if tunables.contains(MALLOC_TUNABLES) {
        return;
    }
    let pinned = if tunables.is_empty() {
        MALLOC_TUNABLES.to_string()
    } else {
        format!("{tunables}:{MALLOC_TUNABLES}")
    };
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("GLIBC_TUNABLES", pinned)
            .status()
    });
    match status {
        Ok(s) => std::process::exit(s.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("perfbench: could not start the pinned run: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(".perfbench_tmp").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let phases = Phases::default();
    let result = run(&args, &tmp, &phases);
    if let Err(e) = std::fs::remove_dir_all(&tmp) {
        eprintln!("perfbench: could not remove {}: {e}", tmp.display());
    }
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    };
    for (name, c) in phases.all() {
        let (sent, failed) = (
            c.attempted.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
        );
        let first = c.first_error.lock().expect("error slot poisoned");
        eprintln!(
            "{name}: {sent} operations sent, {} succeeded, {failed} failed{}",
            sent - failed,
            first
                .as_ref()
                .map_or(String::new(), |e| format!(" (first: {e})"))
        );
    }
    let (attempted, failed) = phases.totals();
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    // Every gate passed (a failed gate exits above); an operation that
    // failed still makes the run incorrect.
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn run(args: &Args, tmp: &Path, phases: &Phases) -> Result<Metrics, String> {
    let (wl, seed, secs) = (args.workload, args.seed, args.seconds);
    let tracer = Tracer::new(args.trace);
    eprintln!(
        "perfbench: workload {} seed {seed} seconds {secs} trace {}",
        wl.name, args.trace as u8
    );

    // The first set-up builds the system measured. The other set-ups run
    // after it is shut down and only time the set-up, so the peak RSS is
    // that of one system: set-ups back to back left 100+ MiB of freed heap
    // resident in some runs and not in others.
    let mut speed = Speed::new();
    let sys = setup::build(wl, seed, &tmp.join("setup0"), &tracer, &mut speed)?;
    let (mut setup_s, mut train_s, mut world_s) =
        (vec![sys.setup_s], vec![sys.train_s], vec![sys.world_s]);
    let p = &sys.pipeline;
    eprintln!(
        "set-up: {:.3} s at nominal speed ({} nodes, {} train / {} held-out txns)",
        sys.setup_s,
        p.dataset.graph.n_nodes(),
        p.train_nodes.len(),
        p.test_nodes.len()
    );

    // The measured phases, in rounds: each metric's samples are spread over
    // the whole run, so a slow stretch of a shared machine lands on every
    // metric a little, and a figure taken as a median over rounds or blocks
    // moves only if the stretch covers most of the run. Every timed block
    // runs between two host-speed probes.
    let mut offline = offline::OfflinePhase::new(p, seed, &tracer, &phases.offline)?;
    let mut ingest = ingest::Ingestor::new(&sys, seed, &tracer, &phases.ingest);
    let addr = sys.server.local_addr();
    let wire_cfg = |r: usize, share: f64| {
        let s = seed ^ (0x0be1 + ((r as u64) << 16));
        // Uniform over the held-out transactions (hot-key skew 1).
        wire::load_config(
            &p.test_nodes,
            wl.wire_ids,
            1.0,
            wl.wire_rate,
            secs * share / ROUNDS as f64,
            s,
        )
    };
    let mut open = wire::OpenLoop::default();
    let (mut closed_rates, mut traced_closed, mut untraced_closed) =
        (Vec::new(), (0, 0.0), (0, 0.0));
    let (mut cpu_open, mut first_round) = (0.0, None);
    let mut steal = vec![sys::steal_secs()?];
    let mut rss = Vec::new();
    for r in 0..ROUNDS {
        offline.train(&mut speed);
        offline.infer(INFER_BATCHES / ROUNDS, &mut speed);
        offline.explain(offline::COMMUNITIES / ROUNDS, &mut speed)?;

        // Two closed-loop blocks per round, around the open loop. The first
        // is never traced, so in the traced run their throughput difference
        // is the tracing overhead.
        let block = secs * CLOSED_SHARE / ROUNDS as f64 / 2.0;
        let (before, f) = speed.slice(|| {
            wire::closed_loop(
                addr,
                &wire_cfg(r + ROUNDS, CLOSED_SHARE),
                block,
                &phases.wire,
                &Tracer::new(false),
            )
        });
        closed_rates.push(before.txns as f64 / (before.secs / f));

        let engine_before = sys.wire_engine.metrics();
        let cpu_before = sys::cpu_secs()?;
        let (block_open, f) =
            speed.slice(|| wire::open_loop(addr, &wire_cfg(r, OPEN_SHARE), &phases.wire, &tracer));
        open.extend(block_open, f);
        cpu_open += sys::cpu_secs()? - cpu_before;
        if r == 0 {
            // Server and engine latency windows now hold this block, the
            // closed-loop block before it and the warm-up.
            first_round = Some((
                open.rtt_ms.clone(),
                sys.server.metrics(),
                engine_before,
                sys.wire_engine.metrics(),
            ));
        }

        let (after, f) = speed.slice(|| {
            wire::closed_loop(
                addr,
                &wire_cfg(r + 2 * ROUNDS, CLOSED_SHARE),
                block,
                &phases.wire,
                &tracer,
            )
        });
        closed_rates.push(after.txns as f64 / (after.secs / f));
        untraced_closed = (
            untraced_closed.0 + before.txns,
            untraced_closed.1 + before.secs,
        );
        traced_closed = (traced_closed.0 + after.txns, traced_closed.1 + after.secs);

        eprintln!("DIAG round {r} wire hwm {:.1}", sys::peak_rss_mib()?);
        ingest.catch_up(ingest::CATCHUP_ARRIVALS / ROUNDS, &mut speed)?;
        eprintln!("DIAG round {r} catchup hwm {:.1}", sys::peak_rss_mib()?);
        ingest.fixed_rate(secs * ARRIVAL_SHARE / ROUNDS as f64, &mut speed)?;
        steal.push(sys::steal_secs()?);
        rss.push((sys::rss_mib()?, sys::peak_rss_mib()?, sys::minor_faults()?));
    }
    let off = offline.finish();
    let ing = ingest.finish()?;
    let steal_s: Vec<f64> = steal.windows(2).map(|w| w[1] - w[0]).collect();
    eprintln!("per round: vCPU seconds stolen {steal_s:.2?}");
    eprintln!("per round: (RSS MiB, peak RSS MiB, minor faults) {rss:.1?}");
    eprintln!("per round: wire p50 ms {:.3?}", open.p50s);

    eprintln!("per round: catch-up events/s {:.0?}", ing.catchup_rates);
    eprintln!("per round: train txn/s {:.0?}", off.train_rates);
    let probes: Vec<_> = p.test_nodes.iter().copied().take(PROBES).collect();
    let reference = probes
        .iter()
        .map(|&t| p.score_transaction(t))
        .collect::<Result<Vec<f32>, _>>()
        .map_err(|e| format!("score_transaction: {e}"))?;
    wire::check_probe(addr, &probes, &reference)?;

    let open_lat = sorted(open.latency_ms.clone());
    let arrival = sorted(ing.arrival_ms.clone());
    // The catch-up and fixed-rate blocks slow down round by round as the
    // overlay grows (catch-up from about 35k to 2.5k events/s), so their
    // figures pool the whole run instead of taking a median over rounds,
    // which would rest on the middle rounds alone.
    let ingest_events_s = ing.catchup_events as f64 / ing.catchup_norm_busy_s;
    let host = sorted(speed.readings().to_vec());
    eprintln!(
        "host speed probe: {} readings, ms min {:.3} p50 {:.3} max {:.3} (nominal {:.3})",
        host.len(),
        host[0] * 1e3,
        median(&host) * 1e3,
        host[host.len() - 1] * 1e3,
        speed::NOMINAL_S * 1e3
    );
    eprintln!(
        "offline: AUC {:.4}; s per 640-txn batch {:.3?} (nominal speed {:.3?}); s per community {:.3?}",
        off.auc, off.infer_s, off.infer_norm_s, off.explain_s
    );
    eprintln!(
        "wire: open loop {} ok of {} sent, p50 {:.3} ms, late p99 {:.3} ms; score-cache hit rate {:.3}; \
         closed loop txn/s {closed_rates:.1?}",
        open.latency_ms.len(),
        open.late_ms.len(),
        percentile(&open_lat, 0.5).unwrap_or(f64::NAN),
        percentile(&sorted(open.late_ms.clone()), 0.99).unwrap_or(f64::NAN),
        sys.wire_engine.metrics().score_hit_rate(),
    );
    let q = |v: &[f64]| -> String {
        [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
            .iter()
            .map(|&x| format!("p{}={:.2}", x * 100.0, percentile(v, x).unwrap_or(f64::NAN)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("wire latency ms: {}", q(&open_lat));
    eprintln!("arrival latency ms: {}", q(&arrival));
    eprintln!(
        "ingest: catch-up {:.0} events/s ({ingest_events_s:.0} at nominal speed); fixed rate {} arrivals, p50 {:.3} ms, late p99 {:.3} ms",
        ing.catchup_events as f64 / ing.catchup_busy_s,
        arrival.len(),
        percentile(&arrival, 0.5).unwrap_or(f64::NAN),
        percentile(&sorted(ing.arrival_late_ms.clone()), 0.99).unwrap_or(f64::NAN),
    );

    let mut m = Metrics::default();
    if !args.trace {
        // Every time and rate at the host-speed probe's nominal speed.
        if open.p50s.is_empty() {
            return Err("no wire request succeeded".into());
        }
        m.put("score_p50_ms", median(&open.p50s), "ms");
        m.put("score_txn_s", median(&closed_rates), "txn/s");
        m.put(
            "arrival_p50_ms",
            percentile(&sorted(ing.arrival_norm_ms.clone()), 0.5).ok_or("no arrival succeeded")?,
            "ms",
        );
        m.put("ingest_events_s", ingest_events_s, "events/s");
        m.put("train_txn_s", median(&off.train_rates), "txn/s");
        m.put("infer_s_per_batch", median(&off.infer_norm_s), "s");
        // A median rather than a mean: the three largest of the 24
        // communities take 1 s each against 0.1-0.3 s for the rest, and a
        // mean would rest on those three readings.
        m.put("explain_s", median(&off.explain_norm_s), "s");
        m.put("rss_mib", sys::peak_rss_mib()?, "MiB");
    } else {
        let (rtt_ms, server, engine_before, engine_after) =
            first_round.ok_or("no wire round ran")?;
        let replay = replay_wire(&sys, &wire_cfg(0, OPEN_SHARE), seed, &tracer);
        let w = WireLayer {
            open: &open,
            first_rtt_ms: &rtt_ms,
            untraced_closed,
            traced_closed,
            server: &server,
            engine_before: &engine_before,
            engine_after: &engine_after,
            cpu_open,
        };
        per_layer(&mut m, &w, &replay, &ing, &off, &tracer, phases)?;
        // The host-speed probe itself, which the end-to-end figures divide by.
        m.put("host.probe_ms", median(speed.readings()) * 1e3, "ms");
        // The tails repeat too poorly between runs on a shared 2-vCPU host
        // to gate a change (see README), so they are diagnostics here.
        m.put(
            "tail.score_p99_ms",
            tail("tail.score_p99_ms", &open_lat),
            "ms",
        );
        m.put(
            "tail.arrival_p99_ms",
            tail("tail.arrival_p99_ms", &arrival),
            "ms",
        );
        let t = Instant::now();
        let ds = xfraud::datagen::Dataset::generate(setup::PRESET, setup::DATA_SEED);
        m.put("datagen.dataset_s", t.elapsed().as_secs_f64(), "s");
        drop(ds);
        std::fs::create_dir_all(".perfbench_out")
            .map_err(|e| format!("creating .perfbench_out: {e}"))?;
        let path = PathBuf::from(".perfbench_out").join(format!("spans-{}-{seed}.jsonl", wl.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("self time per layer (s), spans in {}:", path.display());
        for (layer, s) in self_time_by_layer(&tracer.spans()) {
            eprintln!("  {layer:<10} {s:.4}");
        }
    }
    sys.shutdown();
    for rep in 1..SETUP_REPS {
        let s = setup::build(
            wl,
            seed,
            &tmp.join(format!("setup{rep}")),
            &tracer,
            &mut speed,
        )?;
        setup_s.push(s.setup_s);
        train_s.push(s.train_s);
        world_s.push(s.world_s);
        s.shutdown();
    }
    if args.trace {
        m.put("core.train_s", median(&train_s), "s");
        m.put("datagen.world_s", median(&world_s), "s");
    } else {
        // At the host-speed probe's nominal speed, like every time above.
        m.put("setup_s", median(&setup_s), "s");
    }
    eprintln!("set-up s at nominal speed: {setup_s:.3?}");
    for (n, v, u) in &m.0 {
        if !v.is_finite() {
            return Err(format!("metric {n} is not finite ({v})"));
        }
        eprintln!("  {n:<32} {v:>14.6} {u}");
    }
    check_declared(
        &m,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;
    Ok(m)
}

/// The printed metrics must be exactly the ones `BENCHMARK.json` (in the
/// working directory, the checkout root) declares under `section`, with the
/// declared units.
fn check_declared(m: &Metrics, section: &str) -> Result<(), String> {
    let text =
        std::fs::read("BENCHMARK.json").map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = xfraud::netserve::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared: Vec<(&str, &str)> = doc
        .get(section)
        .and_then(|s| s.as_array())
        .ok_or(format!("BENCHMARK.json has no `{section}` list"))?
        .iter()
        .filter_map(|e| Some((e.get("name")?.as_str()?, e.get("unit")?.as_str()?)))
        .collect();
    let printed: Vec<(&str, &str)> = m.0.iter().map(|&(n, _, u)| (n, u)).collect();
    let mut want = declared.clone();
    let mut got = printed.clone();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        return Err(format!(
            "printed metrics {printed:?} differ from BENCHMARK.json `{section}` {declared:?}"
        ));
    }
    Ok(())
}

/// Nearest-rank p99 of an ascending sample. When fewer than ten samples lie
/// beyond it, it is read as is and standard error says so.
fn tail(name: &str, sorted: &[f64]) -> f64 {
    supported_percentile(sorted, 0.99).unwrap_or_else(|e| {
        eprintln!("{name} read from a short sample: {e}");
        percentile(sorted, 0.99).unwrap_or(f64::NAN)
    })
}

/// The wire engine's per-id stages replayed on this thread for the ids the
/// open-loop phase served.
#[derive(Default)]
struct Replay {
    sample_us: Vec<f64>,
    forward_us: Vec<f64>,
    nodes: Vec<f64>,
    edges: Vec<f64>,
    /// Per replayed request: the sum over its ids of sample + forward.
    request_ms: Vec<f64>,
}

fn replay_wire(
    sys: &setup::System,
    cfg: &xfraud::netserve::LoadConfig,
    seed: u64,
    tracer: &Tracer,
) -> Replay {
    let p = &sys.pipeline;
    let sampler = CommunitySampler::new(4000);
    let mut r = Replay::default();
    for i in 0..(REPLAYED_IDS / cfg.ids_per_request) as u64 {
        let mut request = 0.0;
        for id in ids_for_arrival(cfg, i) {
            // The wire engine never publishes, so it serves graph version 0.
            let mut rng = batch_rng(seed, streams::SERVE, 0, id as u64);
            let t = Instant::now();
            let batch = tracer.span("gnn", "Sampler::sample", 0, i, |_| {
                sampler.sample(&p.dataset.graph, &[id], &mut rng)
            });
            let sample = t.elapsed().as_secs_f64();
            let t = Instant::now();
            tracer.span("gnn", "predict_scores", 0, i, |_| {
                predict_scores(&p.detector, &batch, &mut rng)
            });
            let forward = t.elapsed().as_secs_f64();
            r.sample_us.push(sample * 1e6);
            r.forward_us.push(forward * 1e6);
            r.nodes.push(batch.n_nodes() as f64);
            r.edges.push(batch.edge_src.len() as f64);
            request += sample + forward;
        }
        r.request_ms.push(request * 1e3);
    }
    r
}

struct WireLayer<'a> {
    open: &'a wire::OpenLoop,
    /// Round-one open-loop round trips, matching the server's and engine's
    /// latency windows read right after them.
    first_rtt_ms: &'a [f64],
    /// `(transactions, seconds)` of the closed-loop halves.
    untraced_closed: (u64, f64),
    traced_closed: (u64, f64),
    server: &'a xfraud::netserve::NetMetricsSnapshot,
    engine_before: &'a xfraud::serve::MetricsSnapshot,
    engine_after: &'a xfraud::serve::MetricsSnapshot,
    cpu_open: f64,
}

fn p(v: &[f64], q: f64) -> f64 {
    percentile(&sorted(v.to_vec()), q).unwrap_or(f64::NAN)
}

fn rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

fn per_layer(
    m: &mut Metrics,
    w: &WireLayer,
    replay: &Replay,
    ing: &ingest::Ingest,
    off: &offline::Offline,
    tracer: &Tracer,
    phases: &Phases,
) -> Result<(), String> {
    let ms = |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e3).collect() };

    // netserve: the client's round trip against the server's own service time.
    m.put(
        "netserve.overhead_p50_ms",
        p(w.first_rtt_ms, 0.5) - w.server.p50_ms,
        "ms",
    );
    m.put("netserve.client_p99_ms", p(&w.open.rtt_ms, 0.99), "ms");
    m.put("netserve.client_p999_ms", p(&w.open.rtt_ms, 0.999), "ms");
    m.put("netserve.service_p50_ms", w.server.p50_ms, "ms");
    m.put("netserve.service_p99_ms", w.server.p99_ms, "ms");

    // serve: the wire engine over the open-loop phase.
    let (b, a) = (w.engine_before, w.engine_after);
    m.put("serve.engine_p50_ms", a.p50_ms, "ms");
    m.put("serve.engine_p99_ms", a.p99_ms, "ms");
    m.put(
        "serve.req_per_batch",
        (a.requests - b.requests) as f64 / (a.batches - b.batches).max(1) as f64,
        "req/batch",
    );
    m.put(
        "serve.score_hit_rate",
        rate(a.score_hits - b.score_hits, a.score_misses - b.score_misses),
        "ratio",
    );
    m.put(
        "serve.subgraph_hit_rate",
        rate(
            a.subgraph_hits - b.subgraph_hits,
            a.subgraph_misses - b.subgraph_misses,
        ),
        "ratio",
    );
    m.put(
        "serve.reader_score_hit_rate",
        rate(
            ing.reader_score_hits,
            ing.reader_score_lookups - ing.reader_score_hits,
        ),
        "ratio",
    );
    m.put("serve.reader_p50_ms", p(&ing.reader_ms, 0.5), "ms");
    m.put("serve.reader_p99_ms", p(&ing.reader_ms, 0.99), "ms");
    let apply = ms("ScoringEngine::apply_events");
    m.put("serve.apply_events_p50_ms", p(&apply, 0.5), "ms");
    m.put("serve.apply_events_p99_ms", p(&apply, 0.99), "ms");
    m.put(
        "serve.apply_events_busy_s",
        apply.iter().sum::<f64>() / 1e3,
        "s",
    );
    m.put("serve.compact_s", ing.compact_s, "s");
    m.put("hetgraph.overlay_nodes", ing.overlay_nodes as f64, "count");
    m.put("hetgraph.overlay_edges", ing.overlay_edges as f64, "count");
    m.put(
        "hetgraph.retired_graphs",
        ing.retired_graphs as f64,
        "count",
    );

    // gnn: the wire ids replayed stage by stage.
    m.put("gnn.sample_us_p50", p(&replay.sample_us, 0.5), "us");
    m.put("gnn.forward_us_p50", p(&replay.forward_us, 0.5), "us");
    m.put("gnn.forward_us_p99", p(&replay.forward_us, 0.99), "us");
    let edges: f64 = replay.edges.iter().sum();
    m.put(
        "gnn.forward_ns_per_edge",
        replay.forward_us.iter().sum::<f64>() * 1e3 / edges.max(1.0),
        "ns/edge",
    );
    m.put("gnn.ego_nodes_p50", p(&replay.nodes, 0.5), "count");
    m.put("gnn.ego_edges_p50", p(&replay.edges, 0.5), "count");
    m.put(
        "gnn.train_sample_ms_p50",
        p(&off.train_sample_ms, 0.5),
        "ms",
    );
    m.put("gnn.fwd_bwd_ms_p50", p(&off.fwd_bwd_ms, 0.5), "ms");
    m.put("nn.optim_step_ms_p50", p(&off.optim_step_ms, 0.5), "ms");
    m.put("gnn.eval_batch_s", median(&off.infer_s), "s");

    // kvstore / diskstore / ingest.
    let fill = ms("FeatureStore::fill_row");
    m.put("kvstore.fill_row_us_p50", p(&fill, 0.5) * 1e3, "us");
    m.put("diskstore.flushes", ing.flushes as f64, "count");
    m.put("diskstore.segments", ing.segments as f64, "count");
    m.put("diskstore.write_amp", ing.write_amp, "ratio");
    m.put("diskstore.corrupt_reads", ing.corrupt_reads as f64, "count");
    let append = ms("ShardedWal::append_batch");
    m.put(
        "ingest.append_us_per_event",
        append.iter().sum::<f64>() * 1e3 / ing.appended_events.max(1) as f64,
        "us",
    );
    m.put("ingest.sync_ms_p50", p(&ing.sync_ms, 0.5), "ms");
    m.put("ingest.sync_ms_p99", p(&ing.sync_ms, 0.99), "ms");
    m.put(
        "ingest.bytes_per_event",
        ing.wal_bytes as f64 / ing.appended_events.max(1) as f64,
        "B",
    );
    m.put(
        "ingest.replay_events_s",
        ing.appended_events as f64 / ing.replay_s,
        "events/s",
    );

    // explain / kernels, per community.
    let n = off.explain_s.len().max(1) as f64;
    m.put("explain.gnnexplainer_s", off.gnnexplainer_s / n, "s");
    m.put("explain.centrality_bfs_s", off.bfs_s / n, "s");
    m.put("explain.centrality_linalg_s", off.linalg_s / n, "s");
    m.put("kernels.centrality_s", off.kernel_s / n, "s");
    m.put("explain.links_per_community", off.links as f64 / n, "count");

    // Process guards and the generator's own health.
    m.put(
        "proc.cpu_s_per_ktxn",
        w.cpu_open / (w.open.txns.max(1) as f64 / 1e3),
        "s/ktxn",
    );
    m.put("proc.threads_peak", w.open.threads_peak, "count");
    m.put("loadgen.wire_late_p99_ms", p(&w.open.late_ms, 0.99), "ms");
    m.put(
        "loadgen.arrival_late_p99_ms",
        p(&ing.arrival_late_ms, 0.99),
        "ms",
    );
    m.put(
        "loadgen.reader_late_p99_ms",
        p(&ing.reader_late_ms, 0.99),
        "ms",
    );
    let (attempted, failed) = phases.totals();
    m.put(
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    // Reconciliation and tracing overhead.
    let engine_gap = a.p50_ms - p(&replay.request_ms, 0.5);
    m.put("recon.engine_gap_p50_ms", engine_gap, "ms");
    // Catch-up arrival time against its WAL and publish spans plus the
    // replayed scoring stages (which stand in for the `score_txn` span).
    let spans = tracer.spans();
    let roots: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == ingest::CATCHUP_SPAN)
        .map(|s| s.id)
        .collect();
    let busy: f64 = spans
        .iter()
        .filter(|s| roots.contains(&s.id))
        .map(|s| s.secs())
        .sum();
    let stage_s: f64 = spans
        .iter()
        .filter(|s| roots.contains(&s.parent) && s.name != "ScoringEngine::score")
        .map(|s| s.secs())
        .sum::<f64>()
        + ing.replayed_score_s.iter().sum::<f64>();
    m.put("recon.catchup_gap_frac", (busy - stage_s) / busy, "ratio");
    let plain = w.untraced_closed.0 as f64 / w.untraced_closed.1;
    let traced = w.traced_closed.0 as f64 / w.traced_closed.1;
    m.put("trace.overhead_frac", (plain - traced) / plain, "ratio");
    eprintln!(
        "reconciliation: engine p50 {:.3} ms vs replayed sample+forward p50 {:.3} ms per request (gap {engine_gap:+.3} ms); \
         catch-up busy {busy:.3} s vs WAL + apply + replayed stages {stage_s:.3} s; \
         tracing overhead {:.2}% of closed-loop txn/s ({plain:.1} untraced, {traced:.1} traced)",
        a.p50_ms,
        p(&replay.request_ms, 0.5),
        100.0 * (plain - traced) / plain,
    );
    Ok(())
}
