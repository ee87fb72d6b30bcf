//! Set-up: everything a run needs before it measures — the dataset, the
//! trained detector, the wire server, the disk-backed ingest engine and the
//! second world it streams — built through the program's public APIs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfraud::datagen::{event_stream, generate_log, DatasetPreset, TxnArrival};
use xfraud::diskstore::{DiskStore, DiskStoreOptions};
use xfraud::gnn::TrainConfig;
use xfraud::ingest::ShardedWal;
use xfraud::kvstore::{FeatureStore, KvStore};
use xfraud::netserve::{NetServer, ScoreClient, ScoreOutcome, ServerConfig};
use xfraud::serve::{preload_features, ScoringEngine};
use xfraud::{Pipeline, PipelineConfig};

use crate::speed::Speed;
use crate::trace::Tracer;
use crate::Workload;

pub const PRESET: DatasetPreset = DatasetPreset::EbaySmallSim;
/// The dataset, the streamed world and the explained communities are the
/// same in every run: the run seed draws the detector's initialisation, the
/// training order, the requests and the arrival plans. Varying the world
/// itself moves per-request work by ±30% between seeds, which would hide
/// any change smaller than that.
pub const DATA_SEED: u64 = 7;
/// Detector epochs: enough for a detector that ranks well above chance;
/// inference cost does not depend on it.
pub const EPOCHS: usize = 2;
pub const WAL_SHARDS: usize = 4;
/// Small enough that the ingest phase flushes the memtable several times
/// and crosses the store's default compaction threshold.
pub const MEMTABLE_BYTES: usize = 48 << 10;
/// Seed offset of the streamed world, so its entities differ from the
/// base graph's.
const WORLD_SEED_OFFSET: u64 = 101;
pub const TENANT: &str = "perfbench";
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

pub struct System {
    pub pipeline: Pipeline,
    pub wire_engine: Arc<ScoringEngine>,
    pub server: NetServer,
    pub disk: Arc<DiskStore>,
    pub features: Arc<FeatureStore>,
    pub ingest_engine: ScoringEngine,
    pub wal: ShardedWal,
    pub wal_dir: PathBuf,
    pub arrivals: Vec<TxnArrival>,
    /// Time of the whole set-up at the probe's nominal host speed.
    pub setup_s: f64,
    /// Wall time of `Pipeline::run` (dataset + training with per-epoch
    /// validation).
    pub train_s: f64,
    /// Wall time of generating the streamed world and its event stream.
    pub world_s: f64,
}

impl System {
    /// Stops the server and waits for its threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Builds the whole system under `dir` (which must not exist yet). The
/// host's speed is probed around its two steps, `Pipeline::run` and the rest.
pub fn build(
    wl: &Workload,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    speed: &mut Speed,
) -> Result<System, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let cfg = PipelineConfig::builder()
        .preset(PRESET)
        .data_seed(DATA_SEED)
        .model_seed(seed)
        .train(TrainConfig {
            epochs: EPOCHS,
            ..TrainConfig::default()
        })
        .build()
        .map_err(|e| format!("pipeline config: {e}"))?;
    let ((pipeline, train_s), f) = speed.slice(|| {
        let t = Instant::now();
        let p = tracer.span("core", "Pipeline::run", 0, 0, |_| Pipeline::run(cfg));
        (p, t.elapsed().as_secs_f64())
    });
    let pipeline = pipeline.map_err(|e| format!("Pipeline::run: {e}"))?;
    let (rest, g) = speed.slice(|| {
        let t = Instant::now();
        serving(wl, pipeline, dir, tracer).map(|s| (s, t.elapsed().as_secs_f64()))
    });
    let (mut system, rest_s) = rest?;
    system.train_s = train_s;
    system.setup_s = train_s / f + rest_s / g;
    Ok(system)
}

/// The serving side of the set-up: engines, server, store, WAL, the
/// streamed world, warm-up.
fn serving(
    wl: &Workload,
    pipeline: Pipeline,
    dir: &Path,
    tracer: &Tracer,
) -> Result<System, String> {
    // Wire path: every id pays the forward; every other knob at its default.
    let wire_engine = Arc::new(
        pipeline
            .serving_engine()
            .no_cache()
            .build()
            .map_err(|e| format!("wire engine: {e}"))?,
    );
    let server = NetServer::start(Arc::clone(&wire_engine), ServerConfig::default())
        .map_err(|e| format!("NetServer::start: {e}"))?;

    // Ingest path: features served out of a disk store whose small memtable
    // makes the run flush and compact; caches at their defaults, so the
    // reader exercises both cache tiers while publishes clear them.
    let disk = Arc::new(
        DiskStore::open(
            dir.join("features"),
            DiskStoreOptions {
                memtable_bytes: MEMTABLE_BYTES,
                ..DiskStoreOptions::default()
            },
        )
        .map_err(|e| format!("DiskStore::open: {e}"))?,
    );
    let features = Arc::new(FeatureStore::new(
        Arc::clone(&disk) as Arc<dyn KvStore>,
        pipeline.dataset.graph.feature_dim(),
    ));
    preload_features(&features, &pipeline.dataset.graph);
    let ingest_engine = pipeline
        .serving_engine()
        .feature_store(Arc::clone(&features))
        .build()
        .map_err(|e| format!("ingest engine: {e}"))?;
    let wal_dir = dir.join("wal");
    let wal = ShardedWal::create(&wal_dir, WAL_SHARDS).map_err(|e| format!("WAL create: {e}"))?;

    let t = Instant::now();
    let arrivals = tracer.span("datagen", "generate_log+event_stream", 0, 0, |_| {
        let wcfg = PRESET.config(DATA_SEED + WORLD_SEED_OFFSET);
        let world = generate_log(&wcfg);
        event_stream(&world, &wcfg, ingest_engine.n_nodes())
    });
    let world_s = t.elapsed().as_secs_f64();

    warm_up(wl, &pipeline, &server, &ingest_engine)?;

    Ok(System {
        pipeline,
        wire_engine,
        server,
        disk,
        features,
        ingest_engine,
        wal,
        wal_dir,
        arrivals,
        setup_s: 0.0,
        train_s: 0.0,
        world_s,
    })
}

/// A short burst over the wire and through the ingest engine, so
/// connections, threads and allocators are warm.
fn warm_up(
    wl: &Workload,
    pipeline: &Pipeline,
    server: &NetServer,
    ingest_engine: &ScoringEngine,
) -> Result<(), String> {
    let pool = &pipeline.test_nodes;
    let warm = &pool[..pool.len().min(64)];
    ingest_engine
        .warm(&pool[..pool.len().min(64)])
        .map_err(|e| format!("warming the ingest engine: {e}"))?;
    let mut client = ScoreClient::connect(server.local_addr(), CLIENT_TIMEOUT)
        .map_err(|e| format!("connecting to the server: {e}"))?;
    for chunk in warm.chunks(wl.wire_ids).take(64) {
        match client.score(TENANT, chunk) {
            Ok(ScoreOutcome::Scores(_)) => {}
            other => return Err(format!("warm-up request failed: {other:?}")),
        }
    }
    Ok(())
}
