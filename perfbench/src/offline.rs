//! The offline phase: training slices, Table 3 batch inference and the §5
//! explanation of sampled communities (GNNExplainer plus every centrality
//! source), spread over the run's rounds. The served detector was trained
//! by `Pipeline::run` during set-up; the training slices continue a copy of
//! it. Every timed unit runs between two host-speed probes, and the
//! end-to-end figures are its time at the probe's nominal speed.

use std::sync::atomic::Ordering;
use std::time::Instant;

use xfraud::explain::centrality::{community_edge_weights, Measure, EXTENDED_MEASURES};
use xfraud::explain::{ExplainerConfig, GnnExplainer};
use xfraud::gnn::{
    batch_rng, grad_step, streams, Model, Sampler, TrainConfig, Trainer, XFraudDetector,
};
use xfraud::hetgraph::Community;
use xfraud::metrics::roc_auc;
use xfraud::nn::AdamW;
use xfraud::Pipeline;

use crate::setup::DATA_SEED;
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::Counts;

/// Communities explained. The §5.1 study allows 48 nodes; at that size a
/// few communities of 120+ links take 1.3 s each, half of all explanation
/// time, so the run's figure rested on the host's speed at three moments.
/// Capped at 32 nodes, the dearest costs 1 s and more communities share the
/// time.
pub const COMMUNITIES: usize = 24;
const MIN_LINKS: usize = 6;
const MAX_NODES: usize = 32;
/// A 2-epoch detector on the small preset reaches 0.64-0.85 depending on
/// its initialisation seed; a broken trainer or forward stays near 0.5
/// (±0.05 with the ~36 held-out frauds).
pub const AUC_FLOOR: f64 = 0.6;
/// Training steps replayed on the benchmark thread in the traced run.
const TRACED_STEPS: usize = 6;
/// Training transactions per round's `Trainer::fit` slice (one step of the
/// default 256), and the held-out transactions it validates on.
pub const TRAIN_SLICE: usize = 256;
const TRAIN_VAL: usize = 64;

#[derive(Default)]
pub struct Offline {
    pub auc: f64,
    /// Wall seconds per inference batch and per explained community.
    pub infer_s: Vec<f64>,
    pub explain_s: Vec<f64>,
    /// The same at the probe's nominal host speed.
    pub infer_norm_s: Vec<f64>,
    pub explain_norm_s: Vec<f64>,
    /// Per `Trainer::fit` slice, transactions trained per second at nominal
    /// speed.
    pub train_rates: Vec<f64>,
    pub gnnexplainer_s: f64,
    pub bfs_s: f64,
    pub linalg_s: f64,
    pub kernel_s: f64,
    pub links: usize,
    pub train_sample_ms: Vec<f64>,
    pub fwd_bwd_ms: Vec<f64>,
    pub optim_step_ms: Vec<f64>,
}

/// Which family of the explainer's sources a measure belongs to.
fn family(m: Measure) -> &'static str {
    match m {
        Measure::KernelPageRank | Measure::KernelKCore => "kernels",
        Measure::ApproxCurrentFlowBetweenness
        | Measure::CommunicabilityBetweenness
        | Measure::CurrentFlowBetweenness
        | Measure::CurrentFlowCloseness
        | Measure::Eigenvector
        | Measure::Subgraph => "linalg",
        _ => "bfs",
    }
}

/// The offline phase's state across rounds.
pub struct OfflinePhase<'a> {
    p: &'a Pipeline,
    seed: u64,
    tracer: &'a Tracer,
    counts: &'a Counts,
    trainer: Trainer,
    /// The copy of the detector the training slices continue.
    student: XFraudDetector,
    slices: usize,
    explainer: GnnExplainer<'a, XFraudDetector>,
    communities: Vec<Community>,
    batches: usize,
    explained: usize,
    pub out: Offline,
}

impl<'a> OfflinePhase<'a> {
    /// Checks the detector's AUC and samples the communities to explain.
    pub fn new(
        p: &'a Pipeline,
        seed: u64,
        tracer: &'a Tracer,
        counts: &'a Counts,
    ) -> Result<Self, String> {
        // Gate: the trained detector ranks held-out fraud above chance.
        let (scores, labels) = p.test_scores();
        let auc = roc_auc(&scores, &labels);
        if auc.is_nan() || auc < AUC_FLOOR {
            return Err(format!("test AUC {auc:.4} is below the floor {AUC_FLOOR}"));
        }
        let trainer = Trainer::new(p.cfg.train.clone());
        if p.test_nodes.len() < trainer.cfg.eval_batch_size {
            return Err(format!(
                "{} held-out transactions, fewer than one batch",
                p.test_nodes.len()
            ));
        }
        // The same communities every run (like the dataset), so explanation
        // work does not change with the seed.
        let communities = p
            .sample_communities(COMMUNITIES, MIN_LINKS, MAX_NODES, DATA_SEED)
            .map_err(|e| format!("sample_communities: {e}"))?;
        if communities.len() < COMMUNITIES {
            return Err(format!("only {} communities sampled", communities.len()));
        }
        let explainer = GnnExplainer::new(
            &p.detector,
            ExplainerConfig {
                beta_edge_size: 0.05,
                ..ExplainerConfig::default()
            },
        );
        Ok(OfflinePhase {
            p,
            seed,
            tracer,
            counts,
            trainer,
            student: p.detector.clone(),
            slices: 0,
            explainer,
            communities,
            batches: 0,
            explained: 0,
            out: Offline {
                auc,
                ..Offline::default()
            },
        })
    }

    /// One `Trainer::fit` epoch over the next [`TRAIN_SLICE`] training
    /// transactions (in a seeded order), validated on [`TRAIN_VAL`]
    /// held-out ones.
    pub fn train(&mut self, speed: &mut Speed) {
        let p = self.p;
        let n = p.train_nodes.len();
        let start = self.slices * TRAIN_SLICE % n;
        let nodes: Vec<_> = (start..start + TRAIN_SLICE)
            .map(|i| p.train_nodes[i % n])
            .collect();
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            seed: self.seed ^ self.slices as u64,
            ..p.cfg.train.clone()
        });
        self.counts.attempted.fetch_add(1, Ordering::Relaxed);
        let (student, tracer) = (&mut self.student, self.tracer);
        let (stats, f) = speed.slice(|| {
            let t = Instant::now();
            let stats = tracer.span("gnn", "Trainer::fit", 0, self.slices as u64, |_| {
                trainer.fit(
                    student,
                    &p.dataset.graph,
                    &p.sampler,
                    &nodes,
                    &p.test_nodes[..TRAIN_VAL],
                )
            });
            (stats, t.elapsed().as_secs_f64())
        });
        let (stats, secs) = stats;
        if stats.len() != 1 || !stats[0].mean_loss.is_finite() {
            self.counts
                .fail(format!("training slice {}: {stats:?}", self.slices));
        } else {
            self.out.train_rates.push(nodes.len() as f64 / (secs / f));
        }
        self.slices += 1;
    }

    /// Table 3: `n` inference batches of 640 held-out transactions.
    pub fn infer(&mut self, n: usize, speed: &mut Speed) {
        let (p, tracer) = (self.p, self.tracer);
        let nodes = &p.test_nodes[..self.trainer.cfg.eval_batch_size];
        for i in self.batches..self.batches + n {
            self.counts.attempted.fetch_add(1, Ordering::Relaxed);
            let ((s, secs), f) = speed.slice(|| {
                let started = Instant::now();
                let (s, _) = tracer.span("gnn", "Trainer::evaluate", 0, i as u64, |_| {
                    self.trainer.evaluate(
                        &p.detector,
                        &p.dataset.graph,
                        &p.sampler,
                        nodes,
                        self.seed ^ i as u64,
                    )
                });
                (s, started.elapsed().as_secs_f64())
            });
            self.out.infer_s.push(secs);
            self.out.infer_norm_s.push(secs / f);
            if s.len() != nodes.len() || s.iter().any(|x| !(0.0..=1.0).contains(x)) {
                self.counts
                    .fail(format!("inference batch {i} returned bad scores"));
            }
        }
        self.batches += n;
    }

    /// §5.1: the next `n` communities, each explained by GNNExplainer and
    /// by every centrality source.
    pub fn explain(&mut self, n: usize, speed: &mut Speed) -> Result<(), String> {
        let end = (self.explained + n).min(self.communities.len());
        for i in self.explained..end {
            self.counts.attempted.fetch_add(1, Ordering::Relaxed);
            let (secs, f) = speed.slice(|| self.explain_one(i));
            let secs = secs?;
            self.out.explain_s.push(secs);
            self.out.explain_norm_s.push(secs / f);
        }
        self.explained = end;
        Ok(())
    }

    /// Explains community `i`; returns its wall seconds.
    fn explain_one(&mut self, i: usize) -> Result<f64, String> {
        let (out, tracer) = (&mut self.out, self.tracer);
        let c = &self.communities[i];
        let req = i as u64;
        let started = Instant::now();
        let (_, weights) = tracer.span("explain", "explain_community", 0, req, |_| {
            self.explainer.explain_community(c)
        });
        out.gnnexplainer_s += started.elapsed().as_secs_f64();
        let n_links = c.graph.undirected_links().len();
        out.links += n_links;
        if weights.len() != n_links || weights.iter().any(|w| !(0.0..=1.0).contains(w)) {
            return Err(format!(
                "community {i}: explainer weights not finite in [0, 1]"
            ));
        }
        for (k, m) in EXTENDED_MEASURES.into_iter().enumerate() {
            let mut rng = batch_rng(self.seed, streams::EVAL, i as u64, k as u64);
            let t = Instant::now();
            let layer = if family(m) == "kernels" {
                "kernels"
            } else {
                "explain"
            };
            let w = tracer.span(layer, "community_edge_weights", 0, req, |_| {
                community_edge_weights(&c.graph, m, &mut rng)
            });
            let secs = t.elapsed().as_secs_f64();
            match family(m) {
                "kernels" => out.kernel_s += secs,
                "linalg" => out.linalg_s += secs,
                _ => out.bfs_s += secs,
            }
            if w.len() != n_links || w.iter().any(|x| !x.is_finite()) {
                return Err(format!("community {i}: {} weights not finite", m.name()));
            }
        }
        Ok(started.elapsed().as_secs_f64())
    }

    pub fn finish(mut self) -> Offline {
        if self.tracer.enabled() {
            replay_training(self.p, self.seed, self.tracer, &mut self.out);
        }
        self.out
    }
}

/// Traced run: replays training steps on a copy of the detector, timing
/// the sampler, forward + backward, and the AdamW step separately.
fn replay_training(p: &Pipeline, seed: u64, tracer: &Tracer, out: &mut Offline) {
    let mut detector = p.detector.clone();
    let mut opt = AdamW::new(p.cfg.train.lr);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for (i, chunk) in p
        .train_nodes
        .chunks(p.cfg.train.batch_size)
        .take(TRACED_STEPS)
        .enumerate()
    {
        let req = i as u64;
        let mut rng = batch_rng(seed, streams::SAMPLE, 0, req);
        let t = Instant::now();
        let batch = tracer.span("gnn", "Sampler::sample", 0, req, |_| {
            p.sampler.sample(&p.dataset.graph, chunk, &mut rng)
        });
        out.train_sample_ms.push(ms(t));
        let mut step_rng = batch_rng(seed, streams::STEP, 0, req);
        let t = Instant::now();
        let (_, grads) = tracer.span("gnn", "grad_step", 0, req, |_| {
            grad_step(&detector, &batch, &mut step_rng)
        });
        out.fwd_bwd_ms.push(ms(t));
        let t = Instant::now();
        tracer.span("nn", "AdamW::step", 0, req, |_| {
            opt.step(detector.store_mut(), &grads)
        });
        out.optim_step_ms.push(ms(t));
    }
}
