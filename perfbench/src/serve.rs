//! The `serve` workload: a persistent `SimilarityService` with an IVF+i8
//! tier, restored from a fixture snapshot, under open-loop traffic.
//!
//! 90 % of requests are `query(traj, 10)` on degraded variants of stored
//! trips, 10 % `insert` of fresh trips under new ids. A fixed-rate
//! Poisson phase gives the latency figures; a geometric ladder of rates
//! gives `knee_qps`; a saturation phase (every sender back to back)
//! gives capacity.

use crate::loadgen::{self, Phase, Planned};
use crate::report::{Metrics, Outcome};
use crate::stats::{mean, median, p99, secs, timed};
use crate::{fixture, trace, Ctx};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use t2vec_core::T2Vec;
use t2vec_serve::snapshot::{JOURNAL_FILE, SNAP_FORMAT_VERSION};
use t2vec_serve::{
    AnnConfig, EmbeddingStore, Entry, Journal, ServeConfig, SimilarityService, SnapshotStore,
    StoreSnapshot,
};
use t2vec_spatial::point::Point;
use t2vec_trajgen::Trajectory;

/// Trips that train the serving model.
pub const MODEL_TRIPS: usize = 1500;
/// Trips encoded into the store; jittered copies fill it to `STORE_SIZE`
/// (64-dim f32 rows: 10 MiB, more than a 4 MiB L2).
const STORED_TRIPS: usize = 3000;
const STORE_SIZE: usize = 40_000;
/// Fresh trips for inserts.
const FRESH_TRIPS: usize = 1500;
/// Ids of inserted trips start here, above every fixture id.
const FRESH_BASE: u64 = 1 << 40;
const K: usize = 10;
const INSERT_FRAC: f64 = 0.1;
/// The fixed arrival rate, and the ladder searched for the knee.
const FIXED_QPS: f64 = 200.0;
const LADDER_QPS: [f64; 4] = [200.0, 400.0, 800.0, 1600.0];
/// Query p99 limit of the knee, ms.
const P99_LIMIT_MS: f64 = 10.0;
/// Saturation windows; capacity is the median window's rate.
const SATURATION_WINDOWS: u64 = 3;
/// Times the service is set up per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Every `VERIFY_STRIDE`-th pooled query is re-checked after the load.
const VERIFY_STRIDE: usize = 25;

/// The ANN tier of the serving fixture: 64 cells, k-means on at most
/// 8 000 vectors.
pub fn ann_config() -> AnnConfig {
    AnnConfig {
        train_sample: 8_000,
        ..AnnConfig::new(64)
    }
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        ann: Some(ann_config()),
        ..ServeConfig::default()
    }
}

/// The serving fixture: a trained model on disk, a snapshot directory,
/// the query pool and the insert pool.
struct Fixture {
    model_path: PathBuf,
    dir: PathBuf,
    queries: Vec<Vec<Point>>,
    fresh: Vec<Trajectory>,
}

fn build_fixture(ctx: &Ctx) -> Fixture {
    let trips = fixture::porto_trips(ctx.seed, MODEL_TRIPS + STORED_TRIPS + FRESH_TRIPS);
    let (model_trips, rest) = trips.split_at(MODEL_TRIPS);
    let (stored, fresh) = rest.split_at(STORED_TRIPS);
    let model_path = ctx.work_dir.join("serve-model.json");
    let model = fixture::serving_model(model_trips, ctx.seed, &model_path);
    let points: Vec<Vec<Point>> = stored.iter().map(|t| t.points.clone()).collect();
    let vecs = fixture::jittered(&model.encode_batch(&points), STORE_SIZE, ctx.seed);
    let store = EmbeddingStore::new(model.repr_dim(), serve_config().shards);
    for (i, v) in vecs.iter().enumerate() {
        store.insert(i as u64, v);
    }
    assert!(store.build_ann(&ann_config()), "fixture ANN tier builds");
    let dir = ctx.work_dir.join("serve-store");
    let snaps = SnapshotStore::open(&dir, serve_config().snapshot_keep).expect("snapshot dir");
    snaps
        .save(&StoreSnapshot {
            version: SNAP_FORMAT_VERSION,
            seq: 1,
            dim: store.dim(),
            entries: store.dump_sorted(),
            ann: store.ann_state(),
        })
        .expect("write fixture snapshot");
    Fixture {
        model_path,
        dir,
        queries: fixture::degraded(stored, ctx.seed ^ 0x71),
        fresh: fresh.to_vec(),
    }
}

/// Loads the model from `path`.
pub fn load_model(path: &Path) -> T2Vec {
    let file = std::fs::File::open(path).expect("open model file");
    T2Vec::load(std::io::BufReader::new(file)).expect("load model")
}

/// What one served operation observed, for the post-load checks.
#[derive(Default)]
struct Observed {
    /// `(id, fresh-trip index)` of every acknowledged insert.
    acked: Vec<(u64, usize)>,
    /// `(cells probed, candidates)` of traced queries.
    explains: Vec<(usize, usize)>,
}

struct Load<'a> {
    svc: &'a SimilarityService,
    fx: &'a Fixture,
    senders: usize,
    next_fresh: AtomicUsize,
    next_req: AtomicUsize,
    seen: Mutex<Observed>,
}

impl Load<'_> {
    /// Runs `plan`; operations not started `grace` after its last due
    /// time are skipped.
    fn phase(&self, plan: &[Planned], grace: Duration) -> Phase {
        loadgen::run(plan, self.senders, grace, |i, due| {
            let r = self.op(&plan[i], due);
            if let Err(e) = &r {
                eprintln!("op {i} failed: {e}");
            }
            r
        })
    }

    fn op(&self, p: &Planned, due: Instant) -> Result<(), String> {
        let req = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        trace::set_request(req as u64);
        let _root = trace::span_from("bench.serve.request", due);
        if p.insert {
            let n = self.next_fresh.fetch_add(1, Ordering::Relaxed);
            let id = FRESH_BASE + n as u64;
            let points = &self.fx.fresh[n % self.fx.fresh.len()].points;
            if trace::enabled() {
                let v = {
                    let _s = trace::span("serve.batcher.encode");
                    self.svc.encode(points)
                };
                let _s = trace::span("serve.service.insert_vec");
                self.svc.insert_vec(id, v).map_err(|e| e.to_string())?;
            } else {
                self.svc.insert(id, points).map_err(|e| e.to_string())?;
            }
            self.seen
                .lock()
                .expect("sender panicked")
                .acked
                .push((id, n));
        } else {
            let q = &self.fx.queries[req % self.fx.queries.len()];
            let answer = if trace::enabled() {
                let v = {
                    let _s = trace::span("serve.batcher.encode");
                    self.svc.encode(q)
                };
                let (answer, explain) = {
                    let _s = trace::span("serve.store.knn");
                    self.svc.store().knn_ann_explained(&v, K)
                };
                let mut seen = self.seen.lock().expect("sender panicked");
                seen.explains
                    .push((explain.cells_probed, explain.candidates));
                answer
            } else {
                self.svc.query(q, K)
            };
            if answer.len() != K {
                return Err(format!("{} results for k = {K}", answer.len()));
            }
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let fx = build_fixture(ctx);
    let mut out = Outcome::default();
    if ctx.trace {
        trace::enable();
    }

    // Set-up: load the model, open the persistent service (snapshot
    // restore + ANN tier restore), answer one query.
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut svc = None;
    let mut restored = true;
    for _ in 0..SETUPS {
        drop(svc.take());
        let root = trace::span("bench.serve.setup");
        let t0 = Instant::now();
        let (model, load_s) = timed(|| {
            let _s = trace::span("core.model.load");
            load_model(&fx.model_path)
        });
        let (service, warnings) = {
            let _s = trace::span("serve.service.open");
            SimilarityService::open(Arc::new(model), serve_config(), &fx.dir)
                .expect("open the service")
        };
        service.query(&fx.queries[0], K);
        setups.push(secs(t0));
        loads.push(load_s);
        drop(root);
        restored &=
            warnings.is_empty() && service.len() == STORE_SIZE && service.store().ann().is_some();
        svc = Some(service);
    }
    out.check(
        "serve.open_restores_fixture",
        restored,
        format!("{SETUPS} opens: {STORE_SIZE} entries, ANN tier, no warnings"),
    );
    let svc = svc.expect("at least one set-up");
    trace::disable();

    let load = Load {
        svc: &svc,
        fx: &fx,
        senders: ctx.nproc,
        next_fresh: AtomicUsize::new(0),
        next_req: AtomicUsize::new(0),
        seen: Mutex::new(Observed::default()),
    };
    let grace = Duration::from_millis(500);
    let seed = ctx.seed;
    let fixed_s = 0.5 * ctx.seconds;
    let mut phases = Vec::new();
    // Fixed rate: the latency figures. A traced run splits it into an
    // untraced half and a traced half, whose ratio is the tracing
    // overhead.
    let (fixed, untraced_half) = if ctx.trace {
        let plan = loadgen::poisson(FIXED_QPS, fixed_s / 2.0, INSERT_FRAC, seed ^ 1);
        let before = load.phase(&plan, grace);
        trace::enable();
        let plan = loadgen::poisson(FIXED_QPS, fixed_s / 2.0, INSERT_FRAC, seed ^ 2);
        (load.phase(&plan, grace), Some(before))
    } else {
        let plan = loadgen::poisson(FIXED_QPS, fixed_s, INSERT_FRAC, seed ^ 1);
        (load.phase(&plan, grace), None)
    };
    let request_spans = trace::take();
    trace::disable();

    // The ladder: the knee is the highest rate whose query p99 stays
    // within the limit with no failure, no unsent operation and no
    // growing backlog.
    let rung_s = 0.05 * ctx.seconds;
    let mut knee = 0.0f64;
    for (r, &rate) in LADDER_QPS.iter().enumerate() {
        let plan = loadgen::poisson(rate, rung_s, INSERT_FRAC, seed ^ (0x100 + r as u64));
        let rung = load.phase(&plan, grace);
        println!(
            "rung {rate} qps: sent {} unsent {} failed {}, query p50 {:.3} ms p99 {:.3} ms, backlog max {}{}",
            rung.sent,
            rung.unsent,
            rung.failed,
            median(&rung.query_ms),
            p99(&rung.query_ms),
            rung.backlog_max,
            if rung.backlog_grew { " (growing)" } else { "" },
        );
        if p99(&rung.query_ms) <= P99_LIMIT_MS
            && rung.failed == 0
            && rung.unsent == 0
            && !rung.backlog_grew
        {
            knee = knee.max(rate);
        }
        phases.push(rung);
    }
    // Saturation: every sender back to back, in short windows; capacity
    // is the median window's completion rate.
    let window = Duration::from_secs_f64(0.05 * ctx.seconds);
    let mut capacity = Vec::new();
    for w in 0..SATURATION_WINDOWS {
        // Far more operations than the senders complete in a window.
        let plan = loadgen::saturate(50_000, INSERT_FRAC, seed ^ (0x200 + w));
        let phase = load.phase(&plan, window);
        capacity.push(phase.completed_per_s);
        phases.push(phase);
    }

    // Post-load checks.
    let model = svc.model();
    let mut recall = Vec::new();
    let mut same = true;
    let mut exact_us = Vec::new();
    let verify: Vec<&Vec<Point>> = fx.queries.iter().step_by(VERIFY_STRIDE).collect();
    for q in &verify {
        let served = svc.query(q, K);
        let v = model.encode(q);
        same &= bits(&served) == bits(&svc.store().knn_ann(&v, K));
        let (exact, s) = timed(|| svc.store().knn(&v, K));
        exact_us.push(s * 1e6);
        recall.push(overlap(&served, &exact));
    }
    out.check(
        "serve.answers_match_store_knn_ann",
        same,
        format!("{} sampled queries, byte for byte", verify.len()),
    );
    let seen = load.seen.into_inner().expect("sender panicked");
    let missing = seen
        .acked
        .iter()
        .filter(|&&(id, n)| {
            let want = model.encode(&fx.fresh[n % fx.fresh.len()].points);
            svc.store().get(id).map(|v| bits_vec(&v)) != Some(bits_vec(&want))
        })
        .count();
    out.check(
        "serve.acked_inserts_present",
        missing == 0,
        format!(
            "{} acknowledged inserts, {missing} missing",
            seen.acked.len()
        ),
    );

    let all: Vec<&Phase> = untraced_half
        .iter()
        .chain(std::iter::once(&fixed))
        .chain(phases.iter())
        .collect();
    out.attempted = all.iter().map(|p| p.sent).sum();
    out.failed = all.iter().map(|p| p.failed).sum();
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;

    out.e2e.set("setup_s", median(&setups));
    out.e2e.set("throughput_per_s", median(&capacity));
    out.e2e.set("latency_p50_ms", median(&fixed.query_ms));

    let l = &mut out.layer;
    l.set("query_p50_ms", median(&fixed.query_ms));
    l.set("query_p99_ms", p99(&fixed.query_ms));
    l.set("insert_p99_ms", p99(&fixed.insert_ms));
    l.set("knee_qps", knee);
    l.set("recall_at_10", mean(&recall));
    l.set("fail_frac", fail_frac);
    l.set("core.model.load_s", median(&loads));
    l.set_p50_p99("loadgen.late_ms", &fixed.late_ms);
    l.set("loadgen.backlog_max", fixed.backlog_max as f64);
    l.set("loadgen.ops_sent", fixed.sent as f64);
    l.set("loadgen.ops_ok", fixed.ok as f64);
    l.set("loadgen.ops_failed", fixed.failed as f64);
    if let Some(before) = &untraced_half {
        trace::enable();
        let probe_root = trace::span("bench.serve.probe");
        probe_layers(&svc, &verify, &seen.acked, &ctx.work_dir);
        let replayed = restart_breakdown(&fx.dir, model.repr_dim());
        drop(probe_root);
        trace::disable();
        let mut spans = request_spans;
        spans.extend(trace::take());
        let sum = trace::summarize(&spans, |name| name == "bench.serve.request");
        let overhead = median(&fixed.query_ms) / median(&before.query_ms) - 1.0;
        crate::set_trace_metrics(l, &sum, overhead);
        let tokenize = sum.us("spatial.vocab.tokenize");
        let batcher = sum.us("serve.batcher.encode");
        let engine = sum.us("nn.infer.encode");
        l.set_p50_p99("spatial.tokenize_us", &tokenize);
        l.set_p50_p99("serve.batcher.encode_us", &batcher);
        l.set_p50_p99("nn.infer.encode_us", &engine);
        l.set(
            "serve.batcher.wait_us.p50",
            median(&batcher) - median(&engine) - median(&tokenize),
        );
        l.set_p50_p99("serve.store.knn_us", &sum.us("serve.store.knn"));
        set_explain_metrics(l, &seen.explains);
        l.set_p50_p99("serve.store.exact_knn_us", &exact_us);
        l.set_p50_p99("serve.store.insert_us", &sum.us("serve.store.insert"));
        l.set_p50_p99(
            "serve.snapshot.journal_append_us",
            &sum.us("serve.snapshot.journal_append"),
        );
        set_restart_metrics(l, &sum, replayed);
        crate::write_trace(&spans);
    }
    out
}

/// The layer calls a request makes, timed one by one on the verified
/// query sample and the acknowledged inserts (outside the load phases).
fn probe_layers(
    svc: &SimilarityService,
    queries: &[&Vec<Point>],
    acked: &[(u64, usize)],
    work_dir: &Path,
) {
    let model = svc.model();
    let mut engine = model.seq2seq().encode_engine();
    for q in queries {
        let tokens = {
            let _s = trace::span("spatial.vocab.tokenize");
            model.vocab().tokenize(q)
        };
        let _s = trace::span("nn.infer.encode");
        engine.encode_batch(&[tokens.as_slice()]);
    }
    let ids: Vec<u64> = acked.iter().take(300).map(|&(id, _)| id).collect();
    probe_writes(svc, ids.into_iter(), work_dir);
}

/// `EmbeddingStore::insert` (re-upserting entries with their own
/// vectors, which leaves the store as it is) and `Journal::append` into
/// a scratch journal, timed one by one for each of `ids`.
pub fn probe_writes(svc: &SimilarityService, ids: impl Iterator<Item = u64>, work_dir: &Path) {
    let path = work_dir.join("probe-journal.log");
    let mut journal = Journal::open(&path).expect("open probe journal");
    for id in ids {
        let vec = svc.store().get(id).expect("stored entry present");
        {
            let _s = trace::span("serve.store.insert");
            svc.store().insert(id, &vec);
        }
        let _s = trace::span("serve.snapshot.journal_append");
        journal
            .append(&Entry { id, vec })
            .expect("append probe journal");
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
}

/// The parts of `SimilarityService::open`, timed as separate calls on
/// the persistence directory `dir`: snapshot load, journal replay, and
/// the ANN-tier restore into a store holding the recovered entries.
/// Returns the number of journal records replayed.
pub fn restart_breakdown(dir: &Path, dim: usize) -> usize {
    let cfg = serve_config();
    let outcome = {
        let _s = trace::span("serve.snapshot.load");
        SnapshotStore::open(dir, cfg.snapshot_keep)
            .expect("open snapshot dir")
            .load_latest()
    };
    let replayed = {
        let _s = trace::span("serve.snapshot.replay");
        Journal::replay(&dir.join(JOURNAL_FILE)).0
    };
    let Some((_, snap)) = outcome.snapshot else {
        return replayed.len();
    };
    let store = EmbeddingStore::new(dim, cfg.shards);
    for e in snap.entries.iter().chain(replayed.iter()) {
        store.insert(e.id, &e.vec);
    }
    if let Some(state) = &snap.ann {
        let _s = trace::span("serve.ann.restore");
        store.restore_ann(state);
    }
    replayed.len()
}

pub fn set_restart_metrics(l: &mut Metrics, sum: &trace::Summary, replayed: usize) {
    l.set("serve.snapshot.replayed_records", replayed as f64);
    l.set("serve.snapshot.load_s", sum.total_s("serve.snapshot.load"));
    l.set(
        "serve.snapshot.replay_s",
        sum.total_s("serve.snapshot.replay"),
    );
    l.set("serve.ann.restore_s", sum.total_s("serve.ann.restore"));
}

fn set_explain_metrics(l: &mut Metrics, explains: &[(usize, usize)]) {
    let cells: Vec<f64> = explains.iter().map(|e| e.0 as f64).collect();
    let cands: Vec<f64> = explains.iter().map(|e| e.1 as f64).collect();
    l.set("serve.ann.cells_probed", mean(&cells));
    l.set("serve.ann.candidates", mean(&cands));
    l.set("serve.ann.useful_ratio", K as f64 / mean(&cands).max(1.0));
}

/// Ids and distance bits of a kNN answer.
pub fn bits(answer: &[(u64, f32)]) -> Vec<(u64, u32)> {
    answer.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

pub fn bits_vec(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Share of `truth`'s ids that `got` contains.
pub fn overlap(got: &[(u64, f32)], truth: &[(u64, f32)]) -> f64 {
    let hits = got
        .iter()
        .filter(|(id, _)| truth.iter().any(|(t, _)| t == id))
        .count();
    hits as f64 / truth.len().max(1) as f64
}
