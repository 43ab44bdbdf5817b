//! The `ingest` workload: the write side of the service.
//!
//! On a persistent service opened empty: `T2Vec::encode_batch` a
//! full-rate corpus, `insert_vec` every vector (journalled), `build_ann`,
//! `snapshot`, append a journal tail, drop the service, reopen it and
//! answer a first query; then recall of the ANN tier against the exact
//! scan over degraded queries. A traced run builds the tier from its
//! parts (`kmeans`, `ScalarQuantizer::train`, then the upsert of every
//! entry) and checks the result equals `build_ann`'s.

use crate::report::Outcome;
use crate::serve::{
    bits, bits_vec, load_model, overlap, probe_writes, restart_breakdown, set_restart_metrics,
};
use crate::stats::{median, p99, secs, timed};
use crate::{fixture, trace, Ctx};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use t2vec_core::ann::ScalarQuantizer;
use t2vec_core::kmeans::kmeans;
use t2vec_core::T2Vec;
use t2vec_serve::ann::QuantizerState;
use t2vec_serve::{AnnConfig, AnnState, ServeConfig, SimilarityService, SnapshotStore};
use t2vec_spatial::point::Point;
use t2vec_spatial::vocab::Token;
use t2vec_tensor::rng::det_rng;

/// Trajectories ingested before the snapshot, and after it (the journal
/// tail that restart replays).
const CORPUS: usize = 10_000;
const TAIL: usize = 500;
/// Every `QUERY_STRIDE`-th corpus trip, degraded, is a recall query.
const QUERY_STRIDE: usize = 50;
/// Fewest pipelines per untraced run; the figures are medians.
const MIN_REPS: usize = 3;
/// Every `VERIFY_STRIDE`-th vector of `encode_batch` is checked
/// against `T2Vec::encode`.
const VERIFY_STRIDE: usize = 100;
const K: usize = 10;

/// 64 cells trained on the whole corpus.
fn ann_config() -> AnnConfig {
    AnnConfig::new(64)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        ann: Some(ann_config()),
        ..ServeConfig::default()
    }
}

/// One pipeline's figures.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    insert_ms: Vec<f64>,
    build_s: f64,
    snapshot_s: f64,
    restart_s: f64,
    /// encode + insert + build + snapshot + tail + restart.
    pipeline_s: f64,
    recall: f64,
    ann: Option<AnnState>,
    /// Lloyd iterations of the traced build (0 untraced).
    kmeans_iterations: usize,
}

struct Inputs<'a> {
    model_path: &'a Path,
    points: &'a [Vec<Point>],
    queries: &'a [Vec<Point>],
}

pub fn run(ctx: &Ctx) -> Outcome {
    let trips = fixture::porto_trips(ctx.seed ^ 0x696e, crate::serve::MODEL_TRIPS + CORPUS + TAIL);
    let (model_trips, corpus) = trips.split_at(crate::serve::MODEL_TRIPS);
    let model_path = ctx.work_dir.join("ingest-model.json");
    fixture::serving_model(model_trips, ctx.seed, &model_path);
    let points: Vec<Vec<Point>> = corpus.iter().map(|t| t.points.clone()).collect();
    let held: Vec<_> = corpus[..CORPUS]
        .iter()
        .step_by(QUERY_STRIDE)
        .cloned()
        .collect();
    let queries = fixture::degraded(&held, ctx.seed ^ 0x7175);
    let inputs = Inputs {
        model_path: &model_path,
        points: &points,
        queries: &queries,
    };
    let mut out = Outcome::default();
    // About 5 s a pipeline on a 2-core x86-64 host.
    let reps = if ctx.trace {
        1
    } else {
        ((ctx.seconds / 5.0).round() as usize).max(MIN_REPS)
    };
    let untraced: Vec<Rep> = (0..reps)
        .map(|r| pipeline(ctx, r, &inputs, &mut out))
        .collect();
    let total = (CORPUS + TAIL) as f64;
    let pipeline_s = median(&untraced.iter().map(|r| r.pipeline_s).collect::<Vec<_>>());
    let insert_ms: Vec<f64> = untraced.iter().flat_map(|r| r.insert_ms.clone()).collect();
    let med = |f: fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    out.e2e.set("setup_s", med(|r| r.setup_s));
    out.e2e.set("throughput_per_s", total / pipeline_s);
    out.e2e.set("latency_p50_ms", med(|r| r.restart_s) * 1e3);
    out.layer.set("insert_p99_ms", p99(&insert_ms));
    if ctx.trace {
        trace::enable();
        let rep = pipeline(ctx, reps, &inputs, &mut out);
        out.check(
            "ingest.decomposed_build_matches_build_ann",
            rep.ann.is_some() && rep.ann == untraced[0].ann,
            "kmeans + ScalarQuantizer::train + upsert equals build_ann",
        );
        trace::disable();
        let spans = trace::take();
        let sum = trace::summarize(&spans, |name| name.starts_with("bench.ingest.stage"));
        let l = &mut out.layer;
        crate::set_trace_metrics(l, &sum, rep.pipeline_s / pipeline_s - 1.0);
        l.set("ingest_traj_per_s", total / rep.pipeline_s);
        l.set("index_build_s", rep.build_s);
        l.set("snapshot_s", rep.snapshot_s);
        l.set("restart_s", rep.restart_s);
        l.set("recall_at_10", rep.recall);
        l.set("core.model.load_s", sum.total_s("core.model.load"));
        l.set_p50_p99("spatial.tokenize_us", &sum.us("spatial.vocab.tokenize"));
        l.set(
            "nn.infer.encode_batch_ms",
            sum.total_s("nn.infer.encode_batch") * 1e3,
        );
        l.set("core.kmeans.fit_s", sum.total_s("core.kmeans.fit"));
        l.set("core.kmeans.iterations", rep.kmeans_iterations as f64);
        l.set(
            "core.ann.quantizer_train_s",
            sum.total_s("core.ann.quantizer_train"),
        );
        l.set(
            "serve.ann.upsert_all_s",
            sum.total_s("serve.ann.upsert_all"),
        );
        l.set(
            "serve.snapshot.save_s",
            sum.total_s("serve.service.snapshot"),
        );
        l.set(
            "serve.snapshot.bytes",
            newest_snapshot_bytes(&ctx.work_dir.join(dir_name(reps))),
        );
        l.set_p50_p99("serve.store.knn_us", &sum.us("serve.store.knn"));
        l.set_p50_p99("serve.store.exact_knn_us", &sum.us("serve.store.exact_knn"));
        l.set_p50_p99("serve.store.insert_us", &sum.us("serve.store.insert"));
        l.set_p50_p99(
            "serve.snapshot.journal_append_us",
            &sum.us("serve.snapshot.journal_append"),
        );
        set_restart_metrics(l, &sum, TAIL);
        crate::write_trace(&spans);
    } else {
        let l = &mut out.layer;
        l.set("ingest_traj_per_s", total / pipeline_s);
        l.set("index_build_s", med(|r| r.build_s));
        l.set("snapshot_s", med(|r| r.snapshot_s));
        l.set("restart_s", med(|r| r.restart_s));
        l.set("recall_at_10", untraced[0].recall);
    }
    out.layer
        .set("fail_frac", out.failed as f64 / out.attempted.max(1) as f64);
    out
}

fn dir_name(rep: usize) -> String {
    format!("ingest-store-{rep}")
}

fn newest_snapshot_bytes(dir: &Path) -> f64 {
    SnapshotStore::open(dir, 1)
        .ok()
        .and_then(|s| s.snapshot_files().pop())
        .and_then(|(path, _)| std::fs::metadata(path).ok())
        .map_or(0.0, |m| m.len() as f64)
}

/// Encodes every trajectory: `T2Vec::encode_batch` untraced; traced,
/// its two parts (tokenize, then `encode_tokens_batch`) one by one.
fn encode_all(model: &T2Vec, points: &[Vec<Point>]) -> Vec<Vec<f32>> {
    if !trace::enabled() {
        return model.encode_batch(points);
    }
    let tokens: Vec<Vec<Token>> = points
        .iter()
        .map(|p| {
            let _s = trace::span("spatial.vocab.tokenize");
            model.vocab().tokenize(p)
        })
        .collect();
    let seqs: Vec<&[Token]> = tokens.iter().map(Vec::as_slice).collect();
    let _s = trace::span("nn.infer.encode_batch");
    model.seq2seq().encode_tokens_batch(&seqs)
}

/// Builds the ANN tier: `build_ann` untraced; traced, from its parts,
/// exactly as `EmbeddingStore::build_ann` composes them.
fn build_tier(svc: &SimilarityService, iterations: &mut usize) -> bool {
    if !trace::enabled() {
        return svc.build_ann();
    }
    let cfg = ann_config();
    let entries = svc.store().dump_sorted();
    let stride = if cfg.train_sample == 0 {
        1
    } else {
        entries.len().div_ceil(cfg.train_sample).max(1)
    };
    let training: Vec<Vec<f32>> = entries
        .iter()
        .step_by(stride)
        .map(|e| e.vec.clone())
        .collect();
    let km = {
        let _s = trace::span("core.kmeans.fit");
        let nlist = cfg.nlist.min(training.len());
        kmeans(
            &training,
            nlist,
            cfg.kmeans_iters.max(1),
            &mut det_rng(cfg.train_seed),
        )
    };
    *iterations = km.iterations;
    let quantizer = cfg.quantize.then(|| {
        let _s = trace::span("core.ann.quantizer_train");
        ScalarQuantizer::train(&training)
    });
    let state = AnnState {
        nprobe: cfg.nprobe,
        rerank: cfg.rerank,
        centroids: km.centroids,
        quantizer: quantizer.map(|q| {
            let (lo, scale, bias) = q.parts();
            QuantizerState {
                lo: lo.to_vec(),
                scale: scale.to_vec(),
                bias: bias.to_vec(),
            }
        }),
    };
    let _s = trace::span("serve.ann.upsert_all");
    svc.store().restore_ann(&state)
}

/// Runs `f` under a pipeline-stage root span and returns its seconds.
fn stage<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _root = trace::span(name);
    timed(f)
}

/// One ingest pipeline in a fresh directory; traced when tracing is on.
fn pipeline(ctx: &Ctx, r: usize, inp: &Inputs, out: &mut Outcome) -> Rep {
    let traced = trace::enabled();
    let dir = ctx.work_dir.join(dir_name(r));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rep = Rep::default();

    let setup_root = trace::span("bench.ingest.setup");
    let t0 = Instant::now();
    let model = {
        let _s = trace::span("core.model.load");
        Arc::new(load_model(inp.model_path))
    };
    let open = |model: Arc<T2Vec>| {
        let _s = trace::span("serve.service.open");
        SimilarityService::open(model, serve_config(), &dir).expect("open the service")
    };
    let (svc, _) = open(Arc::clone(&model));
    rep.setup_s = secs(t0);
    drop(setup_root);

    let (vecs, encode_s) = stage("bench.ingest.stage.encode", || {
        encode_all(&model, inp.points)
    });
    let sample_ok = inp
        .points
        .iter()
        .zip(&vecs)
        .step_by(VERIFY_STRIDE)
        .all(|(p, v)| bits_vec(v) == bits_vec(&model.encode(p)));
    out.check(
        "ingest.encode_batch_matches_encode",
        sample_ok,
        format!(
            "every {VERIFY_STRIDE}th of {} vectors, bit for bit",
            vecs.len()
        ),
    );
    let ((), insert_s) = stage("bench.ingest.stage.insert", || {
        insert_range(&svc, &vecs, 0..CORPUS, &mut rep, out);
    });
    let (built, build_s) = stage("bench.ingest.stage.build", || {
        build_tier(&svc, &mut rep.kmeans_iterations)
    });
    let (snap, snapshot_s) = stage("bench.ingest.stage.snapshot", || {
        let _s = trace::span("serve.service.snapshot");
        svc.snapshot()
    });
    out.check(
        "ingest.tier_built_and_snapshot_written",
        built && matches!(snap, Ok(Some(_))),
        format!("build_ann: {built}, snapshot: {snap:?}"),
    );
    let ((), tail_s) = stage("bench.ingest.stage.tail", || {
        insert_range(&svc, &vecs, CORPUS..CORPUS + TAIL, &mut rep, out);
    });
    let before = svc.store().canonical_bytes();
    if traced {
        let _root = trace::span("bench.ingest.probe");
        let ids = (0..CORPUS as u64).step_by(VERIFY_STRIDE / 4);
        probe_writes(&svc, ids, &ctx.work_dir);
    }
    drop(svc);

    let ((svc, warnings), restart_s) = stage("bench.ingest.stage.restart", || {
        let opened = open(Arc::clone(&model));
        let _s = trace::span("serve.service.query");
        opened.0.query(&inp.queries[0], K);
        opened
    });
    out.check(
        "ingest.restart_recovers_store",
        warnings.is_empty() && svc.store().canonical_bytes() == before,
        format!("{} warnings; canonical bytes compared", warnings.len()),
    );
    if traced {
        let _root = trace::span("bench.ingest.probe");
        restart_breakdown(&dir, model.repr_dim());
    }

    let recall_root = trace::span("bench.ingest.recall");
    let mut recall = Vec::new();
    let mut same = true;
    for q in inp.queries {
        let v = model.encode(q);
        let (ann, _) = {
            let _s = trace::span("serve.store.knn");
            svc.store().knn_ann_explained(&v, K)
        };
        let exact = {
            let _s = trace::span("serve.store.exact_knn");
            svc.store().knn(&v, K)
        };
        same &= bits(&ann) == bits(&svc.query(q, K));
        recall.push(overlap(&ann, &exact));
    }
    drop(recall_root);
    out.check(
        "ingest.query_matches_store_knn_ann",
        same,
        format!("{} queries after restart", inp.queries.len()),
    );
    rep.recall = crate::stats::mean(&recall);
    rep.ann = svc.store().ann_state();
    rep.build_s = build_s;
    rep.snapshot_s = snapshot_s;
    rep.restart_s = restart_s;
    rep.pipeline_s = encode_s + insert_s + build_s + snapshot_s + tail_s + restart_s;
    rep
}

/// `insert_vec` of `vecs[range]` under their indices as ids, each timed.
fn insert_range(
    svc: &SimilarityService,
    vecs: &[Vec<f32>],
    range: std::ops::Range<usize>,
    rep: &mut Rep,
    out: &mut Outcome,
) {
    for i in range {
        let t = Instant::now();
        let res = {
            let _s = trace::span("serve.service.insert_vec");
            svc.insert_vec(i as u64, vecs[i].clone())
        };
        out.attempted += 1;
        match res {
            Ok(_) => rep.insert_ms.push(secs(t) * 1e3),
            Err(_) => out.failed += 1,
        }
    }
}
