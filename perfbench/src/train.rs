//! The `train` workload: the paper's model (`T2VecConfig::paper_default`,
//! hidden 256, 3 bidirectional layers, L3 with 500 noise cells, batch
//! 64, 16 variants per trip) on a porto-like corpus, for a fixed step
//! budget.
//!
//! Untraced, it calls `Trainer::new` (set-up) and `Trainer::step_epoch`
//! on several trainers built from one seed. Traced, it rebuilds the same
//! set-up from the layers' public calls and drives one epoch through
//! `make_batches` → `compute_group_grads` → `reduce_grad_sets` →
//! `apply_grad_mats` in `run_epoch`'s order and RNG stream, then checks
//! the result against `run_epoch` itself.

use crate::report::Outcome;
use crate::stats::{median, secs, timed};
use crate::{fixture, trace, Ctx};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use t2vec_core::model::generate_pairs;
use t2vec_core::{T2VecConfig, Trainer};
use t2vec_nn::batch::{make_batches, Batch};
use t2vec_nn::param::{apply_grad_mats, reduce_grad_sets};
use t2vec_nn::skipgram::{pretrain_cells, SkipGramConfig};
use t2vec_nn::train::{compute_group_grads, run_epoch, EpochHp};
use t2vec_nn::{LossKind, Seq2Seq, Seq2SeqConfig};
use t2vec_spatial::grid::Grid;
use t2vec_spatial::point::{BBox, Point};
use t2vec_spatial::transform::{distort, downsample};
use t2vec_spatial::vocab::{NeighborTable, Token, Vocab};
use t2vec_tensor::opt::Adam;
use t2vec_tensor::{Matrix, Tape};
use t2vec_trajgen::Trajectory;

/// Training trips (16 pairs each) and validation trips.
const TRIPS: usize = 3000;
const VAL_TRIPS: usize = 64;
/// Trainers built and stepped per untraced run: all but the last from
/// distinct seeds, the last from the first one's.
const TRAINERS: usize = 4;
/// `Trainer::new` calls per untraced run (the first `TRAINERS` are then
/// stepped); `setup_s` is their median.
const SETUPS: usize = 8;

type Pairs = Vec<(Vec<Token>, Vec<Token>)>;

/// Optimiser steps per epoch: a fixed budget derived from the run length
/// (about 2.4 s a step on a 2-core x86-64 host).
fn step_budget(seconds: f64) -> usize {
    ((seconds / (2.4 * TRAINERS as f64)).round() as usize).max(1)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let trips = fixture::porto_trips(ctx.seed, TRIPS + VAL_TRIPS);
    let (train, val) = trips.split_at(TRIPS);
    let mut config = T2VecConfig::paper_default();
    config.max_iterations = step_budget(ctx.seconds);
    let setup_seed = ctx.seed ^ 0x7472_6169_6e00;
    let mut out = Outcome::default();
    if ctx.trace {
        traced(&config, train, val, setup_seed, &mut out);
    } else {
        untraced(&config, train, val, setup_seed, &mut out);
    }
    out
}

fn param_bits(model: &Seq2Seq) -> Vec<u32> {
    model
        .params()
        .iter()
        .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// Peak RSS of one trainer's epoch: the set-up, then a training step on
/// the epoch's largest batch, the one that holds the most activations.
/// A budgeted epoch need not draw that batch, and further trainers in
/// the same process only add allocator retention, so the peak is read
/// here, before they run.
fn epoch_peak_rss_mb(
    config: &T2VecConfig,
    train: &[Trajectory],
    val: &[Trajectory],
    seed: u64,
) -> f64 {
    let Setup {
        table,
        model,
        pairs,
        mut rng,
        ..
    } = setup(config, train, val, seed);
    let batches = make_batches(&pairs, config.batch_size, &mut rng);
    let largest = batches
        .iter()
        .max_by_key(|b| b.batch_size * (b.src.len() + b.dec_inputs.len()))
        .expect("the corpus yields batches");
    let seeds = [rng.random::<u64>()];
    compute_group_grads(
        &model,
        std::slice::from_ref(largest),
        config.loss,
        &table,
        &seeds,
    );
    crate::stats::peak_rss_mb()
}

fn untraced(
    config: &T2VecConfig,
    train: &[Trajectory],
    val: &[Trajectory],
    seed: u64,
    out: &mut Outcome,
) {
    out.e2e
        .set("peak_rss_mb", epoch_peak_rss_mb(config, train, val, seed));
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    // Wall ms per 1 000 target tokens, per epoch: a step's own time
    // swings with its batch's size and padding.
    let mut ms_per_ktoken = Vec::new();
    let mut tokens = 0usize;
    let mut finals: Vec<(u32, Vec<u32>)> = Vec::new();
    for i in 0..SETUPS {
        // Distinct set-up seeds draw distinct batches; the last stepped
        // trainer repeats the first one's seed for the determinism check.
        let trainer_seed = seed ^ ((i % (TRAINERS - 1)) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (trainer, setup_s) = timed(|| Trainer::new(config, train, val, trainer_seed));
        let mut trainer = match trainer {
            Ok(t) => t,
            Err(e) => {
                out.check("train.setup", false, e.to_string());
                return;
            }
        };
        setups.push(setup_s);
        if i >= TRAINERS {
            continue;
        }
        let (stats, wall) = timed(|| trainer.step_epoch());
        let Some(stats) = stats else {
            out.check("train.step_epoch", false, "no epoch ran");
            return;
        };
        let th = trainer.throughput()[0];
        println!(
            "epoch {i}: set-up seed {trainer_seed}, {} steps, {} target tokens, {wall:.3} s, val_loss {}, peak rss {:.1} MB",
            th.steps,
            th.tokens,
            stats.val_loss,
            crate::stats::peak_rss_mb()
        );
        tokens += th.tokens;
        out.attempted += th.steps as u64;
        walls.push(wall);
        ms_per_ktoken.push(wall * 1e6 / th.tokens.max(1) as f64);
        finals.push((stats.val_loss.to_bits(), param_bits(trainer.model())));
    }
    let val_loss = f32::from_bits(finals[0].0);
    out.check(
        "train.val_loss_finite",
        finals.iter().all(|f| f32::from_bits(f.0).is_finite()),
        format!("val_loss = {val_loss}"),
    );
    out.check(
        "train.same_seed_bit_identical",
        finals.first() == finals.last(),
        "two trainers from one seed: val_loss bits and parameters after the epoch",
    );
    let tokens_per_s = tokens as f64 / walls.iter().sum::<f64>();
    out.e2e.set("setup_s", median(&setups));
    out.e2e.set("throughput_per_s", tokens_per_s);
    out.e2e.set("latency_p50_ms", median(&ms_per_ktoken));
    out.layer.set("train_tokens_per_s", tokens_per_s);
    out.layer.set("val_loss", f64::from(val_loss));
}

/// Everything `Trainer::new` derives from its seed, rebuilt from the
/// layers' public calls in the same order and RNG stream.
struct Setup {
    table: NeighborTable,
    model: Seq2Seq,
    pairs: Pairs,
    val_pairs: Pairs,
    rng: StdRng,
}

fn setup(config: &T2VecConfig, train: &[Trajectory], val: &[Trajectory], seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Point> = train
        .iter()
        .flat_map(|t| t.points.iter().copied())
        .collect();
    let vocab = {
        let _s = trace::span("spatial.vocab.build");
        let bbox = BBox::of_points(&points).expect("non-empty corpus");
        let grid = Grid::new(bbox.expanded(4.0 * config.cell_side), config.cell_side);
        Vocab::build(grid, points.iter(), config.hot_cell_threshold)
    };
    let k = config.k_nearest.min(vocab.num_hot_cells());
    let table = {
        let _s = trace::span("spatial.vocab.neighbor_table");
        NeighborTable::build(&vocab, k, config.theta)
    };
    let seq_config = Seq2SeqConfig {
        vocab: vocab.size(),
        embed_dim: config.embed_dim,
        hidden: config.hidden,
        layers: config.layers,
        bidirectional: config.bidirectional,
    };
    let model = if config.pretrain_cells {
        let sg = SkipGramConfig {
            dim: config.embed_dim,
            k,
            theta: config.theta,
            ..config.skipgram
        };
        let pretrained = {
            let _s = trace::span("nn.skipgram.pretrain_cells");
            pretrain_cells(&vocab, &sg, &mut rng)
        };
        let _s = trace::span("nn.seq2seq.init");
        Seq2Seq::with_pretrained_embedding(seq_config, pretrained, &mut rng)
    } else {
        let _s = trace::span("nn.seq2seq.init");
        Seq2Seq::new(seq_config, &mut rng)
    };
    let pairs = {
        let _s = trace::span("core.model.generate_pairs");
        generate_pairs(config, train, &vocab, &mut rng)
    };
    // `Trainer::new`'s validation pairs: one variant per trip at the
    // highest rates.
    let val_pairs = {
        let _s = trace::span("core.model.generate_val_pairs");
        let r1 = config.dropping_rates.iter().copied().fold(0.0f64, f64::max);
        let r2 = config
            .distorting_rates
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        val.iter()
            .filter(|t| t.points.len() >= 2)
            .map(|t| {
                let variant = distort(&downsample(&t.points, r1, &mut rng), r2, &mut rng);
                (vocab.tokenize(&variant), vocab.tokenize(&t.points))
            })
            .collect()
    };
    Setup {
        table,
        model,
        pairs,
        val_pairs,
        rng,
    }
}

/// FLOPs and operand bytes of one batch's forward pass, computed from
/// the tensor shapes: the GRU gate GEMMs of every encoder and decoder
/// step (input and recurrent halves), plus the output scores (sampled
/// candidates for L3, the full vocabulary otherwise). Element-wise
/// gate arithmetic is left out.
fn batch_forward_cost(cfg: &Seq2SeqConfig, loss: LossKind, k: usize, b: &Batch) -> (f64, f64) {
    // (inner, output columns, repetitions) of each `rows`-row GEMM.
    let mut gemms: Vec<(usize, usize, usize)> = Vec::new();
    let mut stack = |input: usize, hidden: usize, steps: usize| {
        for l in 0..cfg.layers {
            let inp = if l == 0 { input } else { hidden };
            gemms.push((inp, 3 * hidden, steps));
            gemms.push((hidden, 3 * hidden, steps));
        }
    };
    for _ in 0..if cfg.bidirectional { 2 } else { 1 } {
        stack(cfg.embed_dim, cfg.dir_hidden(), b.src.len());
    }
    stack(cfg.embed_dim, cfg.hidden, b.dec_inputs.len());
    let h = cfg.hidden as f64;
    let (mut flops, mut bytes) = match loss {
        LossKind::SpatialNce { noise } => {
            let scores = b.num_target_tokens as f64 * (k + noise) as f64 * h;
            (2.0 * scores, 4.0 * scores)
        }
        LossKind::Nll | LossKind::Spatial => {
            gemms.push((cfg.hidden, cfg.vocab, b.dec_inputs.len()));
            (0.0, 0.0)
        }
    };
    let m = b.batch_size as f64;
    for (kk, n, times) in gemms {
        let (kk, n, times) = (kk as f64, n as f64, times as f64);
        flops += 2.0 * m * kk * n * times;
        bytes += 4.0 * (m * kk + kk * n + m * n) * times;
    }
    (flops, bytes)
}

/// Measured rate of `Matrix::matmul` at the decoder's gate shape
/// (batch 64 × hidden 256 times 256 × 3·256), the step's largest GEMM:
/// the best of five 0.2 s windows, in GFLOP/s.
fn gemm_peak_gflops(cfg: &Seq2SeqConfig, rows: usize) -> f64 {
    let (k, n) = (cfg.hidden, 3 * cfg.hidden);
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + salt) % 13) as f32 / 13.0 - 0.5)
            .collect()
    };
    let a = Matrix::from_vec(rows, k, fill(rows * k, 1));
    let b = Matrix::from_vec(k, n, fill(k * n, 5));
    let flop = 2.0 * (rows * k * n) as f64;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut calls = 0u32;
        while secs(t0) < 0.2 {
            let _s = trace::span("tensor.matmul");
            black_box(black_box(&a).matmul(black_box(&b)));
            calls += 1;
        }
        best = best.max(f64::from(calls) * flop / secs(t0) / 1e9);
    }
    best
}

fn traced(
    config: &T2VecConfig,
    train: &[Trajectory],
    val: &[Trajectory],
    seed: u64,
    out: &mut Outcome,
) {
    let reference = Trainer::new(config, train, val, seed).expect("trainer set-up");
    let budget = config.max_iterations;
    trace::enable();
    let setup_root = trace::span("bench.train.setup");
    let Setup {
        table,
        mut model,
        pairs,
        val_pairs,
        mut rng,
    } = setup(config, train, val, seed);
    drop(setup_root);
    out.check(
        "train.setup_replica_matches_trainer",
        param_bits(&model) == param_bits(reference.model()),
        "set-up rebuilt from public calls equals Trainer::new's model",
    );
    drop(reference);

    let hp = EpochHp {
        loss: config.loss,
        adam: Adam::with_lr(config.learning_rate),
        grad_clip: config.grad_clip,
        batch_size: config.batch_size,
        grad_accum: config.grad_accum,
    };
    let mut ref_model = model.clone();
    let mut ref_rng = rng.clone();
    let k = table.k();
    // One untraced warm-up step, so neither epoch below pays first-use costs.
    run_epoch(&mut model.clone(), &pairs, &table, &hp, 1, &mut rng.clone());

    // The traced epoch, in run_epoch's order and RNG stream.
    let epoch_root = trace::span("bench.train.epoch");
    let t_train = Instant::now();
    let accum = hp.grad_accum.max(1);
    let batches = {
        let _s = trace::span("nn.batch.make_batches");
        make_batches(&pairs, hp.batch_size, &mut rng)
    };
    let (mut steps, mut tokens, mut fwd_flops, mut fwd_bytes) = (0usize, 0usize, 0.0, 0.0);
    for group in batches.chunks(accum) {
        if steps >= budget {
            break;
        }
        let seeds: Vec<u64> = group.iter().map(|_| rng.random()).collect();
        let sets = {
            let _s = trace::span("nn.train.group_grads");
            compute_group_grads(&model, group, hp.loss, &table, &seeds)
        };
        for b in group {
            let (f, by) = batch_forward_cost(model.config(), hp.loss, k, b);
            fwd_flops += f;
            fwd_bytes += by;
        }
        tokens += sets.iter().map(|s| s.target_tokens).sum::<usize>();
        let mut reduced = {
            let _s = trace::span("nn.param.reduce_grad_sets");
            reduce_grad_sets(&sets)
        };
        {
            let _s = trace::span("nn.param.apply_grad_mats");
            let mut params = model.params_mut();
            apply_grad_mats(&mut params, &mut reduced.grads, &hp.adam, hp.grad_clip);
        }
        steps += 1;
        out.attempted += 1;
    }
    let traced_train_s = secs(t_train);
    // Validation as Trainer::step_epoch runs it: tape-built loss per batch.
    let val_batches = {
        let _s = trace::span("nn.batch.make_val_batches");
        make_batches(&val_pairs, config.batch_size, &mut rng)
    };
    let (mut val_total, mut val_tokens) = (0.0f64, 0usize);
    for batch in &val_batches {
        let _s = trace::span("nn.seq2seq.val_loss");
        let tape = Tape::new();
        let bound = model.bind(&tape);
        let loss = bound.loss(&tape, batch, config.loss, &table, &mut rng);
        val_total += f64::from(loss.value().item()) * batch.num_target_tokens as f64;
        val_tokens += batch.num_target_tokens;
    }
    let val_loss = val_total / val_tokens.max(1) as f64;
    drop(epoch_root);
    let epoch_wall_s = secs(t_train);

    let probe_root = trace::span("bench.train.gemm_probe");
    let peak = gemm_peak_gflops(model.config(), config.batch_size);
    drop(probe_root);
    let spans = trace::take();

    // The reference: run_epoch itself on the same inputs, untraced.
    let (ref_out, ref_s) =
        timed(|| run_epoch(&mut ref_model, &pairs, &table, &hp, budget, &mut ref_rng));
    out.check(
        "train.traced_epoch_matches_run_epoch",
        ref_out.steps == steps && param_bits(&ref_model) == param_bits(&model),
        format!("{steps} steps; parameters compared bit for bit"),
    );
    out.check(
        "train.val_loss_finite",
        val_loss.is_finite(),
        format!("val_loss = {val_loss}"),
    );

    // The GEMM probe is a diagnostic, not part of the workload's wall time.
    let sum = trace::summarize(&spans, |root| root != "bench.train.gemm_probe");
    let l = &mut out.layer;
    crate::set_trace_metrics(l, &sum, traced_train_s / ref_s - 1.0);
    l.set("train_tokens_per_s", tokens as f64 / epoch_wall_s);
    l.set("val_loss", val_loss);
    l.set(
        "spatial.vocab_build_s",
        sum.total_s("spatial.vocab.build") + sum.total_s("spatial.vocab.neighbor_table"),
    );
    l.set(
        "nn.skipgram.pretrain_s",
        sum.total_s("nn.skipgram.pretrain_cells"),
    );
    l.set(
        "core.model.generate_pairs_s",
        sum.total_s("core.model.generate_pairs"),
    );
    l.set(
        "nn.batch.make_batches_ms",
        sum.total_s("nn.batch.make_batches") * 1e3,
    );
    let group_ms = sum.ms("nn.train.group_grads");
    l.set_p50_p99("nn.train.group_grads_ms", &group_ms);
    l.set_p50_p99("nn.param.reduce_ms", &sum.ms("nn.param.reduce_grad_sets"));
    l.set_p50_p99("nn.param.adam_ms", &sum.ms("nn.param.apply_grad_mats"));
    l.set_p50_p99("nn.seq2seq.val_loss_ms", &sum.ms("nn.seq2seq.val_loss"));
    l.set("nn.train.target_tokens", tokens as f64);
    l.set("nn.train.steps", steps as f64);
    // Roofline: forward + backward ≈ 3 × the forward GEMM work.
    let step_flops = 3.0 * fwd_flops / steps.max(1) as f64;
    let step_bytes = 3.0 * fwd_bytes / steps.max(1) as f64;
    let achieved = 3.0 * fwd_flops / (group_ms.iter().sum::<f64>() * 1e-3) / 1e9;
    l.set("nn.train.step_gflop", step_flops / 1e9);
    l.set("nn.train.step_mbytes", step_bytes / 1e6);
    l.set("nn.train.flop_per_byte", step_flops / step_bytes);
    l.set("nn.train.achieved_gflops", achieved);
    l.set("tensor.matmul.peak_gflops", peak);
    l.set("nn.train.peak_headroom", peak / achieved);
    l.set("fail_frac", 0.0);
    crate::write_trace(&spans);
}
