//! Layer probes: timed calls into each layer's public functions on the
//! workload's own model, batch size, parameter count, test set and data
//! source. They run after the timed rounds, so they never perturb them.
//!
//! Where a workload has no instance of a layer (no convolution in the LSTM,
//! no LSTM gates in the CNN), the probe runs at the reference shape of the
//! paper model that has one, and the report says so: on that workload the
//! layer is a bypass and predicts no end-to-end change.

use crate::report::Metric;
use crate::stats::{median, summarize};
use crate::workloads::{Workload, REGISTRY_COMPRESSION};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::compress::{decode_upload_into, ef_compress_update, CompressedVec};
use rfl_core::eval::{evaluate, to_input};
use rfl_core::{ClientRegistry, LocalRule, ModelFactory, StreamingAggregator};
use rfl_nn::{cross_entropy_into, CnnConfig, LstmConfig, ModelOutput};
use rfl_tensor::{conv2d_backward_into, conv2d_into, Conv2dGrads, ConvSpec, Initializer, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Wall time each probe spends at least, and the fewest calls it makes.
const PROBE_SECONDS: f64 = 0.15;
const PROBE_MIN_CALLS: usize = 5;

/// Times `f` until both [`PROBE_MIN_CALLS`] calls and [`PROBE_SECONDS`]
/// have passed; returns seconds per call.
fn time_calls(mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < PROBE_MIN_CALLS || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn scaled(v: &[f64], k: f64) -> Vec<f64> {
    v.iter().map(|x| x * k).collect()
}

fn timed(name: &'static str, unit: &'static str, secs: &[f64], k: f64, note: &str) -> Metric {
    let what = if note.is_empty() {
        "calls".to_string()
    } else {
        format!("calls; {note}")
    };
    Metric::summary(name, unit, summarize(&scaled(secs, k)), &what)
}

/// Runs every probe of `w` on `seed`'s inputs.
pub fn run(w: Workload, seed: u64) -> Vec<Metric> {
    let inputs = w.inputs(seed);
    let source = inputs.source();
    let cfg = w.config(seed);
    let model = w.model();
    let mut out = Vec::new();

    // registry: materialize (first wake builds, later wakes restore the
    // persist) and hibernate, on the workload's own data source.
    let init = model.build(seed);
    let mut global = Vec::new();
    init.read_params(&mut global);
    let registry = ClientRegistry::new(
        Arc::clone(&source),
        model,
        w.optimizer(),
        &cfg,
        seed,
        global.clone(),
    );
    let ids: Vec<usize> = (0..64)
        .map(|i| i * source.num_clients() / 64)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let (mut wake, mut sleep) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while wake.len() < PROBE_MIN_CALLS || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        for &k in &ids {
            let t = Instant::now();
            let c = registry.materialize(k);
            wake.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            registry.hibernate(c);
            sleep.push(t.elapsed().as_secs_f64());
        }
    }
    out.push(timed("registry.materialize_us", "us", &wake, 1e6, ""));
    out.push(timed("registry.hibernate_us", "us", &sleep, 1e6, ""));

    // data: regenerate (or clone) one client shard.
    let mut next = 0usize;
    let shard = time_calls(|| {
        black_box(source.dataset(ids[next % ids.len()]));
        next += 1;
    });
    out.push(timed("data.shard_gen_us", "us", &shard, 1e6, ""));

    // client: one local step under the plain and the MMD rule, and the δ
    // probe, on a client built exactly as the federation builds it.
    let mut client = registry.materialize(ids[0]);
    let mut other = registry.materialize(*ids.last().expect("ids"));
    let target = Arc::new(other.compute_delta(cfg.probe_batch()));
    let mmd = LocalRule::Mmd {
        lambda: w.lambda(),
        target,
    };
    let (mut plain_t, mut mmd_t) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain_t.len() < PROBE_MIN_CALLS || start.elapsed().as_secs_f64() < 2.0 * PROBE_SECONDS {
        let t = Instant::now();
        black_box(client.train_local(1, &LocalRule::Plain));
        plain_t.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(client.train_local(1, &mmd));
        mmd_t.push(t.elapsed().as_secs_f64());
    }
    let regularized = w.lambda() > 0.0;
    out.push(timed(
        "client.train_step_ms",
        "ms",
        if regularized { &mmd_t } else { &plain_t },
        1e3,
        if regularized {
            "MMD rule, as the workload trains"
        } else {
            "plain rule, as the workload trains"
        },
    ));
    out.push(Metric::exact(
        "client.mmd_overhead_frac",
        "fraction",
        median(&mmd_t) / median(&plain_t) - 1.0,
        &format!(
            "MMD-rule step ÷ plain step − 1 over {} alternating pairs",
            plain_t.len()
        ),
    ));
    let delta = time_calls(|| {
        black_box(client.compute_delta(cfg.probe_batch()));
    });
    out.push(timed(
        "client.compute_delta_ms",
        "ms",
        &delta,
        1e3,
        &format!("probe batch {}", cfg.probe_batch()),
    ));

    // nn: forward, backward and optimizer step of one training batch.
    let data = source.dataset(ids[0]);
    let b = cfg.batch_size.min(data.len());
    let batch = data.select(&(0..b).collect::<Vec<_>>());
    let input = to_input(batch.examples());
    let mut net = model.build(seed);
    let mut opt = w.optimizer().build();
    let (mut log_p, mut dlogits) = (Tensor::scratch(), Tensor::scratch());
    let mut output = ModelOutput::scratch();
    let (mut flat, mut grads) = (Vec::new(), Vec::new());
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while fwd.len() < PROBE_MIN_CALLS || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        // Every call starts from the initial parameters: unclipped steps
        // repeated on one batch would drift the weights into slow
        // subnormal or non-finite arithmetic.
        net.write_params(&global);
        net.zero_grads();
        let t = Instant::now();
        net.forward_into(&input, &mut output, true);
        fwd.push(t.elapsed().as_secs_f64());
        cross_entropy_into(&output.logits, batch.labels(), &mut log_p, &mut dlogits);
        let t = Instant::now();
        net.backward(&dlogits, None);
        bwd.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        net.read_params(&mut flat);
        net.read_grads(&mut grads);
        opt.step(&mut flat, &grads);
        net.write_params(&flat);
        step.push(t.elapsed().as_secs_f64());
    }
    let note = format!("batch {b}");
    out.push(timed("nn.forward_ms", "ms", &fwd, 1e3, &note));
    out.push(timed("nn.backward_ms", "ms", &bwd, 1e3, &note));
    out.push(timed("nn.optim_ms", "ms", &step, 1e3, &note));

    out.extend(tensor_probes(model, cfg.batch_size));

    // eval: the global-model evaluation on the workload's test set.
    let mut eval_net = model.build(seed);
    eval_net.write_params(&global);
    let ev = time_calls(|| {
        black_box(evaluate(eval_net.as_mut(), inputs.test(), 64));
    });
    out.push(timed(
        "eval.evaluate_ms",
        "ms",
        &ev,
        1e3,
        &format!("{} test examples", inputs.test().len()),
    ));

    // aggregate + compress at the workload's parameter count d.
    let d = global.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let update = Initializer::Normal(0.01).init(&[d], &mut rng);
    let params: Vec<f32> = global
        .iter()
        .zip(update.data())
        .map(|(g, u)| g + u)
        .collect();
    let slots = 64usize;
    let weights = vec![1.0f32; slots];
    let selected: Vec<usize> = (0..slots).collect();
    let mut agg = StreamingAggregator::default();
    let mut push = Vec::new();
    let start = Instant::now();
    while push.len() < PROBE_MIN_CALLS || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        agg.reset_for_selection(d, &weights, &selected);
        for slot in 0..slots {
            let t = Instant::now();
            agg.push(slot, &params);
            push.push(t.elapsed().as_secs_f64());
        }
        black_box(agg.finish());
    }
    out.push(timed(
        "aggregate.push_us",
        "us",
        &push,
        1e6,
        &format!("d = {d}"),
    ));

    let (mut residual, mut upd, mut recon) = (Vec::new(), Vec::new(), Vec::new());
    let mut payload = CompressedVec::default();
    let mut decoded = Vec::new();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while enc.len() < PROBE_MIN_CALLS || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let t = Instant::now();
        ef_compress_update(
            REGISTRY_COMPRESSION,
            &params,
            &global,
            &mut residual,
            &mut upd,
            &mut recon,
            &mut payload,
        );
        enc.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(decode_upload_into(
            REGISTRY_COMPRESSION,
            &payload,
            &global,
            &mut decoded,
        ));
        dec.push(t.elapsed().as_secs_f64());
    }
    let note = format!("2-bit quantization with error feedback, d = {d}");
    out.push(timed("compress.encode_us", "us", &enc, 1e6, &note));
    out.push(timed("compress.decode_us", "us", &dec, 1e6, &note));
    // A dense upload frame carries a 4-byte length and d f32 values.
    out.push(Metric::exact(
        "compress.ratio",
        "ratio",
        (4 + 4 * d) as f64 / payload.wire_bytes() as f64,
        &format!(
            "dense {} bytes ÷ compressed {} bytes",
            4 + 4 * d,
            payload.wire_bytes()
        ),
    ));
    out
}

/// Convolution at the CNN's two conv shapes and GEMM at the LSTM's gate
/// shapes; reference paper models stand in where the workload has none.
fn tensor_probes(model: ModelFactory, batch: usize) -> Vec<Metric> {
    let (cnn, cnn_note, cnn_batch) = match model {
        ModelFactory::Cnn(c) => (c, String::new(), batch),
        _ => (
            CnnConfig::cifar_like(),
            "reference CIFAR-like CNN, batch 16 (no conv here)".to_string(),
            16,
        ),
    };
    let (lstm, lstm_note, lstm_batch) = match model {
        ModelFactory::Lstm(c) => (c, String::new(), batch),
        _ => (
            LstmConfig::sent140_like(),
            "reference Sent140-like LSTM, batch 20 (no LSTM here)".to_string(),
            20,
        ),
    };
    let mut rng = StdRng::seed_from_u64(11);
    let mut normal = |dims: &[usize]| Initializer::Normal(1.0).init(dims, &mut rng);
    let spec = ConvSpec {
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let s = cnn.image_size;
    let layers = [
        (
            normal(&[cnn_batch, cnn.in_channels, s, s]),
            normal(&[cnn.conv1_channels, cnn.in_channels, 3, 3]),
            normal(&[cnn.conv1_channels]),
        ),
        (
            normal(&[cnn_batch, cnn.conv1_channels, s / 2, s / 2]),
            normal(&[cnn.conv2_channels, cnn.conv1_channels, 3, 3]),
            normal(&[cnn.conv2_channels]),
        ),
    ];
    let mut outs = [Tensor::scratch(), Tensor::scratch()];
    let fwd = time_calls(|| {
        for ((x, wt, b), o) in layers.iter().zip(outs.iter_mut()) {
            conv2d_into(x, wt, b, spec, o);
        }
    });
    let mut grads = [Conv2dGrads::scratch(), Conv2dGrads::scratch()];
    let mut scratch = Vec::new();
    let bwd = time_calls(|| {
        for (((x, wt, _), o), g) in layers.iter().zip(&outs).zip(grads.iter_mut()) {
            conv2d_backward_into(x, wt, o, spec, g, &mut scratch);
        }
    });

    // One timestep of both LSTM layers' gate products.
    let h4 = 4 * lstm.hidden;
    let gemms = [
        (
            normal(&[lstm_batch, lstm.embed_dim]),
            normal(&[lstm.embed_dim, h4]),
        ),
        (
            normal(&[lstm_batch, lstm.hidden]),
            normal(&[lstm.hidden, h4]),
        ),
        (
            normal(&[lstm_batch, lstm.hidden]),
            normal(&[lstm.hidden, h4]),
        ),
        (
            normal(&[lstm_batch, lstm.hidden]),
            normal(&[lstm.hidden, h4]),
        ),
    ];
    let flops: usize = gemms
        .iter()
        .map(|(a, b)| 2 * a.dims()[0] * a.dims()[1] * b.dims()[1])
        .sum();
    let mut gout = Tensor::scratch();
    let gemm = time_calls(|| {
        for _ in 0..64 {
            for (a, b) in &gemms {
                a.matmul_into(b, &mut gout);
                black_box(&gout);
            }
        }
    });
    let gflops: Vec<f64> = gemm.iter().map(|t| 64.0 * flops as f64 / t / 1e9).collect();
    let simd = format!("simd {}", rfl_tensor::simd_backend());
    let join = |note: &str| {
        if note.is_empty() {
            simd.clone()
        } else {
            format!("{note}; {simd}")
        }
    };
    vec![
        timed("tensor.conv_fwd_ms", "ms", &fwd, 1e3, &join(&cnn_note)),
        timed("tensor.conv_bwd_ms", "ms", &bwd, 1e3, &join(&cnn_note)),
        Metric::summary(
            "tensor.gemm_gflops",
            "GFLOP/s",
            summarize(&gflops),
            &format!("calls of 64 gate steps; {}", join(&lstm_note)),
        ),
    ]
}
