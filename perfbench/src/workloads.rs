//! The four workloads: how each one's inputs are generated from the seed,
//! how its federation is built (the timed set-up), and how one episode of a
//! fixed round count is run and checked.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_bench::args::Scale;
use rfl_bench::setup::{cifar_scenario, device_config, sent140_scenario, silo_config, Scenario};
use rfl_core::algorithms::{FedAvg, RFedAvg, RFedAvgPlus};
use rfl_core::canonical;
use rfl_core::comm::{
    run_client_loop, ClientConn, ClientLoopOpts, ClientOutcome, CommStats, ControlMsg, Endpoint,
    FaultStats, SocketTransport,
};
use rfl_core::compress::Compression;
use rfl_core::{
    Algorithm, ClientDataSource, Federation, FlConfig, ModelFactory, OptimizerFactory, RoundRecord,
    Trainer,
};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::{Dataset, FederatedData};
use rfl_tensor::Tensor;
use rfl_trace::{SpanRecord, Tracer};
#[cfg(test)]
use std::collections::hash_map::DefaultHasher;
#[cfg(test)]
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (one load-generator thread each) on the remote plane.
/// The host the benchmark targets has two cores; the load side never uses
/// more threads or connections than that.
pub const LOAD_CONNECTIONS: usize = 2;

/// Registered clients of the lazy plane.
const REGISTRY_CLIENTS: usize = 100_000;
/// Examples in every regenerated registry shard.
const REGISTRY_SHARD: usize = 32;
/// Feature dimension and classes of the registry's logistic model
/// (d = 32·4 + 4 = 132).
const REGISTRY_DIM: usize = 32;
const REGISTRY_CLASSES: usize = 4;
/// 2-bit uniform quantization with error feedback on every registry upload.
pub const REGISTRY_COMPRESSION: Compression = Compression::Quantize { bits: 2 };

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CnnDevice,
    LstmSilo,
    Registry100k,
    RemoteTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CnnDevice,
        Workload::LstmSilo,
        Workload::Registry100k,
        Workload::RemoteTcp,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnDevice => "cnn-device",
            Workload::LstmSilo => "lstm-silo",
            Workload::Registry100k => "registry-100k",
            Workload::RemoteTcp => "remote-tcp",
        }
    }

    /// Rounds of one episode: fixed, so losses, accuracies and peak memory
    /// compare across runs.
    pub fn rounds(self) -> usize {
        match self {
            Workload::CnnDevice => 30,
            Workload::LstmSilo => 30,
            Workload::Registry100k => 40,
            Workload::RemoteTcp => 60,
        }
    }

    /// Fewest episodes in a run, whatever `--seconds` says: enough round
    /// samples for the tail percentile the report fixes per workload.
    pub fn min_episodes(self) -> usize {
        match self {
            Workload::CnnDevice => 2,
            Workload::LstmSilo => 2,
            Workload::Registry100k => 3,
            Workload::RemoteTcp => 3,
        }
    }

    /// Test accuracy `tta_s` waits for. The registry and remote planes
    /// evaluate once, after their last round.
    pub fn target_acc(self) -> f32 {
        match self {
            Workload::CnnDevice => 0.60,
            Workload::LstmSilo => 0.80,
            Workload::Registry100k => 0.50,
            Workload::RemoteTcp => 0.30,
        }
    }

    /// Evals averaged into each point of the accuracy curve `tta_s`
    /// reads: one eval of a small test set swings by several points from
    /// round to round.
    pub fn acc_window(self) -> usize {
        match self {
            Workload::CnnDevice | Workload::LstmSilo => 3,
            Workload::Registry100k | Workload::RemoteTcp => 1,
        }
    }

    /// Largest share of round wall time the phase spans may leave
    /// uncovered. The lazy plane materializes prefetch misses (all of round
    /// 0's clients) before its broadcast span opens, so no span covers them.
    pub fn stated_residual(self) -> f64 {
        match self {
            Workload::Registry100k => 0.10,
            _ => 0.05,
        }
    }

    /// Rounds between evaluations.
    pub fn eval_every(self) -> usize {
        match self {
            Workload::CnnDevice | Workload::LstmSilo => 1,
            Workload::Registry100k | Workload::RemoteTcp => self.rounds(),
        }
    }

    fn scenario(self) -> Option<Scenario> {
        match self {
            Workload::CnnDevice => Some(cifar_scenario(Scale::Quick, false, 0.0)),
            Workload::LstmSilo => Some(sent140_scenario(Scale::Quick, true, false)),
            Workload::Registry100k | Workload::RemoteTcp => None,
        }
    }

    /// The run configuration of one episode.
    pub fn config(self, seed: u64) -> FlConfig {
        let mut cfg = match self {
            Workload::CnnDevice => device_config(Scale::Quick, seed),
            Workload::LstmSilo => silo_config(Scale::Quick, seed),
            Workload::Registry100k => FlConfig {
                rounds: 0,
                local_steps: 1,
                batch_size: 8,
                sample_ratio: 0.01,
                eval_every: 0,
                parallel: true,
                clip_grad_norm: None,
                seed,
                delta_probe_batch: None,
                compression: REGISTRY_COMPRESSION,
            },
            Workload::RemoteTcp => canonical::config(seed, 0),
        };
        cfg.rounds = self.rounds();
        cfg.eval_every = self.eval_every();
        cfg
    }

    pub fn model(self) -> ModelFactory {
        match self.scenario() {
            Some(sc) => sc.model,
            None if self == Workload::Registry100k => {
                ModelFactory::logistic(REGISTRY_DIM, REGISTRY_CLASSES, 0.0)
            }
            None => canonical::model(),
        }
    }

    pub fn optimizer(self) -> OptimizerFactory {
        match self.scenario() {
            Some(sc) => sc.optimizer,
            None if self == Workload::Registry100k => OptimizerFactory::sgd(0.05),
            None => canonical::optimizer(),
        }
    }

    /// The regularization weight λ (0 for FedAvg).
    pub fn lambda(self) -> f32 {
        match self {
            Workload::CnnDevice | Workload::LstmSilo => self.scenario().expect("scenario").lambda,
            Workload::Registry100k => 0.0,
            Workload::RemoteTcp => canonical::LAMBDA,
        }
    }

    pub fn make_algorithm(self) -> Box<dyn Algorithm> {
        match self {
            Workload::CnnDevice | Workload::RemoteTcp => Box::new(RFedAvgPlus::new(self.lambda())),
            Workload::LstmSilo => Box::new(RFedAvg::new(self.lambda())),
            Workload::Registry100k => Box::new(FedAvg::new()),
        }
    }

    /// Generates the workload's inputs from `seed`; the program under test
    /// sees nothing else.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::CnnDevice | Workload::LstmSilo => {
                Inputs::Federated(self.scenario().expect("scenario").build_data(seed))
            }
            Workload::RemoteTcp => Inputs::Federated(canonical::data_for(seed, LOAD_CONNECTIONS)),
            Workload::Registry100k => {
                let spec = registry_spec();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x07E5_75E7);
                let test = spec.generate(512, None, &mut rng);
                Inputs::Lazy {
                    source: Arc::new(GaussianSource::new(spec, REGISTRY_CLIENTS, seed)),
                    test,
                }
            }
        }
    }
}

fn registry_spec() -> GaussianMixtureSpec {
    GaussianMixtureSpec {
        dim: REGISTRY_DIM,
        classes: REGISTRY_CLASSES,
        sep: 2.0,
        noise: 1.0,
        mean_seed: 45,
    }
}

/// A registry-scale data source: client `k`'s shard is a deterministic
/// function of `(seed, k)`, regenerated on every wake, so unsampled clients
/// cost no memory.
pub struct GaussianSource {
    spec: GaussianMixtureSpec,
    means: Tensor,
    n: usize,
    seed: u64,
}

impl GaussianSource {
    fn new(spec: GaussianMixtureSpec, n: usize, seed: u64) -> Self {
        GaussianSource {
            means: spec.means(),
            spec,
            n,
            seed,
        }
    }
}

impl ClientDataSource for GaussianSource {
    fn num_clients(&self) -> usize {
        self.n
    }

    fn num_samples(&self, _k: usize) -> usize {
        REGISTRY_SHARD
    }

    fn dataset(&self, k: usize) -> Dataset {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let shift = self.spec.random_shift(1.0, &mut rng);
        self.spec
            .generate_with_means(&self.means, REGISTRY_SHARD, Some(&shift), &mut rng)
    }
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Materialized client shards plus the test set.
    Federated(FederatedData),
    /// A lazily regenerated client population plus the test set.
    Lazy {
        source: Arc<GaussianSource>,
        test: Dataset,
    },
}

impl Inputs {
    /// A data source over the inputs, for the registry probes.
    pub fn source(&self) -> Arc<dyn ClientDataSource> {
        match self {
            Inputs::Federated(data) => Arc::new(rfl_core::MaterializedSource::from_federated(data)),
            Inputs::Lazy { source, .. } => source.clone(),
        }
    }

    pub fn test(&self) -> &Dataset {
        match self {
            Inputs::Federated(data) => &data.test,
            Inputs::Lazy { test, .. } => test,
        }
    }

    /// Hash of every input value the program receives (a sample of the
    /// registry's shards), for the determinism self-test.
    #[cfg(test)]
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        match self {
            Inputs::Federated(data) => {
                for d in &data.clients {
                    hash_dataset(d, &mut h);
                }
                hash_dataset(&data.test, &mut h);
            }
            Inputs::Lazy { source, test } => {
                for k in [0, 1, 7, source.num_clients() - 1] {
                    hash_dataset(&source.dataset(k), &mut h);
                }
                hash_dataset(test, &mut h);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
fn hash_dataset(d: &Dataset, h: &mut DefaultHasher) {
    d.labels().hash(h);
    use rfl_data::Examples;
    match d.examples() {
        Examples::Images(t) | Examples::Dense(t) => {
            t.data().iter().for_each(|v| v.to_bits().hash(h));
        }
        Examples::Tokens(seqs) => seqs.hash(h),
    }
}

/// The remote plane's load generator: one thread per client connection,
/// each running the library's client loop until the server shuts it down.
pub struct LoadGen {
    threads: Vec<JoinHandle<ClientOutcome>>,
}

impl LoadGen {
    /// Starts `LOAD_CONNECTIONS` client threads against `endpoint`.
    fn start(endpoint: &Endpoint, seed: u64) -> LoadGen {
        let threads = (0..LOAD_CONNECTIONS)
            .map(|k| {
                let ep = endpoint.clone();
                std::thread::spawn(move || remote_client(ep, k, seed))
            })
            .collect();
        LoadGen { threads }
    }

    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Joins every client thread; `true` when all ended on the server's
    /// shutdown.
    fn join(self) -> bool {
        self.threads.into_iter().all(|t| {
            matches!(
                t.join().expect("load-generator thread panicked"),
                ClientOutcome::Shutdown
            )
        })
    }
}

fn remote_client(endpoint: Endpoint, k: usize, seed: u64) -> ClientOutcome {
    let mut conn = ClientConn::connect_with_backoff(&endpoint, 40, Duration::from_millis(10))
        .expect("load generator connects");
    let ControlMsg::Welcome {
        rounds,
        lambda,
        compression,
        ..
    } = conn.hello(k as u32, seed).expect("handshake")
    else {
        panic!("server answered the handshake with something else than a welcome");
    };
    let cfg = canonical::config(seed, rounds as usize);
    let data = canonical::data_for(seed, LOAD_CONNECTIONS);
    let mut client = canonical::client(k, &data, &cfg, seed);
    let opts = ClientLoopOpts {
        compression,
        ..ClientLoopOpts::default()
    };
    run_client_loop(&mut conn, &mut client, lambda, &opts)
}

fn welcome(w: Workload, cfg: &FlConfig) -> ControlMsg {
    ControlMsg::Welcome {
        num_clients: LOAD_CONNECTIONS as u32,
        rounds: cfg.rounds as u32,
        local_steps: cfg.local_steps as u32,
        batch_size: cfg.batch_size as u32,
        probe_batch: cfg.probe_batch() as u32,
        lambda: w.lambda(),
        lr: canonical::LR,
        clip_grad_norm: cfg.clip_grad_norm.unwrap_or(f32::NAN),
        seed: cfg.seed,
        compression: cfg.compression,
    }
}

/// A built federation, ready to run one episode.
pub struct Prepared {
    pub fed: Federation,
    algo: Box<dyn Algorithm>,
    cfg: FlConfig,
    load: Option<LoadGen>,
    /// Wall time of input generation inside the set-up.
    pub data_build_s: f64,
}

impl Prepared {
    /// Threads the load side runs (0 for in-process planes).
    pub fn load_threads(&self) -> usize {
        self.load.as_ref().map_or(0, LoadGen::threads)
    }
}

/// The timed set-up: input generation plus federation build; on the remote
/// plane also bind, connect and both handshakes.
pub fn setup(w: Workload, seed: u64) -> Prepared {
    let cfg = w.config(seed);
    let t0 = Instant::now();
    let inputs = w.inputs(seed);
    let data_build_s = t0.elapsed().as_secs_f64();
    let (fed, load) = match (w, inputs) {
        (Workload::RemoteTcp, Inputs::Federated(data)) => {
            let mut transport =
                SocketTransport::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &welcome(w, &cfg))
                    .expect("bind loopback server");
            transport.set_recv_timeout(Duration::from_secs(60));
            let load = LoadGen::start(transport.local_endpoint(), seed);
            transport
                .wait_for_clients(Duration::from_secs(30))
                .expect("load generator registers");
            let fed = Federation::remote(&data, w.model(), &cfg, seed, Box::new(transport));
            (fed, Some(load))
        }
        (_, Inputs::Federated(data)) => (
            Federation::new(&data, w.model(), w.optimizer(), &cfg, seed),
            None,
        ),
        (_, Inputs::Lazy { source, test }) => (
            Federation::lazy(source, test, w.model(), w.optimizer(), &cfg, seed),
            None,
        ),
    };
    Prepared {
        fed,
        algo: w.make_algorithm(),
        cfg,
        load,
        data_build_s,
    }
}

/// Times one set-up and tears it down again.
pub fn setup_only(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut p = setup(w, seed);
    let secs = t0.elapsed().as_secs_f64();
    p.fed.shutdown_remote();
    if let Some(load) = p.load.take() {
        assert!(load.join(), "load generator did not shut down cleanly");
    }
    secs
}

/// What one episode measured and produced.
pub struct Episode {
    /// The seed the episode's inputs were drawn from.
    pub seed: u64,
    pub setup_s: f64,
    pub data_build_s: f64,
    /// `Trainer::run` wall time: every round, its eval, and the final
    /// quiesce.
    pub run_s: f64,
    /// Per-round wall time including the round's eval, in milliseconds.
    pub round_ms: Vec<f64>,
    pub final_acc: f64,
    /// Test accuracy after each evaluated round, as `(round, accuracy)`.
    pub acc_curve: Vec<(usize, f32)>,
    pub losses: Vec<f32>,
    pub global: Vec<f32>,
    pub comm: CommStats,
    pub faults: FaultStats,
    pub attempted: u64,
    pub delivered: u64,
    pub peak_rss_bytes: u64,
    pub persisted: usize,
    pub threads_budget: usize,
    pub load_threads: usize,
    /// The clean shutdown of every load-generator thread (true off the
    /// remote plane).
    pub load_clean: bool,
    /// Span journal of a traced episode (empty when untraced).
    pub spans: Vec<SpanRecord>,
}

/// Sets up and runs one episode of `w` on `seed`'s inputs.
pub fn episode(w: Workload, seed: u64, traced: bool) -> Episode {
    rfl_core::mem::reset_peak_rss();
    let t0 = Instant::now();
    let mut p = setup(w, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let tracer = if traced {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    p.fed.set_tracer(tracer.clone());
    let load_threads = p.load_threads();

    let log: Arc<Mutex<Vec<(Instant, RoundRecord)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(p.cfg.rounds)));
    let sink = Arc::clone(&log);
    let mut trainer = Trainer::new(p.cfg).with_observer(move |r| {
        let now = Instant::now();
        sink.lock()
            .expect("round log poisoned")
            .push((now, r.clone()));
    });
    if p.fed.is_lazy() {
        trainer = trainer.pipelined();
    }
    let comm0 = p.fed.comm_snapshot();
    let faults0 = p.fed.fault_stats();
    let start = Instant::now();
    trainer.run(p.algo.as_mut(), &mut p.fed);
    let run_s = start.elapsed().as_secs_f64();
    let comm = p.fed.comm_stats().since(&comm0);
    let faults = p.fed.fault_stats().since(&faults0);
    let peak_rss_bytes = rfl_core::mem::peak_rss_bytes();
    let persisted = p.fed.num_persisted();
    let global = p.fed.global().to_vec();
    p.fed.shutdown_remote();
    let load_clean = p.load.take().is_none_or(LoadGen::join);

    let log = std::mem::take(&mut *log.lock().expect("round log poisoned"));
    let mut prev = start;
    let mut round_ms = Vec::with_capacity(log.len());
    for (at, _) in &log {
        round_ms.push(at.duration_since(prev).as_secs_f64() * 1e3);
        prev = *at;
    }
    let records: Vec<&RoundRecord> = log.iter().map(|(_, r)| r).collect();
    Episode {
        seed,
        setup_s,
        data_build_s: p.data_build_s,
        run_s,
        round_ms,
        final_acc: records
            .iter()
            .rev()
            .find_map(|r| r.test_acc)
            .map_or(0.0, f64::from),
        acc_curve: records
            .iter()
            .filter_map(|r| r.test_acc.map(|a| (r.round, a)))
            .collect(),
        losses: records.iter().map(|r| r.train_loss).collect(),
        global,
        comm,
        faults,
        attempted: records.iter().map(|r| r.participants as u64).sum(),
        delivered: records.iter().map(|r| r.delivered as u64).sum(),
        peak_rss_bytes,
        persisted,
        threads_budget: rfl_tensor::thread_budget(),
        load_threads,
        load_clean,
        spans: tracer.records(),
    }
}

/// Time to accuracy: the first crossing of `target` by `curve` (test
/// accuracy after each evaluated round, smoothed over `window` evals),
/// interpolated linearly between evals, timed by the cumulative median
/// wall time over `walls` of the rounds up to that point. Returns
/// `(seconds, rounds)`, or `None` when the curve never reaches the target.
pub fn time_to_accuracy(
    window: usize,
    target: f32,
    curve: &[(usize, f32)],
    walls: &[&[f64]],
) -> Option<(f64, f64)> {
    let window = window.max(1);
    let smooth: Vec<(f64, f64)> = (window - 1..curve.len())
        .map(|i| {
            let acc = curve[i + 1 - window..=i]
                .iter()
                .map(|&(_, a)| f64::from(a))
                .sum::<f64>();
            ((curve[i].0 + 1) as f64, acc / window as f64)
        })
        .collect();
    let target = f64::from(target);
    let at = smooth.iter().position(|&(_, acc)| acc >= target)?;
    let rounds = match at {
        0 => smooth[0].0,
        _ => {
            let ((r0, a0), (r1, a1)) = (smooth[at - 1], smooth[at]);
            r0 + (r1 - r0) * (target - a0) / (a1 - a0)
        }
    };
    let wall: Vec<f64> = (0..walls.first()?.len())
        .map(|j| crate::stats::median(&walls.iter().map(|w| w[j]).collect::<Vec<_>>()))
        .collect();
    let whole = rounds.floor() as usize;
    let secs = wall[..whole].iter().sum::<f64>()
        + wall.get(whole).map_or(0.0, |w| w * (rounds - whole as f64));
    Some((secs / 1e3, rounds))
}

/// The untimed in-process oracle of the remote plane: the same rounds on
/// the same data over the default `PerfectTransport`. Returns the per-round
/// losses and the final global parameters.
pub fn remote_oracle(seed: u64) -> (Vec<f32>, Vec<f32>) {
    let w = Workload::RemoteTcp;
    let cfg = w.config(seed);
    let data = canonical::data_for(seed, LOAD_CONNECTIONS);
    let mut fed = Federation::new(&data, w.model(), w.optimizer(), &cfg, seed);
    let h = Trainer::new(cfg).run(w.make_algorithm().as_mut(), &mut fed);
    (
        h.records().iter().map(|r| r.train_loss).collect(),
        fed.global().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_in_the_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = w.inputs(3).fingerprint();
            assert_eq!(a, w.inputs(3).fingerprint(), "{}", w.name());
            assert_ne!(a, w.inputs(4).fingerprint(), "{}", w.name());
        }
    }

    #[test]
    fn time_to_accuracy_interpolates_between_evals() {
        // 10 ms rounds then 20 ms rounds; the median over two episodes.
        let fast = [10.0, 10.0, 20.0, 20.0];
        let slow = [12.0, 10.0, 30.0, 20.0];
        let walls: [&[f64]; 3] = [&fast, &slow, &fast];
        let curve = [(0, 0.2), (1, 0.4), (2, 0.6), (3, 0.8)];
        // Window 1 crosses 0.5 halfway through round 3, after
        // 10 + 10 + 0.5·20 ms.
        let (secs, rounds) = time_to_accuracy(1, 0.5, &curve, &walls).unwrap();
        assert!((rounds - 2.5).abs() < 1e-6, "{rounds}");
        assert!((secs - 0.030).abs() < 1e-6, "{secs}");
        // Window 2 smooths to 0.3 (after round 2), 0.5, 0.7: reached exactly
        // at round 3, after 40 ms.
        let (secs, rounds) = time_to_accuracy(2, 0.5, &curve, &walls).unwrap();
        assert!((rounds - 3.0).abs() < 1e-6, "{rounds}");
        assert!((secs - 0.040).abs() < 1e-6, "{secs}");
        // Accuracies are f32, so the interpolation is exact to f32 precision.
        // Reached at the first smoothed point: no interpolation.
        assert_eq!(time_to_accuracy(1, 0.1, &curve, &walls).unwrap().1, 1.0);
        assert_eq!(time_to_accuracy(1, 0.95, &curve, &walls), None);
        // A single eval after the last round: the time of every round.
        let once = [(3, 0.9)];
        assert_eq!(time_to_accuracy(1, 0.5, &once, &walls), Some((0.06, 4.0)));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn load_side_stays_within_the_core_count() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut p = setup(Workload::RemoteTcp, 5);
        // One connection per load thread, all registered with the server.
        assert_eq!(p.load_threads(), LOAD_CONNECTIONS);
        assert!(
            p.load_threads() <= nproc,
            "{} load threads on {nproc} cores",
            p.load_threads()
        );
        p.fed.shutdown_remote();
        assert!(p.load.take().expect("remote plane has a load side").join());
        for w in [
            Workload::CnnDevice,
            Workload::LstmSilo,
            Workload::Registry100k,
        ] {
            assert_eq!(setup(w, 5).load_threads(), 0, "{}", w.name());
        }
    }
}
