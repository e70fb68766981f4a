//! One benchmark for the whole grandma stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload recognize|interactive|bulk|durable --seed N \
//!     --seconds S --trace 0|1 [--io-threads N] [--shards N]
//! ```
//!
//! `--trace 0` measures the workload and prints its end-to-end metrics;
//! `--trace 1` runs it again untraced and traced, peels the layers on
//! the same captured inputs and prints the per-layer metrics. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every output
//! check passed. See `perfbench/README.md` for the workloads, the
//! metrics and the layer map.

mod inputs;
mod layers;
mod load;
mod measure;
mod recognize;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_serve::{
    FsyncPolicy, PipelineConfig, ServeConfig, SessionRouter, TcpOptions, TcpService, WalConfig,
};

use inputs::Inputs;
use load::{LoadResult, Mode, Plan};
use measure::{Drive, Summary};

#[global_allocator]
static GLOBAL: measure::CountingAllocator = measure::CountingAllocator;

/// The default workload seed. Seed 9001 is held out: later claims are
/// re-checked on it (see README.md).
const DEFAULT_SEED: u64 = 1;

/// Set-ups timed before the run, and again after it; `setup_s` is the
/// median of all of them.
const SETUP_REPS: usize = 8;
/// Untimed lead-in of every measured phase.
const WARMUP: Duration = Duration::from_millis(1000);
/// Per-session pipeline settings for every workload and the reference.
fn pipeline_config() -> PipelineConfig {
    PipelineConfig::default()
}

/// Interactive: 200 mice at 100 Hz on a 100 µs tick (two events due per
/// tick) = 20k events/s.
const INTERACTIVE: Mode = Mode::Open {
    mice: 200,
    period: 100,
    tick: Duration::from_micros(100),
};
/// Bulk and durable: 32 sessions in flight, 32 events per frame. A window
/// this deep keeps the shard worker busy, so the loop measures capacity.
const BULK: Mode = Mode::Closed {
    window: 32,
    batch: 32,
};
/// Shard queue capacity (the service default).
const QUEUE_CAPACITY: usize = 1024;
/// Below this share of correctly classified uncorrupted interactions the
/// recognizer counts as broken and the run fails.
const ACCURACY_FLOOR: f64 = 0.85;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Recognize,
    Interactive,
    Bulk,
    Durable,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "recognize" => Some(Self::Recognize),
            "interactive" => Some(Self::Interactive),
            "bulk" => Some(Self::Bulk),
            "durable" => Some(Self::Durable),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Recognize => "recognize",
            Self::Interactive => "interactive",
            Self::Bulk => "bulk",
            Self::Durable => "durable",
        }
    }

    fn mode(self) -> Option<Mode> {
        match self {
            Self::Recognize => None,
            Self::Interactive => Some(INTERACTIVE),
            Self::Bulk | Self::Durable => Some(BULK),
        }
    }

    /// Every `n`-th seq is timed: all of them at the interactive rate,
    /// one in eight at bulk rates, where per-event stamps would load the
    /// generator.
    fn sample_every(self) -> u32 {
        match self {
            Self::Interactive => 1,
            _ => 8,
        }
    }

    /// Events per client frame.
    fn batch(self) -> usize {
        match self.mode() {
            Some(Mode::Closed { batch, .. }) => batch,
            _ => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    io_threads: usize,
    shards: usize,
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        workload: Workload::Recognize,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        io_threads: 1,
        shards: 1.max(nproc / 2),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--io-threads" => args.io_threads = number()?.max(1) as usize,
            "--shards" => args.shards = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A running service and what it took to start it.
struct Service {
    tcp: TcpService,
    router: Arc<SessionRouter>,
    wal_dir: Option<PathBuf>,
}

impl Drop for Service {
    fn drop(&mut self) {
        self.tcp.shutdown();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Directory for the WAL and span files, under the working directory.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn start_service(
    rec: Arc<EagerRecognizer>,
    args: &Args,
    wal_dir: Option<PathBuf>,
) -> std::io::Result<Service> {
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let config = ServeConfig {
        shards: args.shards,
        queue_capacity: QUEUE_CAPACITY,
        pipeline: pipeline_config(),
        wal: wal_dir
            .clone()
            .map(|dir| WalConfig::new(dir, FsyncPolicy::Sync)),
        ..ServeConfig::default()
    };
    let router = SessionRouter::new(rec, config);
    let options = TcpOptions {
        io_threads: args.io_threads,
        ..TcpOptions::default()
    };
    let tcp = TcpService::start_with(router.clone(), "127.0.0.1:0", options)?;
    Ok(Service {
        tcp,
        router,
        wal_dir,
    })
}

fn train(inputs: &Inputs) -> Result<Arc<EagerRecognizer>, String> {
    EagerRecognizer::train(
        &inputs.training,
        &FeatureMask::all(),
        &EagerConfig::default(),
    )
    .map(|(rec, _)| Arc::new(rec))
    .map_err(|e| format!("training failed: {e:?}"))
}

/// Set-up times of one run, in seconds.
#[derive(Default)]
struct SetupTimes {
    /// Recognizer training alone.
    train: Vec<f64>,
    /// Training plus service (and WAL) start.
    total: Vec<f64>,
}

/// Trains the recognizer and starts the workload's service, timing both.
fn set_up(
    args: &Args,
    inputs: &Inputs,
    times: &mut SetupTimes,
) -> Result<(Arc<EagerRecognizer>, Option<Service>), String> {
    let wal_dir = (args.workload == Workload::Durable)
        .then(|| scratch_dir().join(format!("wal-{}", std::process::id())));
    let start = Instant::now();
    let rec = train(inputs)?;
    times.train.push(start.elapsed().as_secs_f64());
    let service = match args.workload.mode() {
        Some(_) => Some(
            start_service(rec.clone(), args, wal_dir)
                .map_err(|e| format!("service start failed: {e}"))?,
        ),
        None => None,
    };
    times.total.push(start.elapsed().as_secs_f64());
    Ok((rec, service))
}

/// One measured phase of the workload, untraced or traced.
struct Phase {
    summary: Summary,
    attempted: u64,
    failed: u64,
    late_ns: Vec<f64>,
    frames_sent: u64,
    spans: Vec<trace::Span>,
    problems: Vec<String>,
}

fn run_phase(
    args: &Args,
    rec: &Arc<EagerRecognizer>,
    service: Option<&Service>,
    inputs: &Arc<Inputs>,
    measure: Duration,
    traced: bool,
    session_base: u64,
) -> Result<Phase, String> {
    match (args.workload.mode(), service) {
        (Some(mode), Some(service)) => {
            let plan = Plan {
                mode,
                warmup: WARMUP,
                measure,
                session_base,
                sample_every: args.workload.sample_every(),
                trace: traced,
            };
            let r: LoadResult = load::run(service.tcp.local_addr(), inputs, &plan)
                .map_err(|e| format!("load run failed: {e}"))?;
            Ok(Phase {
                summary: Summary::of(
                    &r.chunks,
                    match mode {
                        Mode::Open { .. } => Drive::Open,
                        Mode::Closed { .. } => Drive::Closed,
                    },
                ),
                attempted: r.attempted,
                failed: r.failed,
                late_ns: r.late_ns,
                frames_sent: r.frames_sent,
                spans: r.spans,
                problems: r.problems,
            })
        }
        _ => {
            let r = recognize::run(rec, inputs, &pipeline_config(), WARMUP, measure, traced);
            Ok(Phase {
                summary: Summary::of(&r.chunks, Drive::InProcess),
                attempted: r.attempted,
                failed: r.failed,
                late_ns: Vec::new(),
                frames_sent: 0,
                spans: r.spans,
                problems: Vec::new(),
            })
        }
    }
}

/// `name -> (value, unit)` in insertion order.
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn new() -> Self {
        Self(Vec::new())
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() -> ExitCode {
    measure::set_uncounted(true);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// What a measured run produced, before set-up times are known.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Runs the benchmark and prints its result; `Ok(false)` when an output
/// check failed.
fn run(args: &Args) -> Result<bool, String> {
    let host_before = measure::host_ref_ns();
    let mut inputs = Inputs::generate(args.seed);
    let mut times = SetupTimes::default();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // Each set-up replaces the last; teardown is not timed.
        drop(ready.take());
        ready = Some(set_up(args, &inputs, &mut times)?);
    }
    let (rec, service) = ready.ok_or("no set-up ran")?;
    inputs.attach_reference(&rec, &pipeline_config());
    let (accuracy, eager_points_frac) = inputs.quality();
    let inputs = Arc::new(inputs);

    let mut out = if args.trace {
        traced_run(args, &rec, service.as_ref(), &inputs)?
    } else {
        untraced_run(args, &rec, service.as_ref(), &inputs)?
    };
    let backend = service
        .as_ref()
        .map_or("none", |s| s.router.metrics().snapshot().reactor_backend);
    drop(service);
    // As many set-ups again after the measurement, so that `setup_s`
    // samples the host at both ends of the run.
    for _ in 0..SETUP_REPS {
        drop(set_up(args, &inputs, &mut times)?);
    }
    let setup_s = measure::median(times.total);
    let train_s = measure::median(times.train);
    let host_ref_ns = (host_before + measure::host_ref_ns()) / 2.0;
    let (attempted, failed) = (out.attempted, out.failed);
    let m = &mut out.metrics;
    if args.trace {
        m.put("core.train_s", train_s, "s");
        m.put("host.ref_ns", host_ref_ns, "ns");
    } else {
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", measure::peak_rss_mb(), "MiB");
        m.put(
            "completed_frac",
            (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            "ratio",
        );
        m.put("accuracy", accuracy, "ratio");
        m.put("eager_points_frac", eager_points_frac, "ratio");
    }

    let mut problems = out.problems;
    if accuracy < ACCURACY_FLOOR {
        problems.push(format!(
            "accuracy {accuracy:.3} is below the floor {ACCURACY_FLOOR}"
        ));
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} sessions failed"));
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty();
    print_context(args, host_ref_ns, backend);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        out.metrics.to_json()
    );
    Ok(correct)
}

/// The end-to-end run: the workload, measured untraced.
fn untraced_run(
    args: &Args,
    rec: &Arc<EagerRecognizer>,
    service: Option<&Service>,
    inputs: &Arc<Inputs>,
) -> Result<Outcome, String> {
    let measure = Duration::from_secs(args.seconds);
    let phase = run_phase(args, rec, service, inputs, measure, false, 1 << 32)?;
    let s = &phase.summary;
    let mut metrics = Metrics::new();
    metrics.put("points_per_s", s.points_per_s, "points/s");
    metrics.put("feedback_p50_us", s.feedback_p50_us, "us");
    metrics.put("feedback_p90_us", s.feedback_p90_us, "us");
    metrics.put("recognized_p50_us", s.recognized_p50_us, "us");
    metrics.put("cpu_ns_per_point", s.cpu_ns_per_point, "ns");
    Ok(Outcome {
        metrics,
        attempted: phase.attempted,
        failed: phase.failed,
        problems: phase.problems,
    })
}

/// The per-layer run: the workload untraced and traced for half the time
/// each, then the layers peeled on the captured inputs.
fn traced_run(
    args: &Args,
    rec: &Arc<EagerRecognizer>,
    service: Option<&Service>,
    inputs: &Arc<Inputs>,
) -> Result<Outcome, String> {
    let half = Duration::from_secs(args.seconds) / 2;
    let untraced = run_phase(args, rec, service, inputs, half, false, 1 << 32)?;
    let counters = service.map(|s| layers::Counters::take(&s.router));
    let traced = run_phase(args, rec, service, inputs, half, true, 2 << 32)?;
    let counters = counters
        .map(|c| c.delta(traced.frames_sent))
        .unwrap_or_default();
    // The peel needs a service even when the workload has none.
    let own = match service {
        Some(_) => None,
        None => Some(
            start_service(rec.clone(), args, None)
                .map_err(|e| format!("service start failed: {e}"))?,
        ),
    };
    let target = service.or(own.as_ref()).ok_or("no service to peel")?;
    let peel = layers::peel(layers::PeelInput {
        rec,
        inputs,
        pipeline: &pipeline_config(),
        batch: args.workload.batch(),
        router: &target.router,
        addr: target.tcp.local_addr(),
        wal_dir: &scratch_dir().join(format!("walbench-{}", std::process::id())),
    })?;
    drop(own);
    let mut spans = traced.spans.clone();
    spans.extend(peel.spans.iter().copied());
    let span_path = scratch_dir().join(format!("spans-{}.tsv", args.workload.name()));
    trace::write_spans(&span_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    let mut metrics = Metrics::new();
    layers::report(
        &mut metrics,
        &layers::Report {
            untraced: &untraced.summary,
            traced: &traced.summary,
            traced_late_ns: &traced.late_ns,
            counters: &counters,
            peel: &peel,
            uses_transport: args.workload.mode().is_some(),
        },
    );
    let mut problems = untraced.problems;
    problems.extend(traced.problems);
    problems.extend(peel.problems.iter().cloned());
    Ok(Outcome {
        metrics,
        attempted: untraced.attempted + traced.attempted + peel.attempted,
        failed: untraced.failed + traced.failed + peel.failed,
        problems,
    })
}

/// Prints the run context as one JSON line ahead of the result.
fn print_context(args: &Args, host_ref_ns: f64, backend: &str) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = args.workload.mode();
    let (rate, tick_ms, window) = match mode {
        Some(m @ Mode::Open { tick, .. }) => (m.offered_rate(), tick.as_secs_f64() * 1e3, 0),
        Some(Mode::Closed { window, .. }) => (0.0, 0.0, window),
        None => (0.0, 0.0, 0),
    };
    let transport = mode.is_some();
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"poll_backend\": \"{backend}\", \"io_threads\": {}, \"shards\": {}, \
         \"queue_capacity\": {QUEUE_CAPACITY}, \"offered_events_per_s\": {rate}, \"tick_ms\": {tick_ms}, \
         \"window\": {window}, \"events_per_frame\": {}, \"loadgen_threads\": {}, \
         \"loadgen_connections\": {}, \"host_ref_ns\": {host_ref_ns:.3}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.io_threads,
        args.shards,
        args.workload.batch(),
        if transport { 2 } else { 1 },
        u8::from(transport),
    );
}
