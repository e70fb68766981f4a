//! Measurement helpers: percentiles, per-chunk series, process CPU time,
//! `/proc` readings, the host reference loop and the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts `values` and returns its `p` percentile.
pub fn percentile_of(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

/// Median of an unsorted list.
pub fn median(values: Vec<f64>) -> f64 {
    percentile_of(values, 0.5)
}

/// Length of one measurement chunk. A run is cut into chunks and every
/// timing metric is computed per group of chunks first (see [`steady`]).
pub const CHUNK: Duration = Duration::from_millis(20);
/// Latency samples a chunk keeps; beyond it the chunk keeps every other
/// one, so memory stays flat however fast the host runs.
const SAMPLE_CAP: usize = 512;

/// Which way a metric improves, so [`steady`] knows which tail of the
/// group series is the contended one.
#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// How a workload drives the program, which decides how its chunk
/// series is read.
#[derive(Clone, Copy, PartialEq)]
pub enum Drive {
    /// One thread calling the program; it never waits.
    InProcess,
    /// A closed loop over a transport.
    Closed,
    /// An open loop over a transport, at a fixed offered rate.
    Open,
}

/// The run-level value of a per-group series.
///
/// On a shared host the same code runs up to 2x slower while other
/// tenants load the cores, in spells of 0.1 s to tens of seconds. The
/// share of a run spent in those spells varies from run to run, so an
/// in-process run's median wanders with it. The fully contended speed
/// is a floor that nearly every run touches and that repeats, so the
/// in-process reading is the decile on the slow side (p90 for
/// lower-is-better, p10 for higher-is-better).
///
/// Over a transport, wall time also holds the waits for thread wake-ups,
/// and spells of slow wake-ups fill the slow tail with stalls that come
/// and go between runs. There the median of the groups repeats best.
fn steady(groups: &[f64], better: Better, drive: Drive) -> f64 {
    let p = match (drive, better) {
        (Drive::InProcess, Better::Lower) => 0.9,
        (Drive::InProcess, Better::Higher) => 0.1,
        _ => 0.5,
    };
    percentile_of(groups.to_vec(), p)
}

/// A uniformly thinned sample of latencies, at most [`SAMPLE_CAP`] long.
pub struct Samples {
    pub values: Vec<f64>,
    stride: u32,
    seen: u32,
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.stride) {
            return;
        }
        self.values.push(value);
        if self.values.len() >= SAMPLE_CAP {
            let kept = self.values.iter().step_by(2).copied().collect();
            self.values = kept;
            self.stride *= 2;
        }
    }
}

/// One chunk of a workload run.
#[derive(Default)]
pub struct Chunk {
    /// Wall time the chunk covered, in seconds.
    pub wall_s: f64,
    /// Process CPU time spent in it (all threads), in nanoseconds.
    pub cpu_ns: f64,
    /// Sessions completed in it.
    pub sessions: u64,
    /// Mouse points of those sessions.
    pub points: u64,
    /// Feedback latencies completed in it, in nanoseconds.
    pub feedback_ns: Samples,
    /// Eager-commit (`Recognized`) latencies completed in it.
    pub recognized_ns: Samples,
}

/// Merges consecutive chunks into groups holding at least `min` of
/// `count`, and maps each group to `value`. A trailing group short of
/// `min` is dropped.
fn grouped(
    chunks: &[Chunk],
    min: u64,
    count: impl Fn(&Chunk) -> u64,
    value: impl Fn(&[Chunk]) -> f64,
) -> Vec<f64> {
    let mut out = Vec::new();
    let (mut from, mut have) = (0, 0);
    for (i, c) in chunks.iter().enumerate() {
        have += count(c);
        if have >= min {
            out.push(value(&chunks[from..=i]));
            from = i + 1;
            have = 0;
        }
    }
    out
}

fn pooled(group: &[Chunk], field: impl Fn(&Chunk) -> &Samples, p: f64) -> f64 {
    percentile_of(
        group
            .iter()
            .flat_map(|c| field(c).values.iter().copied())
            .collect(),
        p,
    )
}

/// Sessions a throughput group must complete.
const MIN_SESSIONS: u64 = 100;
/// Feedback samples a latency group must hold.
const MIN_FEEDBACK: u64 = 400;
/// `Recognized` samples a latency group must hold.
const MIN_RECOGNIZED: u64 = 100;

/// Run-level figures derived from the chunk series.
pub struct Summary {
    pub points_per_s: f64,
    pub cpu_ns_per_point: f64,
    pub feedback_p50_us: f64,
    pub feedback_p90_us: f64,
    pub feedback_p99_us: f64,
    pub recognized_p50_us: f64,
}

impl Summary {
    /// Folds a chunk series into its steady run-level values. An open
    /// loop's throughput is set by its offered rate, so it is the plain
    /// mean over the run rather than a chunk statistic.
    pub fn of(chunks: &[Chunk], drive: Drive) -> Summary {
        let sum = |g: &[Chunk], f: fn(&Chunk) -> f64| g.iter().map(f).sum::<f64>();
        let rate = grouped(
            chunks,
            MIN_SESSIONS,
            |c| c.sessions,
            |g| sum(g, |c| c.points as f64) / sum(g, |c| c.wall_s),
        );
        let points_per_s = if drive == Drive::Open {
            sum(chunks, |c| c.points as f64) / sum(chunks, |c| c.wall_s)
        } else {
            steady(&rate, Better::Higher, drive)
        };
        let cpu = grouped(
            chunks,
            MIN_SESSIONS,
            |c| c.sessions,
            |g| sum(g, |c| c.cpu_ns) / sum(g, |c| c.points as f64).max(1.0),
        );
        let feedback = |p: f64| {
            grouped(
                chunks,
                MIN_FEEDBACK,
                |c| c.feedback_ns.values.len() as u64,
                |g| pooled(g, |c| &c.feedback_ns, p),
            )
        };
        let recognized = grouped(
            chunks,
            MIN_RECOGNIZED,
            |c| c.recognized_ns.values.len() as u64,
            |g| pooled(g, |c| &c.recognized_ns, 0.5),
        );
        Summary {
            points_per_s,
            cpu_ns_per_point: steady(&cpu, Better::Lower, drive),
            feedback_p50_us: steady(&feedback(0.5), Better::Lower, drive) / 1e3,
            feedback_p90_us: steady(&feedback(0.9), Better::Lower, drive) / 1e3,
            feedback_p99_us: pooled(chunks, |c| &c.feedback_ns, 0.99) / 1e3,
            recognized_p50_us: steady(&recognized, Better::Lower, drive) / 1e3,
        }
    }
}

/// Cuts a measured interval into [`CHUNK`]s, sampling wall and process
/// CPU time at each boundary.
pub struct Chunker {
    chunk_start: Instant,
    chunk_cpu: f64,
    current: Chunk,
    done: Vec<Chunk>,
}

impl Chunker {
    pub fn new() -> Self {
        Self {
            chunk_start: Instant::now(),
            chunk_cpu: process_cpu_ns(),
            current: Chunk::default(),
            done: Vec::new(),
        }
    }

    /// The chunk being filled.
    pub fn current(&mut self) -> &mut Chunk {
        &mut self.current
    }

    /// Closes the current chunk if it has run its length. Cheap enough to
    /// call per session or per read: one clock comparison.
    pub fn tick(&mut self, now: Instant) {
        if now.duration_since(self.chunk_start) >= CHUNK {
            let cpu = process_cpu_ns();
            let mut chunk = std::mem::take(&mut self.current);
            chunk.wall_s = now.duration_since(self.chunk_start).as_secs_f64();
            chunk.cpu_ns = cpu - self.chunk_cpu;
            self.done.push(chunk);
            self.chunk_start = now;
            self.chunk_cpu = cpu;
        }
    }

    /// Ends the interval; a trailing partial chunk is dropped so every
    /// chunk covers the same length.
    pub fn finish(self) -> Vec<Chunk> {
        self.done
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `PR_SET_TIMERSLACK` on Linux.
const PR_SET_TIMERSLACK: i32 = 29;

/// Lets the calling thread's sleeps end within a microsecond of their
/// deadline instead of the default 50 µs timer slack, so an open-loop
/// generator runs on time.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no
    // memory of ours; the unused arguments are ignored by the kernel.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process (user + system, every thread, exited
/// ones included), in nanoseconds.
pub fn process_cpu_ns() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// A `kB` field of `/proc/self/status`, in kB (0 when absent).
fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Voluntary context switches summed over every live thread.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .sum()
}

/// Host speed reference, in ns per step: the median of 21 runs of a
/// fixed geometry kernel in the benchmark's own code (square roots,
/// `atan2` and branches over a point list, the instruction mix of a
/// feature update), about 50 µs each. The program under test never runs
/// here, so this moves only with the host; unlike a dependent integer
/// chain, it slows when another tenant shares the core.
pub fn host_ref_ns() -> f64 {
    median((0..21).map(|_| host_probe_ns()).collect())
}

fn host_probe_ns() -> f64 {
    const POINTS: usize = 256;
    const REPS: usize = 8;
    let points: Vec<(f64, f64)> = (0..POINTS)
        .map(|i| {
            let s = i as f64 * 0.37;
            (s.sin() * 50.0 + s, s.cos() * 40.0)
        })
        .collect();
    let points = std::hint::black_box(points);
    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..REPS {
        let (mut px, mut py) = points[0];
        let mut prev = 0.0f64;
        for &(x, y) in &points[1..] {
            let (dx, dy) = (x - px, y - py);
            let d = (dx * dx + dy * dy).sqrt();
            if d > 1e-9 {
                let a = dy.atan2(dx);
                let turn = a - prev;
                acc += if turn.abs() > 3.0 { d } else { turn };
                prev = a;
            }
            px = x;
            py = y;
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / (REPS * (POINTS - 1)) as f64
}

/// [`System`] with an allocation counter that benchmark threads opt out
/// of, so the count is the service's (or, while a layer measurement opts
/// the main thread back in, that layer's).
pub struct CountingAllocator;

static COUNTED_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted_here() -> bool {
    // During thread-local teardown the cell may be gone: do not count.
    !UNCOUNTED.try_with(Cell::get).unwrap_or(true)
}

/// Stops (or resumes) counting allocations made by the calling thread.
pub fn set_uncounted(uncounted: bool) {
    let _ = UNCOUNTED.try_with(|c| c.set(uncounted));
}

/// Allocations counted so far.
pub fn counted_allocations() -> u64 {
    COUNTED_ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted_here() {
            COUNTED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted_here() {
            COUNTED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
