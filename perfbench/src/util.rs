//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, process memory readings and the span recorder.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// splitmix64: the benchmark's only source of input randomness, so a
/// seed pins every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// CPU seconds consumed so far by every thread of this process, exited
/// ones included (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The simulation workloads time their single-threaded jobs with this
/// rather than the wall clock: on the shared two-core reference host,
/// time spent waiting for a CPU held by other tenants moved wall-clock
/// rates by 5-13 % between runs, and a process's own CPU time does not
/// include that wait. On an idle host the two agree.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this runs on) for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median host microseconds of `f` over `reps` calls per item, under
/// one span named `name`.
pub fn per_call_us<T>(
    items: &[T],
    reps: usize,
    tr: &Tracer,
    name: &str,
    mut f: impl FnMut(&T),
) -> f64 {
    let mut us = Vec::with_capacity(items.len() * reps);
    tr.span(name, 0, |_| {
        for item in items {
            for _ in 0..reps {
                let t0 = Instant::now();
                f(item);
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    });
    median(&us)
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// One `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in MB.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One recorded span: a named interval and the span that caused it.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per call; enabled, spans are kept until [`Tracer::write`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent` (0 = root);
    /// `f` receives the new span's id for its own children.
    pub fn span<R>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        // The span is pushed (and its id, its index + 1, taken) before
        // `f` runs, so children recorded inside it get later ids.
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            let id = spans.len() as u64 + 1;
            let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
            spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_us,
                end_us: f64::NAN,
            });
            id
        };
        let r = f(id);
        let end = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.lock().expect("span log poisoned")[id as usize - 1].end_us = end;
        r
    }

    /// Records an already-measured interval (client threads time their
    /// requests themselves and hand the spans over here).
    pub fn record(&self, name: &str, parent: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span log poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::with_capacity(96 * spans.len());
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
