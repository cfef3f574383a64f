//! The service layers of a traced run: the workload's own jobs served
//! by a freshly spawned `scc-serve` (one worker, `--store-dir` on a
//! fresh directory), then a drain, a restart as a new process on the
//! same store and a replay; and, in-process, `scc_serve::protocol`,
//! `scc_sim::persist`, `StoreTier` and `scc_store::Store` timed on the
//! frames and results the run produced.
//!
//! The restart must be a new process: the runner's result cache is a
//! process-global static, so a restart inside one process would answer
//! from memory and measure nothing of the store.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scc_serve::protocol::{self, Proto, Request};
use scc_sim::{persist, OptLevel, Runner, SimResult, StoreTier};
use scc_store::{Store, StoreConfig};
use scc_workloads::Workload;

use crate::oracle;
use crate::util::{median, per_call_us, percentile, proc_status_mb, Rng, Tracer};
use crate::Metrics;

/// Warm hits the probe sends at least, so `serve.hit_p99_ms` has ten
/// samples beyond it.
const MIN_HITS: usize = 1000;

/// One job of the workload, with the in-process result that passed the
/// interpreter check and that the server's reply must agree with.
pub struct Served<'a> {
    pub workload: &'a Workload,
    pub level: OptLevel,
    pub result: &'a Arc<SimResult>,
}

/// A spawned `scc-serve`, killed and reaped on drop if still running.
struct Server {
    child: Option<Child>,
    sock: PathBuf,
}

impl Server {
    fn spawn(bin: &Path, dir: &Path, store: &Path, name: &str) -> Server {
        let sock = dir.join(format!("{name}.sock"));
        let log = std::fs::File::create(dir.join(format!("{name}.log"))).expect("server log file");
        let child = Command::new(bin)
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .args(["--workers", "1", "--store-dir"])
            .arg(store)
            // The benchmark process runs with one malloc arena (see
            // run.py); the server runs with glibc's default, as deployed.
            .env_remove("MALLOC_ARENA_MAX")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let mut server = Server {
            child: Some(child),
            sock,
        };
        server.wait_ready();
        server
    }

    /// Polls until the socket accepts and `health` answers `ok`.
    fn wait_ready(&mut self) {
        let t0 = Instant::now();
        loop {
            if let Ok(mut c) = Client::connect(&self.sock) {
                if c.request("{\"proto\":2,\"verb\":\"health\"}")
                    .is_ok_and(|r| r.contains("\"status\":\"ok\""))
                {
                    return;
                }
            }
            let exited = self
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            assert!(
                exited.is_none(),
                "scc-serve exited during start-up: {exited:?}"
            );
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "scc-serve not ready after 60 s"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Sends `shutdown` and waits for the drain; true on exit status 0.
    fn drain(mut self) -> bool {
        let asked = Client::connect(&self.sock)
            .and_then(|mut c| c.request("{\"proto\":2,\"verb\":\"shutdown\"}"))
            .is_ok();
        let mut child = self.child.take().expect("server running");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) if t0.elapsed() < Duration::from_secs(60) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// A line-at-a-time client: one request frame out, one reply line back.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(sock: &Path) -> std::io::Result<Client> {
        let s = UnixStream::connect(sock)?;
        s.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            writer: s.try_clone()?,
            reader: BufReader::new(s),
        })
    }

    fn request(&mut self, frame: &str) -> std::io::Result<String> {
        self.writer.write_all(frame.as_bytes())?;
        if !frame.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line)
    }

    /// One request, its reply (an error becomes a reply no check
    /// accepts) and its latency at the client in ms.
    fn timed(&mut self, frame: &str) -> (String, f64) {
        let t0 = Instant::now();
        let reply = self
            .request(frame)
            .unwrap_or_else(|e| format!("error: {e}"));
        (reply, t0.elapsed().as_secs_f64() * 1e3)
    }
}

/// The unsigned integer after `"name":` at its first occurrence.
fn field_u64(s: &str, name: &str) -> Option<u64> {
    let at = s.find(&format!("\"{name}\":"))? + name.len() + 3;
    let digits: &str = &s[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

fn field_hex(s: &str, name: &str) -> Option<u64> {
    let at = s.find(&format!("\"{name}\":\""))? + name.len() + 4;
    u64::from_str_radix(s.get(at..at + 16)?, 16).ok()
}

/// The runner's cache and store counters from the `stats` verb.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    store_hits: u64,
    bytes_written: u64,
}

fn counters(sock: &Path) -> Option<Counters> {
    let s = Client::connect(sock)
        .ok()?
        .request("{\"proto\":2,\"verb\":\"stats\"}")
        .ok()?;
    Some(Counters {
        cache_hits: field_u64(&s, "runner.cache.hits")?,
        cache_misses: field_u64(&s, "runner.cache.misses")?,
        store_hits: field_u64(&s, "runner.store.hits")?,
        bytes_written: field_u64(&s, "runner.store.bytes_written")?,
    })
}

fn delta(a: Counters, b: Counters) -> Counters {
    Counters {
        cache_hits: b.cache_hits.wrapping_sub(a.cache_hits),
        cache_misses: b.cache_misses.wrapping_sub(a.cache_misses),
        store_hits: b.store_hits.wrapping_sub(a.store_hits),
        bytes_written: b.bytes_written.wrapping_sub(a.bytes_written),
    }
}

fn run_frame(id: &str, workload: &str, iters: i64, level: OptLevel) -> String {
    format!(
        "{{\"proto\":2,\"verb\":\"run\",\"id\":\"{id}\",\"workload\":\"{workload}\",\"iters\":{iters},\"level\":\"{}\"}}\n",
        level.label()
    )
}

/// Whether a cold reply agrees with the in-process result: `ok`, the
/// same `program_uops`, an `arch_digest` equal to one recomputed
/// independently, and at `baseline` the same `cycles`. full-scc cycles
/// are left out: the EVES value predictor evicts an arbitrary entry of a
/// `HashMap` when full, so the same full-scc job can take a few cycles
/// more or less from one simulation to the next.
fn reply_agrees(reply: &str, level: OptLevel, r: &SimResult) -> bool {
    reply.starts_with("{\"ok\":true,\"proto\":2,")
        && field_u64(reply, "program_uops") == Some(r.stats.program_uops)
        && field_hex(reply, "arch_digest") == Some(oracle::arch_digest(&r.snapshot))
        && (level != OptLevel::Baseline || field_u64(reply, "cycles") == Some(r.stats.cycles))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Serves `jobs` through the `scc-serve` binary at `bin` and times the
/// service's layers in-process; adds the `serve.*`, `store.*` and
/// `sim.*` service metrics to `out` and returns the operations it
/// attempted and how many failed.
///
/// The server gets every job once (misses, simulated and written to its
/// store), then whole shuffled rounds of them until at least `MIN_HITS`
/// warm hits, each reply byte-identical to the job's cold one. It is
/// drained, a new process starts on the same store, and one more round
/// (store hits) is replayed, again byte for byte.
pub fn probe(
    bin: &Path,
    dir: &Path,
    jobs: &[Served],
    seed: u64,
    tr: &Tracer,
    out: &mut Metrics,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    let frames: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            run_frame(
                &format!("j{i}"),
                &j.workload.name,
                j.workload.scale.iters,
                j.level,
            )
        })
        .collect();
    let store_dir = dir.join("store");
    let server = tr.span("serve.spawn", 0, |_| {
        Server::spawn(bin, dir, &store_dir, "first")
    });
    let mut client = Client::connect(&server.sock).expect("connect to scc-serve");
    let before = counters(&server.sock).unwrap_or_default();

    let mut cold = Vec::with_capacity(jobs.len());
    let mut miss_ms = Vec::with_capacity(jobs.len());
    tr.span("serve.cold", 0, |id| {
        for (frame, job) in frames.iter().zip(jobs) {
            let t0 = Instant::now();
            let (reply, ms) = client.timed(frame);
            tr.record("serve.request.miss", id, t0, Instant::now());
            check(reply_agrees(&reply, job.level, job.result));
            cold.push(reply);
            miss_ms.push(ms);
        }
    });

    let rounds = MIN_HITS.div_ceil(jobs.len());
    let mut rng = Rng::new(seed, 2);
    let mut hit_ms = Vec::with_capacity(rounds * jobs.len());
    let rss_before = proc_status_mb(&server.pid(), "VmRSS").unwrap_or(f64::NAN);
    tr.span("serve.warm", 0, |id| {
        for _ in 0..rounds {
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            rng.shuffle(&mut order);
            for j in order {
                let t0 = Instant::now();
                let (reply, ms) = client.timed(&frames[j]);
                tr.record("serve.request.hit", id, t0, Instant::now());
                check(reply == cold[j]);
                hit_ms.push(ms);
            }
        }
    });
    let rss_growth_mb = proc_status_mb(&server.pid(), "VmRSS").unwrap_or(f64::NAN) - rss_before;
    let first = delta(before, counters(&server.sock).unwrap_or_default());
    check((first.cache_hits, first.cache_misses) == (hit_ms.len() as u64, jobs.len() as u64));
    drop(client);
    check(tr.span("serve.drain", 0, |_| server.drain()));

    // The layer timings below open a copy, so the restart finds the
    // store exactly as the drained server left it.
    let copy = dir.join("store-copy");
    copy_dir(&store_dir, &copy).expect("copy the store");

    let t0 = Instant::now();
    let server = tr.span("serve.restart", 0, |_| {
        Server::spawn(bin, dir, &store_dir, "restart")
    });
    let before = counters(&server.sock).unwrap_or_default();
    let mut client = Client::connect(&server.sock).expect("connect to the restarted scc-serve");
    tr.span("serve.replay", 0, |_| {
        for (frame, cold) in frames.iter().zip(&cold) {
            check(&client.timed(frame).0 == cold);
        }
    });
    let warm_restart_s = t0.elapsed().as_secs_f64();
    let replay = delta(before, counters(&server.sock).unwrap_or_default());
    let n = jobs.len() as u64;
    check((replay.cache_hits, replay.cache_misses, replay.store_hits) == (0, n, n));
    drop(client);
    check(server.drain());

    out.metric("serve.hit_p50_ms", percentile(&hit_ms, 50.0), "ms");
    out.metric("serve.hit_p99_ms", percentile(&hit_ms, 99.0), "ms");
    out.metric("serve.miss_p50_ms", median(&miss_ms), "ms");
    out.note(format!(
        "hit samples {}, miss samples {}",
        hit_ms.len(),
        miss_ms.len()
    ));
    out.metric("serve.cache_hits", first.cache_hits as f64, "count");
    out.metric("serve.cache_misses", first.cache_misses as f64, "count");
    out.metric("serve.store_hits", replay.store_hits as f64, "count");
    out.metric("serve.warm_restart_s", warm_restart_s, "s");
    out.metric("serve.rss_growth_mb", rss_growth_mb, "MB");
    out.metric("store.bytes_written", first.bytes_written as f64, "bytes");

    let results: Vec<Arc<SimResult>> = jobs.iter().map(|j| Arc::clone(j.result)).collect();
    layer_timings(&frames, &results, &copy, dir, tr, out);
    (attempted, failed)
}

/// In-process timings of the service's layers on the probe's frames,
/// the workload's results and a copy of the store the server filled.
fn layer_timings(
    frames: &[String],
    results: &[Arc<SimResult>],
    copy: &Path,
    dir: &Path,
    tr: &Tracer,
    out: &mut Metrics,
) {
    let parsed: Vec<protocol::Frame> = frames
        .iter()
        .filter_map(|f| protocol::parse_request(f.trim_end()).ok())
        .collect();
    out.metric(
        "serve.parse_us",
        per_call_us(frames, 20, tr, "serve.protocol.parse_request", |f| {
            std::hint::black_box(protocol::parse_request(f.trim_end()).ok());
        }),
        "us",
    );
    out.metric(
        "serve.render_us",
        per_call_us(results, 20, tr, "serve.protocol.run_response", |r| {
            std::hint::black_box(protocol::run_response(Proto::V2, Some("id"), r, None));
        }),
        "us",
    );
    let encoded: Vec<Vec<u8>> = results.iter().map(|r| persist::encode_result(r)).collect();
    out.metric(
        "sim.persist_encode_us",
        per_call_us(results, 20, tr, "sim.persist.encode_result", |r| {
            std::hint::black_box(persist::encode_result(r));
        }),
        "us",
    );
    out.metric(
        "sim.persist_decode_us",
        per_call_us(&encoded, 20, tr, "sim.persist.decode_result", |b| {
            std::hint::black_box(persist::decode_result(b));
        }),
        "us",
    );

    // Open the copied store through the runner's tier, promote every
    // record into this process's LRU, and probe it by the jobs' keys.
    let t0 = Instant::now();
    let tier = tr
        .span("sim.StoreTier.open", 0, |_| StoreTier::open(copy))
        .expect("open the copied store");
    out.metric("sim.store_open_s", t0.elapsed().as_secs_f64(), "s");
    tier.warm_into_cache()
        .expect("warm the LRU from the copied store");
    let cap = scc_sim::build::DEFAULT_MAX_CYCLES;
    let keys: Vec<String> = parsed
        .iter()
        .filter_map(|f| match &f.request {
            Request::Run(r) => Some(protocol::run_key(r, cap)),
            _ => None,
        })
        .collect();
    let runner = Runner::new().with_store(Arc::clone(&tier));
    out.metric(
        "sim.try_cached_us",
        per_call_us(&keys, 20, tr, "sim.Runner.try_cached", |k| {
            std::hint::black_box(runner.try_cached(k, None));
        }),
        "us",
    );
    drop(runner);
    drop(tier);

    let rev = scc_sim::runner::git_rev();
    let mut store = Store::open(copy, StoreConfig::new(persist::SCHEMA_VERSION, &rev))
        .expect("open the copied store");
    out.metric(
        "store.get_us",
        per_call_us(&keys, 5, tr, "store.Store.get", |k| {
            std::hint::black_box(store.get(k).expect("store get"));
        }),
        "us",
    );
    let fresh = dir.join("store-put");
    let mut store = Store::open(&fresh, StoreConfig::new(persist::SCHEMA_VERSION, &rev))
        .expect("open a fresh store");
    let mut n = 0u64;
    out.metric(
        "store.put_us",
        per_call_us(&encoded, 5, tr, "store.Store.put", |b| {
            n += 1;
            store.put(&format!("perfbench|{n}"), b).expect("store put");
        }),
        "us",
    );
}
