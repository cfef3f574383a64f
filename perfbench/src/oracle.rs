//! Output checks made apart from the code under test: the in-order
//! `scc_isa::Machine` interpreter for architectural state and micro-op
//! counts, plain-Rust versions of the guest corpus algorithms, and an
//! independent FNV-1a digest of the final state for service replies.

use scc_isa::{ArchSnapshot, Machine, Program};
use scc_sim::{OptLevel, SimResult};

/// What a correct simulation of one program must reproduce.
pub struct Expected {
    pub snapshot: ArchSnapshot,
    pub program_uops: u64,
    /// Guest result variable: its address and its plain-Rust value.
    pub guest: Option<(u64, i64)>,
}

/// Runs the interpreter to `halt`. `None` when the program does not halt
/// within the budget, which the callers count as a failed check.
pub fn interpret(program: &Program) -> Option<(ArchSnapshot, u64)> {
    let mut m = Machine::new(program);
    let r = m.run(1 << 34).ok()?;
    r.halted.then(|| (m.snapshot(), r.uops))
}

/// True when `r` is a correct simulation at `level` of the program
/// described by `want`.
pub fn check(r: &SimResult, level: OptLevel, want: &Expected) -> bool {
    let s = &r.stats;
    let uops_ok = match level {
        OptLevel::Baseline => s.committed_uops == s.program_uops,
        _ => s.committed_uops <= s.program_uops,
    };
    let guest_ok = want
        .guest
        .is_none_or(|(addr, value)| mem_word(&r.snapshot, addr) == value);
    r.halted
        && r.snapshot == want.snapshot
        && s.program_uops == want.program_uops
        && uops_ok
        && guest_ok
}

/// The result recorded for a job whose simulation returned an error: it
/// fails every check, and keeps the metrics computable.
pub fn stand_in(workload: &str, level: OptLevel, want: &Expected) -> SimResult {
    SimResult {
        workload: workload.to_string(),
        level,
        stats: Default::default(),
        energy: Default::default(),
        snapshot: want.snapshot.clone(),
        halted: false,
    }
}

/// One word of a snapshot's memory dump (absent cells read as zero).
pub fn mem_word(s: &ArchSnapshot, addr: u64) -> i64 {
    s.mem
        .binary_search_by_key(&addr, |&(a, _)| a)
        .map_or(0, |i| s.mem[i].1)
}

/// 64-bit FNV-1a over registers, flags and memory, in the order the
/// service's `arch_digest` report field documents.
pub fn arch_digest(s: &ArchSnapshot) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &s.regs {
        eat(*r as u64);
    }
    eat(u64::from(s.cc.zf)
        | u64::from(s.cc.sf) << 1
        | u64::from(s.cc.of) << 2
        | u64::from(s.cc.cf) << 3);
    for &(addr, val) in &s.mem {
        eat(addr);
        eat(val as u64);
    }
    h
}

/// The guest corpus result variable and its value after `iters` outer
/// rounds, computed directly in Rust from the algorithm each
/// `crates/lang/guest/*.sccl` file states.
pub fn guest_result(name: &str, iters: i64) -> (&'static str, i64) {
    match name {
        "sort" => ("checksum", sort(iters)),
        "sieve" => ("primes", sieve(iters)),
        "matmul" => ("trace", matmul(iters)),
        "search" => ("found", search(iters)),
        "interp" => ("sum", interp(iters)),
        "cksum" => ("cksum", cksum(iters)),
        other => panic!("no reference for guest program `{other}`"),
    }
}

fn sort(iters: i64) -> i64 {
    let mut checksum = 0i64;
    for round in 0..iters {
        let mut seed = round.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        let mut a = [0i64; 16];
        for x in a.iter_mut() {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *x = (seed >> 33) & 0xffff;
        }
        a.sort_unstable();
        checksum = checksum.wrapping_add(a[8] - a[0]);
    }
    checksum
}

fn sieve(iters: i64) -> i64 {
    let mut primes = 0;
    for _ in 0..iters {
        let mut flags = [true; 64];
        for p in 2..64 {
            if flags[p] {
                for m in (p * p..64).step_by(p) {
                    flags[m] = false;
                }
            }
        }
        primes = (2..64).filter(|&k| flags[k]).count() as i64;
    }
    primes
}

fn matmul(iters: i64) -> i64 {
    let a: Vec<i64> = (0..16).map(|t| t * 3 + 1).collect();
    let b: Vec<i64> = (0..16).map(|t| t * 5 + 2).collect();
    let mut c = [0i64; 16];
    for round in 0..iters {
        for i in 0..4 {
            for j in 0..4 {
                c[i * 4 + j] = (0..4).map(|k| a[i * 4 + k] * b[k * 4 + j]).sum::<i64>() + round;
            }
        }
    }
    c[0] + c[5] + c[10] + c[15]
}

fn search(iters: i64) -> i64 {
    let needle = [7, 1, 7, 3];
    let mut found = 0;
    for round in 0..iters {
        let mut text: Vec<i64> = (0..64).map(|f| (f * 5 + round) % 7).collect();
        let plant = ((round * 11) % 60) as usize;
        text[plant..plant + 4].copy_from_slice(&needle);
        found += (0..61).filter(|&i| text[i..i + 4] == needle).count() as i64;
    }
    found
}

fn interp(iters: i64) -> i64 {
    let code = [1, 3, 2, 5, 1, 2, 4, 1, 3, 5, 2, 1, 4, 3, 1, 0];
    let mut sum = 0i64;
    for round in 0..iters {
        let mut acc = round & 0xff;
        for &op in &code {
            match op {
                0 => break,
                1 => acc += 7,
                2 => acc *= 3,
                3 => acc -= 2,
                4 => acc ^= 21,
                _ => acc >>= 1,
            }
        }
        sum += acc;
    }
    sum
}

fn cksum(iters: i64) -> i64 {
    let buf: Vec<i64> = (0..32).map(|f| (f * 97 + 13) & 0xff).collect();
    let (mut s1, mut s2) = (1i64, 0i64);
    for round in 0..iters {
        for &x in &buf {
            s1 = (s1 + x + round) % 65521;
            s2 = (s2 + s1) % 65521;
        }
    }
    (s2 << 16) | s1
}
