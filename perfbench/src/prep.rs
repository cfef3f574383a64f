//! Set-up shared by the workloads: registry programs through
//! `scc_workloads::workload`, guest programs through `scc_lang::compile`,
//! and the expected results the output checks compare against.

use std::borrow::Cow;

use scc_lang::{corpus, Opt, Options};
use scc_workloads::{Scale, Suite, Workload};

use crate::oracle::{self, Expected};
use crate::util::{cpu_s, Tracer};

/// A program ready to simulate, with what its simulation must produce.
pub struct Prepared {
    pub workload: Workload,
    pub expected: Expected,
}

/// Host time spent in the set-up layers.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub build_s: f64,
}

/// Builds one registry program.
pub fn registry(name: &str, scale: i64, tr: &Tracer, parent: u64, t: &mut SetupTimes) -> Workload {
    let t0 = cpu_s();
    let w = tr.span("workloads.workload", parent, |_| {
        scc_workloads::workload(name, Scale::custom(scale))
    });
    t.build_s += cpu_s() - t0;
    w.unwrap_or_else(|| panic!("`{name}` is not a registry workload"))
}

/// Compiles one corpus program at `O2` with the given `ITERS`; returns
/// the program and the address of its result variable.
pub fn guest(short: &str, iters: i64, tr: &Tracer, parent: u64) -> (scc_isa::Program, u64) {
    let g = corpus::find(short).unwrap_or_else(|| panic!("`{short}` is not in the guest corpus"));
    let compiled = tr
        .span("lang.compile", parent, |_| {
            scc_lang::compile(
                g.source,
                &Options {
                    opt: Opt::O2,
                    iters,
                },
            )
        })
        .unwrap_or_else(|e| panic!("guest `{short}` failed to compile: {e}"));
    let (var, _) = oracle::guest_result(short, iters);
    let addr = compiled
        .symbols
        .iter()
        .find(|s| s.name == var)
        .unwrap_or_else(|| panic!("guest `{short}` has no symbol `{var}`"))
        .addr;
    (compiled.program, addr)
}

/// The registry programs and guest corpus programs of a simulation
/// workload at `scale`, each with its interpreter-checked expectation.
/// Guest programs are compiled here (not through the registry) so their
/// symbol tables are at hand; `ITERS` follows the registry's rule.
pub fn programs(
    registry_names: &[&str],
    guests: &[&str],
    scale: i64,
    tr: &Tracer,
    parent: u64,
    t: &mut SetupTimes,
) -> Vec<Prepared> {
    let mut out = Vec::new();
    for name in registry_names {
        let w = registry(name, scale, tr, parent, t);
        let expected = expect(&w.program, None, tr, parent);
        out.push(Prepared {
            workload: w,
            expected,
        });
    }
    for short in guests {
        let g =
            corpus::find(short).unwrap_or_else(|| panic!("`{short}` is not in the guest corpus"));
        let iters = g.iters_at(scale);
        let (program, addr) = guest(short, iters, tr, parent);
        let value = oracle::guest_result(short, iters).1;
        let expected = expect(&program, Some((addr, value)), tr, parent);
        let workload = Workload {
            name: Cow::Owned(format!("g_{short}")),
            suite: Suite::Guest,
            program,
            description: g.description,
            scale: Scale::custom(scale),
        };
        out.push(Prepared { workload, expected });
    }
    out
}

/// The interpreter's final state and micro-op count for `program`. A
/// program the interpreter cannot run to `halt` gets an expectation no
/// simulation can meet, so every job on it counts as failed.
pub fn expect(
    program: &scc_isa::Program,
    guest: Option<(u64, i64)>,
    tr: &Tracer,
    parent: u64,
) -> Expected {
    match tr.span("isa.interpret", parent, |_| oracle::interpret(program)) {
        Some((snapshot, program_uops)) => Expected {
            snapshot,
            program_uops,
            guest,
        },
        None => Expected {
            snapshot: scc_isa::ArchSnapshot {
                regs: [0; scc_isa::NUM_REGS],
                cc: Default::default(),
                mem: Vec::new(),
            },
            program_uops: u64::MAX,
            guest,
        },
    }
}
