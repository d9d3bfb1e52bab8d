//! Differential fuzzing of the execution tiers with `hvft-lang` as the
//! program source.
//!
//! The random-program generator ([`hvft::lang::genprog`]) is the fuzz
//! frontier and the reference interpreter ([`hvft::lang::interpret`])
//! is the ground-truth oracle: every generated program is compiled to
//! a bootable guest image and must behave **bit-identically** across
//!
//! - the two execution tiers ([`ExecTier::Step`], [`ExecTier::Jit`])
//!   run straight to completion on a [`BareHost`];
//! - the same tiers driven through *epoch-length event windows* —
//!   seed-drawn small cumulative `run(limit)` chunks, the way the
//!   replication protocol actually drives a virtual machine;
//! - the language-level interpreter, which never saw the ISA at all:
//!   exit code, console byte stream, and `mark` checkpoints (surfaced
//!   by the kernel as `diag` pairs) must agree with the machine.
//!
//! A seed-corpus distinctness test guarantees the proptest sweep
//! exercises the advertised number of *distinct* programs rather than
//! re-running one degenerate case.

// The in-tree proptest shim's macro is a token muncher; two cases with
// doc comments exceed the default limit.
#![recursion_limit = "256"]

use std::collections::HashSet;

use hvft::guest::layout::RAM_BYTES;
use hvft::guest::{build_image, CompiledWorkload, Workload};
use hvft::hypervisor::bare::{BareExit, BareHost, BareRunResult};
use hvft::hypervisor::cost::CostModel;
use hvft::lang::genprog::{self, GenConfig};
use hvft::machine::exec::ExecTier;
use hvft::machine::statehash::vm_state_hash;
use hvft_isa::program::Program;
use proptest::prelude::*;

/// Hard ceiling on retired instructions; generated programs are
/// terminating by construction and orders of magnitude smaller.
const FUEL: u64 = 20_000_000;

/// Disk programs idle-wait for completions, so their retirement budget
/// is capped lower and reaching it is a valid terminal state.
const DISK_FUEL: u64 = 2_000_000;

/// Everything observable about one complete bare run.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    exit: BareExit,
    retired: u64,
    time: hvft::sim::time::SimDuration,
    diags: Vec<(u32, u32)>,
    console: String,
    state_hash: u64,
}

fn fresh_host(image: &Program, tier: ExecTier) -> BareHost {
    let mut host = BareHost::new(image, CostModel::functional(), RAM_BYTES, 32, 7);
    host.set_exec_tier(tier);
    host
}

/// `result.time` is the duration of ONE `run` call, so windowed runs
/// pass the accumulated total instead.
fn observe(
    host: &mut BareHost,
    result: BareRunResult,
    total_time: hvft::sim::time::SimDuration,
) -> Observed {
    Observed {
        exit: result.exit,
        retired: result.retired,
        time: total_time,
        diags: result.diags,
        console: host.console.output_string(),
        state_hash: vm_state_hash(&host.cpu, &host.mem),
    }
}

/// Run straight to completion under one cumulative limit.
fn run_straight(image: &Program, tier: ExecTier, fuel: u64) -> Observed {
    let mut host = fresh_host(image, tier);
    let result = host.run(fuel);
    let time = result.time;
    observe(&mut host, result, time)
}

/// Run in epoch-length windows: the cumulative `run(limit)` grows by a
/// seed-drawn chunk each call, so block/superblock caches are entered,
/// abandoned at the retirement clamp, and re-entered — exactly the
/// pattern the epoch-delimited replication protocol produces.
fn run_chunked(image: &Program, tier: ExecTier, seed: u64, fuel: u64) -> Observed {
    let mut host = fresh_host(image, tier);
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = move |lo: u64, hi: u64| {
        // splitmix64 step; plenty for chunk-size jitter.
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        lo + (z ^ (z >> 31)) % (hi - lo)
    };
    let mut limit = 0u64;
    let mut total_time = hvft::sim::time::SimDuration::ZERO;
    loop {
        limit += draw(13, 700);
        let result = host.run(limit.min(fuel));
        total_time += result.time;
        if result.exit != BareExit::InstructionLimit || limit >= fuel {
            return observe(&mut host, result, total_time);
        }
    }
}

/// The full two-tier oracle for one generated seed.
///
/// Interrupt-free programs (no disk ops) must halt within [`FUEL`];
/// disk programs spend most of their retirement budget idle-waiting
/// for completions, so they run under a smaller cap and hitting it is
/// a valid terminal state — the tiers must agree **at the clamp**,
/// which is exactly the exact-retirement property the epochs need.
fn assert_tiers_agree(seed: u64, cfg: &GenConfig) -> Observed {
    let workload = CompiledWorkload::generated(seed, cfg);
    let image = build_image(&workload.kernel(), &workload.user_source())
        .unwrap_or_else(|e| panic!("seed {seed}: image does not build: {e}"));

    let fuel = if cfg.disk_ops { DISK_FUEL } else { FUEL };
    let reference = run_straight(&image, ExecTier::Step, fuel);
    assert!(
        cfg.disk_ops || matches!(reference.exit, BareExit::Halted { .. }),
        "seed {seed}: reference run did not halt: {:?}",
        reference.exit
    );

    let straight = run_straight(&image, ExecTier::Jit, fuel);
    assert_eq!(
        straight, reference,
        "seed {seed}: jit straight run diverged"
    );

    // Epoch-window oracle: both tiers driven through the *same*
    // seed-drawn window schedule must stay bit-identical.
    let step_windowed = run_chunked(&image, ExecTier::Step, seed, fuel);
    let windowed = run_chunked(&image, ExecTier::Jit, seed, fuel);
    assert_eq!(
        windowed, step_windowed,
        "seed {seed}: jit epoch-window run diverged from stepped windows"
    );
    // Window-schedule *invariance* (windowed ≡ straight) only holds
    // for interrupt-free programs: an async disk-completion interrupt
    // is polled between dispatch units, so the instruction it lands on
    // legitimately depends on where windows fragment the stream. The
    // replication protocol never relies on more — it only needs every
    // tier to agree under the one schedule the epochs impose.
    if !cfg.disk_ops {
        assert_eq!(
            step_windowed, reference,
            "seed {seed}: epoch-window run diverged from the straight run"
        );
    }
    reference
}

/// Language-level ground truth: the interpreter never touches the ISA,
/// the kernel, or the MMU, yet must predict the machine's exit code,
/// console bytes, and `mark` checkpoints exactly.
fn assert_interpreter_parity(seed: u64, cfg: &GenConfig, machine: &Observed) {
    let source = genprog::source(seed, cfg);
    let outcome = hvft::lang::interpret(&source, FUEL)
        .unwrap_or_else(|e| panic!("seed {seed}: interpreter failed: {e}\n{source}"));
    assert_eq!(
        machine.exit,
        BareExit::Halted {
            code: Some(outcome.exit)
        },
        "seed {seed}: exit code disagrees with interpreter"
    );
    assert_eq!(
        machine.console.as_bytes(),
        &outcome.console[..],
        "seed {seed}: console stream disagrees with interpreter"
    );
    // The kernel surfaces `mark(v)` as diag (v, 2) and `exit(v)` as a
    // final diag (v, 1).
    let mut expected: Vec<(u32, u32)> = outcome.marks.iter().map(|&m| (m, 2)).collect();
    expected.push((outcome.exit, 1));
    assert_eq!(
        machine.diags, expected,
        "seed {seed}: diag stream disagrees with interpreter marks"
    );
}

// The headline oracle: 64 distinct generated programs per run, each
// checked across both tiers (straight and windowed) and against
// the reference interpreter.
proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn generated_programs_are_tier_and_interpreter_invariant(seed in 0u64..1 << 48) {
        let cfg = GenConfig::default();
        let machine = assert_tiers_agree(seed, &cfg);
        assert_interpreter_parity(seed, &cfg, &machine);
    }
}

// Disk-enabled programs exercise DMA, the block device, and the
// kernel's IO gates; the two tiers must still agree (the
// interpreter's device model is checked separately in `hvft-lang`'s
// own suite).
proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn disk_touching_programs_are_tier_invariant(seed in 0u64..1 << 48) {
        let cfg = GenConfig { disk_ops: true, ..GenConfig::default() };
        assert_tiers_agree(seed, &cfg);
    }
}

/// Pinned regression seeds: stay green forever, independent of the
/// proptest shim's seed derivation.
#[test]
fn pinned_seed_corpus_is_tier_and_interpreter_invariant() {
    let cfg = GenConfig::default();
    for seed in [0u64, 1, 2, 3, 17, 42, 255, 1995, 0xB5] {
        let machine = assert_tiers_agree(seed, &cfg);
        assert_interpreter_parity(seed, &cfg, &machine);
    }
}

/// The distinctness guarantee behind "N cases": consecutive seeds must
/// produce (almost always) distinct programs, so a 64-case sweep
/// really does exercise ≥ 64 distinct programs.
#[test]
fn generator_produces_distinct_programs_across_seeds() {
    let cfg = GenConfig::default();
    let sources: HashSet<String> = (0..128).map(|s| genprog::source(s, &cfg)).collect();
    assert!(
        sources.len() >= 120,
        "only {} distinct programs in 128 seeds",
        sources.len()
    );
    // And the generator is seed-deterministic: same seed, same program.
    assert_eq!(genprog::source(7, &cfg), genprog::source(7, &cfg));
}
