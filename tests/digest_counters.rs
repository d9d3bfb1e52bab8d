//! Deterministic-counter gate for the lockstep digest.
//!
//! Every replica digests its whole VM state at every epoch boundary,
//! and the digest is kept current by rereading only the 128-byte lines
//! written since the previous boundary. How many RAM bytes that reads
//! (`HvStats::digest_bytes`) repeats exactly from run to run, so it is
//! asserted here, not timed: a boundary with nothing written reads
//! nothing, and the workloads the benchmark replicates read a few KiB
//! per boundary — against the 48 KiB a page-granular digest read for
//! the memory sweep below, because its 48 words lie on all 12 of its
//! pages.
//!
//! The first boundary of a booted guest reads all of RAM once (every
//! line starts out marked), so the per-boundary figures leave it out.

use hvft::core::scenario::Scenario;
use hvft::core::RunReport;
use hvft::guest::layout::{RAM_BYTES, USER_TEXT};
use hvft::guest::workload::{Dhrystone, Workload};
use hvft::guest::{build_image, CompiledWorkload, KernelConfig};
use hvft::hypervisor::cost::CostModel;
use hvft::hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft::machine::exec::ExecTier;
use hvft_sim::time::SimDuration;

/// The benchmark's memory sweep: read-modify-writes of 48 words at
/// stride `0x404` over twelve pages, so every 4096-instruction epoch
/// writes the same 48 words, four on each page.
const MEMSWEEP: &str = "fn main() {
    let v = 0x1234;
    let r = 0;
    while r < 150 {
        let a = 0;
        while a < 0xC000 {
            v = ((v << 1) ^ peek(0x20000 + a)) + r;
            poke(0x20000 + a, v);
            a = a + 0x404;
        }
        r = r + 1;
    }
    exit(v);
}";

/// `workload` replicated (t = 1, lockstep on) to its exit under the
/// jit.
fn replicated(workload: impl Workload + 'static) -> RunReport {
    let report = Scenario::builder()
        .workload(workload)
        .functional_cost()
        .exec_tier(ExecTier::Jit)
        .build()
        .expect("valid configuration")
        .run();
    assert!(
        report.exit.is_clean_exit() && report.lockstep_clean,
        "{:?}",
        report.exit
    );
    report
}

/// Bytes each replica's digest read per boundary after its first.
fn bytes_per_boundary(report: &RunReport) -> Vec<u64> {
    assert_eq!(report.replica_stats.len(), 2);
    report
        .replica_stats
        .iter()
        .map(|s| {
            assert!(s.epochs > 10, "the run spans boundaries: {s:?}");
            assert!(s.digest_bytes >= RAM_BYTES as u64, "the first read all");
            (s.digest_bytes - RAM_BYTES as u64) / (s.epochs - 1)
        })
        .collect()
}

#[test]
fn a_boundary_with_nothing_written_reads_nothing() {
    // A user loop without a store, and no interrupt delivered: after
    // the first boundary the guest writes no byte of RAM.
    let user = format!(".org {USER_TEXT:#x}\nu_main:\n    addi r4, r4, 1\n    jal  r0, u_main\n");
    let image = build_image(&KernelConfig::default(), &user).expect("image builds");
    let mut guest = HvGuest::new(&image, CostModel::functional(), HvConfig::default());
    let mut booked = Vec::new();
    for _ in 0..8 {
        assert_eq!(guest.run(SimDuration::from_secs(10)), HvEvent::EpochEnd);
        guest.state_hash();
        guest.begin_epoch();
        booked.push(guest.stats().digest_bytes);
    }
    assert_eq!(
        booked[0], RAM_BYTES as u64,
        "the first boundary reads all of RAM"
    );
    assert!(
        booked.windows(2).all(|w| w[0] == w[1]),
        "clean boundaries read RAM: {booked:?}"
    );
    // A second digest at the same boundary reads nothing either.
    guest.state_hash();
    assert_eq!(guest.mem.take_digest_bytes(), 0);
}

#[test]
fn a_memory_sweep_boundary_reads_the_lines_it_wrote() {
    let sweep = CompiledWorkload::new("memsweep", MEMSWEEP).expect("memsweep compiles");
    let per_boundary = bytes_per_boundary(&replicated(sweep));
    // 48 lines of 128 bytes are 6 KiB; the kernel's and the stack's
    // writes come on top. A page-granular digest read 48 KiB.
    for bytes in per_boundary {
        assert!(
            (6 * 1024..=8 * 1024).contains(&bytes),
            "{bytes} bytes per boundary"
        );
    }
}

#[test]
fn a_dhrystone_boundary_reads_a_few_lines() {
    let dhrystone = Dhrystone {
        iters: 20_000,
        syscall_every: 6,
        ..Dhrystone::default()
    };
    for bytes in bytes_per_boundary(&replicated(dhrystone)) {
        assert!(
            (128..=12 * 1024).contains(&bytes),
            "{bytes} bytes per boundary"
        );
    }
}
