//! The §4.2 disk workloads under replication, with transient-fault
//! injection exercising the IO1/IO2 device contract.
//!
//! ```text
//! cargo run --release --example disk_workload
//! ```
//!
//! Runs the random-block write benchmark with a disk that occasionally
//! reports *uncertain* outcomes (SCSI `CHECK_CONDITION`), shows the
//! guest driver's retries flowing through the replicated system, and
//! reports per-operation latency — the paper's 26 ms → 27.8 ms write
//! comparison — straight from the report's timing histogram.

use hvft::core::scenario::Scenario;
use hvft::devices::check_single_processor_consistency;
use hvft::guest::workload::IoBench;
use hvft::guest::IoMode;

fn workload(ops: u32) -> IoBench {
    IoBench {
        ops,
        mode: IoMode::Write,
        num_blocks: 64,
        seed: 11,
        ..Default::default()
    }
}

fn main() {
    let ops = 12;

    // Bare-hardware baseline — same workload, bare driver.
    let bare = Scenario::builder()
        .workload(workload(ops))
        .bare()
        .disk_blocks(64)
        .build()
        .expect("valid scenario")
        .run();
    println!("bare hardware  : {} for {ops} writes", bare.completion_time);

    // Replicated, with 15% transient uncertainty injected at the disk.
    let report = Scenario::builder()
        .workload(workload(ops))
        .disk_blocks(64)
        .disk_fault_prob(0.15)
        .seed(9)
        .build()
        .expect("valid scenario")
        .run();
    assert!(report.exit.is_clean_exit(), "{:?}", report.exit);
    let np = report.completion_time.as_nanos() as f64 / bare.completion_time.as_nanos() as f64;
    println!(
        "replicated     : {} ({np:.2}x bare)",
        report.completion_time
    );
    println!(
        "driver retries : {} (uncertain outcomes, IO2)",
        report.guest_retries
    );
    println!(
        "disk log       : {} operations for {ops} logical writes",
        report.disk_log.len()
    );

    let hist = report.op_latency_hist();
    if hist.total() > 0 {
        let mean_ns: u64 = report
            .op_latencies
            .iter()
            .map(|d| d.as_nanos())
            .sum::<u64>()
            / report.op_latencies.len() as u64;
        println!(
            "op latency     : mean {:.1} ms, p90 <= {} over {} ops (paper: 26 ms bare -> 27.8 ms replicated)",
            mean_ns as f64 / 1e6,
            hist.quantile(0.9).expect("nonempty histogram"),
            hist.total(),
        );
    }

    check_single_processor_consistency(&report.disk_log).expect("environment consistency");
    println!("environment    : log is single-processor consistent ✓");
    assert!(
        report.lockstep_clean,
        "retries must replay identically at the backup"
    );
    println!(
        "lockstep       : clean across {} epochs ✓",
        report.lockstep_compared
    );
}
