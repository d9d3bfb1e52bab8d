//! Run any registered workload by name — the scenario API's CLI face.
//!
//! ```text
//! cargo run --release --example run_workload                 # sweep them all
//! cargo run --release --example run_workload -- sieve        # just one
//! cargo run --release --example run_workload -- --tier=jit   # pick the engine
//! ```
//!
//! Every guest in `hvft-guest`'s workload registry runs through the
//! identical builder-configured pipeline: bare baseline first (the
//! paper's `RT`), then the replicated system (`N′`) with one backup and
//! with two — the backup count must be invisible to the guest —
//! printing the normalized performance, coordination bookkeeping and
//! the execution-tier breakdown (instructions retired per engine,
//! superblocks compiled, invalidations, returns by link and in-trace,
//! how often execution left the straight line — run entries, dispatcher
//! turns, chain hops — and the share of hops and of loads and stores
//! that took their fast path) for each.

use hvft::core::scenario::{ExecStats, ExecTier, Scenario};
use hvft::guest::workload::names;

fn tier_summary(x: &ExecStats) -> String {
    let mut parts = Vec::new();
    for (label, n) in [("step", x.step_retired), ("jit", x.jit_retired)] {
        if n > 0 {
            parts.push(format!("{label} {n}"));
        }
    }
    if x.superblocks_compiled > 0 {
        parts.push(format!(
            "{} superblocks ({} cross-page), {} invalidations ({} secondary)",
            x.superblocks_compiled,
            x.cross_page_superblocks,
            x.jit_invalidations,
            x.jit_invalidations_secondary
        ));
    }
    let ret_total = x.ret_cache_hits + x.ret_cache_misses;
    if ret_total > 0 {
        parts.push(format!(
            "return links {}/{} ({:.1}% hit)",
            x.ret_cache_hits,
            ret_total,
            100.0 * x.ret_cache_hits as f64 / ret_total as f64
        ));
    }
    if x.ret_inline > 0 {
        parts.push(format!("{} returns in-trace", x.ret_inline));
    }
    if x.run_entries > 0 {
        parts.push(format!(
            "{} run entries, {} dispatches, {} chain hops",
            x.run_entries, x.dispatches, x.chain_hops
        ));
    }
    if x.chain_hops > 0 {
        parts.push(format!(
            "{:.1}% of hops by link",
            100.0 * x.link_hits as f64 / x.chain_hops as f64
        ));
    }
    if x.spin_skipped > 0 {
        parts.push(format!(
            "{:.1}% retired by skipping poll loops",
            100.0 * x.spin_skipped as f64 / x.jit_retired as f64
        ));
    }
    let data = x.data_fast + x.data_slow;
    if data > 0 {
        parts.push(format!(
            "{:.1}% of {data} loads/stores by the data-page map",
            100.0 * x.data_fast as f64 / data as f64
        ));
    }
    if parts.is_empty() {
        "idle".to_owned()
    } else {
        parts.join(", ")
    }
}

fn run_one(name: &str, tier: ExecTier) {
    let bare = Scenario::builder()
        .workload_named(name)
        .bare()
        .exec_tier(tier)
        .build()
        .unwrap_or_else(|e| panic!("{name} (bare): {e}"))
        .run();
    let replicated = |backups: usize| {
        Scenario::builder()
            .workload_named(name)
            .functional_cost()
            .exec_tier(tier)
            .backups(backups)
            .build()
            .unwrap_or_else(|e| panic!("{name} t={backups}: {e}"))
            .run()
    };
    let (ft, ft2) = (replicated(1), replicated(2));
    assert!(
        bare.exit.is_clean_exit() && ft.exit.is_clean_exit() && ft2.exit.is_clean_exit(),
        "{name}: bare {:?}, replicated {:?}, t=2 {:?}",
        bare.exit,
        ft.exit,
        ft2.exit
    );
    assert_eq!(
        bare.exit.code(),
        ft.exit.code(),
        "{name}: replication must not change the checksum"
    );
    assert_eq!(
        ft.exit.code(),
        ft2.exit.code(),
        "{name}: the backup count must be invisible to the guest"
    );
    assert!(
        ft.lockstep_clean && ft2.lockstep_clean,
        "{name}: lockstep divergence"
    );
    println!(
        "{name:>10}: checksum {:#010x} | bare {} | replicated {} | {} epochs, {} msgs",
        bare.exit.code().expect("clean exit"),
        bare.completion_time,
        ft.completion_time,
        ft.epochs,
        ft.messages_per_replica.iter().sum::<u64>(),
    );
    println!(
        "{:>10}  tiers: bare [{}] | primary [{}]",
        "",
        tier_summary(&bare.exec_stats()),
        tier_summary(&ft.exec_stats()),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tier = ExecTier::default();
    let mut selected = Vec::new();
    for a in args {
        if let Some(t) = a.strip_prefix("--tier=") {
            tier = t.parse().unwrap_or_else(|e| {
                eprintln!("{e}\nusage: run_workload [--tier=step|jit] [WORKLOAD...]");
                std::process::exit(2)
            });
        } else {
            selected.push(a);
        }
    }
    if selected.is_empty() {
        selected = names();
    }
    println!("registered workloads: {}", names().join(", "));
    println!("execution tier: {tier}\n");
    for name in &selected {
        run_one(name, tier);
    }
    println!("\nevery workload ran bare and replicated (t = 1, 2) with identical checksums ✓");
}
