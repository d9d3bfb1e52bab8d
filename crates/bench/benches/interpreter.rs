//! Substrate microbenchmarks: interpreter, assembler, channel, TLB.
//!
//! These measure the *simulator's* wall-clock performance (not simulated
//! time): how fast the virtual machine executes guest instructions, how
//! fast the assembler builds images, and the cost of the coordination
//! primitives. They bound how long the paper-reproduction harnesses take.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hvft_guest::{build_image, callstorm_source, dhrystone_source, KernelConfig};
use hvft_hypervisor::bare::BareHost;
use hvft_hypervisor::cost::CostModel;
use hvft_hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft_isa::asm::assemble;
use hvft_machine::cpu::{Cpu, Exit, LoadProgram};
use hvft_machine::mem::{Memory, PAGE_SIZE};
use hvft_machine::statehash::{vm_state_hash, vm_state_hash_from_scratch};
use hvft_machine::tlb::{pte, Tlb, TlbAccess, TlbReplacement};
use hvft_machine::trap::Trap;
use hvft_machine::ExecTier;
use hvft_net::lan::Lan;
use hvft_net::link::LinkSpec;
use hvft_sim::time::SimDuration;
use hvft_sim::time::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};

const TIERS: [ExecTier; 2] = [ExecTier::Step, ExecTier::Jit];

/// The cost of leaving and re-entering `Cpu::run` — what an embedder
/// that emulates *around* the run loop pays per exit, before it has
/// emulated anything (the in-tree embedders emulate inside it,
/// `Cpu::run_with`; see the syscall rows). `immediate`: the pc sits
/// on a privileged instruction at privilege 1, so every `run` exits at
/// once. `one_insn`: `addi; mfctl; jal` in a loop with the `mfctl`
/// skipped by the embedder, so every entry dispatches and retires real
/// work (two instructions) before it traps. Both per round trip.
fn bench_exit_roundtrip(c: &mut Criterion) {
    const TRIPS: u64 = 100_000;
    let prog = assemble("l: addi r4, r4, 1\n mfctl r5, traparg\n jal r0, l\n").unwrap();
    let mut g = c.benchmark_group("exit_roundtrip");
    g.throughput(Throughput::Elements(TRIPS));
    for (shape, entry_pc, skip) in [("immediate", 4, false), ("one_insn", 0, true)] {
        for tier in TIERS {
            let mut mem = Memory::new(PAGE_SIZE as usize);
            let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
            prog.load_into_cpu(&mut cpu, &mut mem);
            cpu.set_exec_tier(tier);
            cpu.pc = entry_pc;
            cpu.psw.cpl = 1;
            assert!(matches!(
                cpu.run(&mut mem, 1_000),
                Exit::Trap(Trap::PrivilegedOp { .. })
            ));
            assert_eq!(cpu.pc, 4, "parked on the mfctl");
            g.bench_function(format!("{tier}/{shape}"), |b| {
                b.iter(|| {
                    for _ in 0..TRIPS {
                        black_box(cpu.run(black_box(&mut mem), 1_000));
                        if skip {
                            cpu.retire_skip();
                        }
                    }
                })
            });
        }
    }
    g.finish();
}

/// Host time of one whole hypervised run of `image`, and the number of
/// traps it reflected into the guest kernel (its `gate`s).
fn timed_hv_run(image: &hvft_isa::program::Program, tier: ExecTier) -> (Duration, u64) {
    let config = HvConfig {
        exec_tier: tier,
        ..HvConfig::default()
    };
    let start = Instant::now();
    let mut guest = HvGuest::new(image, CostModel::functional(), config);
    loop {
        match guest.run(SimDuration::from_secs(10)) {
            HvEvent::EpochEnd => guest.begin_epoch(),
            HvEvent::Diag { code: 1, .. } => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    (start.elapsed(), guest.stats().reflected)
}

/// Host time of one whole bare run of `image` on `host`.
fn timed_bare_run(host: &mut BareHost, image: &hvft_isa::program::Program) -> Duration {
    host.reset(image);
    let start = Instant::now();
    black_box(host.run(u64::MAX).retired);
    start.elapsed()
}

/// What one guest syscall costs the host: a `gate`, the twenty
/// instructions of the kernel's `SYS_GETTIME` path — seven of them
/// privileged — and the `rfi` back. Measured as a difference —
/// dhrystone with a syscall in every iteration minus the same
/// iterations with none — divided by the syscalls that makes.
///
/// `hvguest/…`: under the hypervisor, per replica: the `gate` reflected
/// into the guest kernel and the privileged instructions simulated,
/// inside the CPU's run loop (under the jit: as ops of the handler's
/// trace, the `gate`'s exit served by the op that met it). `bare/…`: on
/// the bare machine, where the privileged instructions execute natively
/// and only the `gate` and the `mftod` are exits (under the jit, served
/// in-frame too). The bare row is the control: before traces ran through
/// privileged instructions it cost three quarters of the hypervised one
/// with a quarter of the exits, which is how the fragmentation of the
/// handler into one-op traces — not the exits — showed as the cost.
fn bench_syscall_roundtrip(c: &mut Criterion) {
    const ITERS: u32 = 50_000;
    let kernel = KernelConfig::default();
    let every = build_image(&kernel, &dhrystone_source(ITERS, 1)).unwrap();
    let never = build_image(&kernel, &dhrystone_source(ITERS, 0)).unwrap();
    for tier in TIERS {
        let syscalls = timed_hv_run(&every, tier).1 - timed_hv_run(&never, tier).1;
        assert_eq!(syscalls, u64::from(ITERS));
        let mut g = c.benchmark_group("hvguest");
        g.throughput(Throughput::Elements(syscalls));
        g.bench_function(format!("syscall_roundtrip/{tier}"), |b| {
            b.iter_custom(|iters| {
                let mut with = Duration::ZERO;
                let mut without = Duration::ZERO;
                for _ in 0..iters {
                    with += timed_hv_run(&every, tier).0;
                    without += timed_hv_run(&never, tier).0;
                }
                with.saturating_sub(without)
            })
        });
        g.finish();
        let mut host = BareHost::new(
            &every,
            CostModel::functional(),
            hvft_guest::layout::RAM_BYTES,
            16,
            0,
        );
        host.set_exec_tier(tier);
        let mut g = c.benchmark_group("bare");
        g.throughput(Throughput::Elements(syscalls));
        g.bench_function(format!("syscall_roundtrip/{tier}"), |b| {
            b.iter_custom(|iters| {
                let mut with = Duration::ZERO;
                let mut without = Duration::ZERO;
                for _ in 0..iters {
                    with += timed_bare_run(&mut host, &every);
                    without += timed_bare_run(&mut host, &never);
                }
                with.saturating_sub(without)
            })
        });
        g.finish();
    }
}

/// The guest kernel's disk wait — closed by an unconditional jump,
/// `ssm`/`rsm` inside — entered at the `beq`, where an interrupt
/// returns to: the trace wraps around and ends one op short of its own
/// entry. Nanoseconds per spin iteration (`lw; beq`). The wait carries
/// nothing from one iteration into the next, so after one whole
/// iteration the jit retires the rest of the budget's iterations in one
/// step: this row prices a *skipped* wait (it kept its name). A trace
/// that left through `chain!` at its end, or a wait the jit stopped
/// skipping, shows here and nowhere else: everything still retires in
/// the jit.
///
/// `jit/spin_carried` is the same loop with a counter in its body: a
/// value carried from one iteration into the next, so every iteration
/// runs, op by op (`lw; addi; beq`).
fn bench_spin_entered_mid_body(c: &mut Criterion) {
    let mut g = c.benchmark_group("jit");
    for (name, body, per_iter) in [
        ("spin_entered_mid_body", "", 2),
        ("spin_carried", "addi r27, r27, 1\n", 3),
    ] {
        const SPINS: u64 = 1_000_000;
        const BEQ: u32 = 12;
        let prog = assemble(&format!(
            "retry: sw   r0, 0x400(r0)
                    ssm  1
             wait:  lw   r28, 0x400(r0)
                    {body}beq  r28, r0, wait
                    rsm  1
                    addi r29, r29, 1
                    jal  r0, retry"
        ))
        .unwrap();
        let mut mem = Memory::new(PAGE_SIZE as usize);
        let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
        prog.load_into_cpu(&mut cpu, &mut mem);
        cpu.set_exec_tier(ExecTier::Jit);
        let entry = BEQ + 4 * (per_iter - 2) as u32;
        // Past the promotion threshold, at this entry.
        for _ in 0..64 {
            cpu.pc = entry;
            assert_eq!(cpu.run(&mut mem, per_iter), Exit::Retired);
        }
        g.throughput(Throughput::Elements(SPINS));
        g.bench_function(name, |b| {
            b.iter(|| {
                cpu.pc = entry;
                black_box(cpu.run(black_box(&mut mem), per_iter * SPINS))
            })
        });
        let stats = cpu.exec_stats();
        assert!(
            stats.chain_hops * 100 < stats.jit_retired,
            "{name}: the spin left its frame: {stats:?}"
        );
        let skipping = stats.spin_skipped * 10 > stats.jit_retired * 9;
        assert_eq!(skipping, body.is_empty(), "{name}: {stats:?}");
    }
    g.finish();
}

/// Host time of `iters` iterations of the two-instruction loop `src`
/// closes — an infinite loop, run by budget — on a warm jit, with
/// translation on (identity-mapped) like the user code the workloads
/// spend their time in. `r27` is a data page for the loops that load
/// and store.
fn timed_op_loop(src: &str, insns_per_iter: u64, iters: u64) -> Duration {
    let prog = assemble(src).unwrap_or_else(|e| panic!("asm: {e}\n{src}"));
    let mut mem = Memory::new(4 * PAGE_SIZE as usize);
    let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
    prog.load_into_cpu(&mut cpu, &mut mem);
    cpu.set_exec_tier(ExecTier::Jit);
    cpu.set_reg(hvft_isa::reg::Reg::of(27), 2 * PAGE_SIZE);
    for base in (0..4).map(|page| page * PAGE_SIZE) {
        cpu.tlb
            .insert_pte(base, base | pte::V | pte::R | pte::W | pte::X);
    }
    cpu.psw.translation = true;
    // Past the promotion threshold of every entry the loop has.
    assert_eq!(cpu.run(&mut mem, 4_096), Exit::Retired);
    let start = Instant::now();
    assert_eq!(
        black_box(cpu.run(black_box(&mut mem), insns_per_iter * iters)),
        Exit::Retired
    );
    start.elapsed()
}

/// What `with` costs over `without`: the fastest of `rounds` runs of
/// each, alternated — a difference of two timings is only as good as
/// the slower phase of the machine either one met — times `rounds`,
/// the count the shim divides by.
fn difference<T: ?Sized>(
    rounds: u64,
    mut run: impl FnMut(&T) -> Duration,
    with: &T,
    without: &T,
) -> Duration {
    let (mut fastest_with, mut fastest_without) = (Duration::MAX, Duration::MAX);
    for _ in 0..rounds {
        fastest_with = fastest_with.min(run(with));
        fastest_without = fastest_without.min(run(without));
    }
    fastest_with.saturating_sub(fastest_without) * rounds as u32
}

/// Where a jit nanosecond goes: what one more op of each kind adds to
/// an iteration of a hot loop — the loop with the op minus the loop
/// without it (the fastest run of each, alternated), per iteration, on the bare CPU
/// under the jit.
///
/// `alu`, `load`, `store`: one `add`, `lw`, `sw` (to a data page).
/// `call_ret`: a `jal` into a leaf and its `jalr` back — the callee and
/// the return point are part of the caller's trace, the `jalr` a
/// guarded return. `hop`: two traces that end in a branch to each
/// other, so every iteration leaves one for the other. `syscall`: a
/// `SYS_GETTIME` on the bare machine — the `gate`, the kernel's twenty
/// instructions, the `rfi` — from a three-instruction user loop, minus
/// the loop alone. `mfctl/*`, `mftod/*`: one more of that instruction
/// in the kernel's path, bare and hypervised (the slope over eight).
fn bench_op_prices(c: &mut Criterion) {
    const ITERS: u64 = 200_000;
    let empty = "l: addi r4, r4, 1\n jal r0, l\n";
    let mut g = c.benchmark_group("jit/op");
    g.throughput(Throughput::Elements(ITERS));
    for (op, src, insns) in [
        ("alu", "l: addi r4, r4, 1\n add r6, r6, r4\n jal r0, l\n", 3),
        (
            "load",
            "l: addi r4, r4, 1\n lw r6, 64(r27)\n jal r0, l\n",
            3,
        ),
        (
            "store",
            "l: addi r4, r4, 1\n sw r4, 64(r27)\n jal r0, l\n",
            3,
        ),
        (
            "call_ret",
            "l: addi r4, r4, 1\n jal ra, f\n jal r0, l\n f: jalr r0, ra, 0\n",
            4,
        ),
        // Per iteration: one `addi`, one taken branch, one hop — the
        // empty loop's two instructions, and the hop.
        (
            "hop",
            "l: addi r4, r4, 1\n beq r0, r0, m\n halt\n m: addi r4, r4, 1\n beq r0, r0, l\n halt\n",
            2,
        ),
    ] {
        g.bench_function(op, |b| {
            b.iter_custom(|rounds| {
                let run = |&(src, insns): &(&str, u64)| timed_op_loop(src, insns, ITERS);
                difference(rounds, run, &(src, insns), &(empty, 2))
            })
        });
    }
    g.finish();
    const SYSCALLS: u32 = 50_000;
    let user = |body: &str| {
        format!(
            ".org {:#x}\nu_main: li r11, {SYSCALLS}\nu_loop:\n{body}    addi r11, r11, -1\n    \
             bne r11, r0, u_loop\n    mv r4, r0\n    gate {}\n",
            hvft_guest::layout::USER_TEXT,
            hvft_guest::layout::sys::EXIT
        )
    };
    let kernel = KernelConfig::default();
    let gettime = format!("    gate {}\n", hvft_guest::layout::sys::GETTIME);
    let every = build_image(&kernel, &user(&gettime)).unwrap();
    let never = build_image(&kernel, &user("")).unwrap();
    let mut host = BareHost::new(
        &every,
        CostModel::functional(),
        hvft_guest::layout::RAM_BYTES,
        16,
        0,
    );
    host.set_exec_tier(ExecTier::Jit);
    let mut g = c.benchmark_group("jit/op");
    g.throughput(Throughput::Elements(u64::from(SYSCALLS)));
    g.bench_function("syscall", |b| {
        b.iter_custom(|rounds| {
            difference(
                rounds,
                |image| timed_bare_run(&mut host, image),
                &every,
                &never,
            )
        })
    });
    g.finish();
    // The same loop with eight more of one privileged instruction in the
    // handler's `SYS_GETTIME` path, minus the path as it is, per
    // instruction added: bare, where a privilege-0 `mfctl` is a register
    // move and an `mftod` an exit served in-frame, and hypervised, where
    // both are simulated.
    const MORE: u32 = 8;
    let with_more = |extra: &str| {
        let base = hvft_guest::kernel_source(&kernel);
        let path = "k_sys_gettime:\n    mftod r4\n";
        let longer = base.replace(path, &format!("{path}{}", extra.repeat(MORE as usize)));
        assert_ne!(longer, base, "the handler's path is where it was");
        assemble(&format!("{longer}\n{}", user(&gettime))).unwrap()
    };
    let mut g = c.benchmark_group("jit/op");
    g.throughput(Throughput::Elements(u64::from(MORE * SYSCALLS)));
    for (op, extra) in [
        ("mfctl", "    mfctl r29, traparg\n"),
        ("mftod", "    mftod r29\n"),
    ] {
        let more = with_more(extra);
        g.bench_function(format!("{op}/bare"), |b| {
            b.iter_custom(|rounds| {
                difference(
                    rounds,
                    |image| timed_bare_run(&mut host, image),
                    &more,
                    &every,
                )
            })
        });
        g.bench_function(format!("{op}/hvguest"), |b| {
            b.iter_custom(|rounds| {
                let run = |image: &_| timed_hv_run(image, ExecTier::Jit).0;
                difference(rounds, run, &more, &every)
            })
        });
    }
    g.finish();
}

/// The epoch-boundary digest of a booted 256 KiB guest: every line
/// hashed (what the first boundary after a boot or restore pays),
/// nothing written (the register fold and the scan of the line marks),
/// one byte on each of 1 and 13 pages written since the last call, and
/// `repl-mem`'s epoch: its memory sweep writes 48 words, four on each
/// of 12 pages at stride `0x404`, so on 48 lines.
fn bench_statehash(c: &mut Criterion) {
    let image = build_image(&KernelConfig::default(), &dhrystone_source(100, 0)).unwrap();
    let mut host = BareHost::new(
        &image,
        CostModel::hp9000_720(),
        hvft_guest::layout::RAM_BYTES,
        16,
        0,
    );
    host.run(100_000_000);
    let mut g = c.benchmark_group("statehash");
    g.throughput(Throughput::Bytes(hvft_guest::layout::RAM_BYTES as u64));
    g.bench_function("cold_256k", |b| {
        b.iter(|| black_box(vm_state_hash_from_scratch(&host.cpu, black_box(&host.mem))))
    });
    g.finish();
    // The warm rows read a few pages, not all of RAM: no byte rate.
    let mut g = c.benchmark_group("statehash");
    g.bench_function("warm_clean", |b| {
        b.iter(|| black_box(vm_state_hash(&host.cpu, black_box(&host.mem))))
    });
    for dirty in [1u32, 13] {
        let mut fill = 0u8;
        g.bench_function(format!("warm_dirty_{dirty}_pages"), |b| {
            b.iter(|| {
                fill = fill.wrapping_add(1);
                for page in 0..dirty {
                    host.mem.write_u8((40 + page) * PAGE_SIZE, fill).unwrap();
                }
                black_box(vm_state_hash(&host.cpu, &host.mem))
            })
        });
    }
    let mut fill = 0u32;
    g.bench_function("warm_dirty_48_words", |b| {
        b.iter(|| {
            fill = fill.wrapping_add(1);
            for word in 0..48 {
                host.mem.write_u32(0x20000 + word * 0x404, fill).unwrap();
            }
            black_box(vm_state_hash(&host.cpu, &host.mem))
        })
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let image = build_image(&KernelConfig::default(), &dhrystone_source(5_000, 0)).unwrap();
    // One host, reset per iteration: the benchmark measures execution,
    // not RAM/device allocation. The warm-up run doubles as the
    // retired-instruction count for throughput reporting.
    let mut host = BareHost::new(
        &image,
        CostModel::hp9000_720(),
        hvft_guest::layout::RAM_BYTES,
        16,
        0,
    );
    let retired = host.run(100_000_000).retired;
    let mut g = c.benchmark_group("interpreter");
    g.throughput(Throughput::Elements(retired));
    g.sample_size(20);
    // "before": the per-instruction engine, for the speedup record.
    // set_exec_tier on the host survives reset(), so each iteration
    // re-boots into the same tier.
    host.set_exec_tier(ExecTier::Step);
    g.bench_function("bare_dhrystone_5k_iters_step", |b| {
        b.iter(|| {
            host.reset(&image);
            black_box(host.run(100_000_000).retired)
        })
    });
    // The threaded-code superblock jit, same harness. Each iteration
    // re-boots cold (empty cache), so compile + warm-up cost is inside
    // the measurement.
    host.set_exec_tier(ExecTier::Jit);
    g.bench_function("bare_dhrystone_5k_iters_jit", |b| {
        b.iter(|| {
            host.reset(&image);
            black_box(host.run(100_000_000).retired)
        })
    });
    g.finish();
    // Call-heavy guest: leaf calls, calls into the next text page and a
    // deep monomorphic recursion. This is where the jit tier's two-way
    // return links and cross-page traces pay off.
    let cs_image = build_image(&KernelConfig::default(), &callstorm_source(2_000, 12)).unwrap();
    let cs_retired = {
        host.reset(&cs_image);
        host.run(100_000_000).retired
    };
    let mut g = c.benchmark_group("interpreter");
    g.throughput(Throughput::Elements(cs_retired));
    g.sample_size(20);
    g.bench_function("bare_callstorm_2k_iters_jit", |b| {
        b.iter(|| {
            host.reset(&cs_image);
            black_box(host.run(100_000_000).retired)
        })
    });
    // Annotate the jit row with the return links' hit rate and trace
    // shape of the last run, so the artifact records *why* it is fast.
    let cs = host.exec_stats();
    let ret_total = cs.ret_cache_hits + cs.ret_cache_misses;
    if ret_total > 0 {
        g.annotate(
            "ret_cache_hit_rate",
            cs.ret_cache_hits as f64 / ret_total as f64,
        );
    }
    g.annotate("cross_page_superblocks", cs.cross_page_superblocks as f64);
    g.finish();
    // Machine-readable record (ns/insn, insns/sec, before/after, and
    // the statehash, exit_roundtrip, syscall_roundtrip, spin and
    // `jit/op` price-list rows recorded before this group ran) for the CI artifact; written at
    // the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interpreter.json");
    c.save_json(out)
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}

fn bench_assembler(c: &mut Criterion) {
    let src = hvft_guest::kernel_source(&KernelConfig::default());
    let mut g = c.benchmark_group("assembler");
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("assemble_kernel", |b| {
        b.iter(|| black_box(hvft_isa::asm::assemble(black_box(&src)).unwrap()))
    });
    g.finish();
}

fn bench_channel(c: &mut Criterion) {
    c.bench_function("channel_send_pop", |b| {
        b.iter(|| {
            let mut ch: Lan<u64> = Lan::point_to_point(LinkSpec::ethernet_10mbps(), 2, 0);
            let mut t = SimTime::ZERO;
            for i in 0..100u64 {
                if let Some(d) = ch.send(t, 0, 1, 64, i) {
                    t = d;
                }
            }
            let mut got = 0;
            while ch
                .pop_ready(SimTime::MAX - hvft_sim::time::SimDuration::from_secs(1))
                .is_some()
            {
                got += 1;
            }
            black_box(got)
        })
    });
}

fn bench_tlb(c: &mut Criterion) {
    c.bench_function("tlb_lookup_hit", |b| {
        let mut tlb = Tlb::new(64, TlbReplacement::RoundRobin, 0);
        for vpn in 0..64 {
            tlb.insert_pte(vpn << 12, (vpn << 12) | pte::V | pte::R | pte::W | pte::X);
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(tlb.lookup(i << 12, TlbAccess::Read, false))
        })
    });
}

criterion_group!(
    benches,
    bench_statehash,
    bench_exit_roundtrip,
    bench_syscall_roundtrip,
    bench_spin_entered_mid_body,
    bench_op_prices,
    bench_interpreter,
    bench_assembler,
    bench_channel,
    bench_tlb
);
criterion_main!(benches);
