//! The miniature guest operating system.
//!
//! Plays the role HP-UX plays in the paper: an unmodified OS that boots,
//! fields timer interrupts, runs a user program at privilege 3, and
//! drives the disk through a driver that honours the IO1/IO2 contract
//! (§2.2) — in particular, it **retries any operation whose interrupt
//! reported an uncertain outcome**, which is the behaviour rule P7
//! exploits during failover.
//!
//! The kernel is oblivious to the hypervisor: it is assembled once and
//! runs unchanged on the bare machine and under replication, exactly as
//! the paper requires ("does not require modifying ... the operating
//! system").

use crate::layout::{
    kdata, IVA_BASE, KERNEL_TEXT, MAPPED_PAGES, PAGE_TABLE, USER_FIRST_PAGE, USER_LAST_PAGE,
    USER_TEXT,
};
use hvft_devices::mmio;

/// Tunables of the guest kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Interval-timer period in microseconds (HP-UX ticked at 100 Hz;
    /// default 10 000 µs).
    pub tick_period_us: u32,
    /// Privileged clock reads performed per tick, modelling HP-UX's
    /// clock/callout processing. The paper's CPU workload implies ≈ 119
    /// hypervisor-simulated instructions per 10 ms tick (nsim ≈ 105 000
    /// over 880 ticks).
    pub tick_work: u32,
    /// Whether to arm the interval timer at boot.
    pub arm_timer: bool,
    /// Privileged instructions executed in the disk-driver path per
    /// operation, modelling the HP-UX raw-I/O path whose simulated
    /// instructions dominate the paper's `cpu(EL)` term (§4.2). Zero
    /// keeps the driver minimal (functional tests).
    pub io_work_priv: u32,
    /// Ordinary three-instruction loop iterations in the driver path
    /// per operation (buffer management, copies).
    pub io_work_ord: u32,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tick_period_us: 10_000,
            tick_work: 119,
            arm_timer: true,
            io_work_priv: 0,
            io_work_ord: 0,
        }
    }
}

/// Emits the kernel assembly source. Append a user program (which must
/// `.org` itself at `USER_TEXT` (see [`crate::layout`]) and label its
/// entry `u_main`) and assemble the concatenation.
pub fn kernel_source(cfg: &KernelConfig) -> String {
    let io_base: u32 = 0xF000_0000;
    let disk_block = io_base + mmio::DISK_REG_BLOCK;
    let disk_status = io_base + mmio::DISK_REG_STATUS;
    let cons_tx = io_base + mmio::CONSOLE_REG_TX;
    let v = |n: u32| IVA_BASE + 32 * n;

    let mut s = String::new();
    s.push_str(&format!(
        "; ---- hvft guest kernel (generated) ----
.equ KD_TICKS,      {ticks:#x}
.equ KD_DISK_DONE,  {done_flag:#x}
.equ KD_DISK_ST,    {disk_st:#x}
.equ KD_SAVED_IPSW, {saved_ipsw:#x}
.equ KD_SAVED_IIP,  {saved_iip:#x}
.equ KD_TICK_PER,   {tick_per:#x}
.equ KD_S_R28,      {s_r28:#x}
.equ KD_S_R29,      {s_r29:#x}
.equ KD_S_R30,      {s_r30:#x}
.equ KD_S_R31,      {s_r31:#x}
.equ KD_EXIT,       {exit:#x}
.equ KD_RETRIES,    {retries:#x}
.equ PT_BASE,       {pt:#x}

.entry k_boot

; ---- interrupt vector table (32 bytes per vector) ----
.org {v1:#x}
    j k_fatal_illegal
.org {v2:#x}
    j k_fatal_priv
.org {v3:#x}
    j k_tlbmiss
.org {v4:#x}
    j k_fatal_access
.org {v5:#x}
    j k_fatal_align
.org {v6:#x}
    j k_fatal_arith
.org {v7:#x}
    j k_gate
.org {v8:#x}
    j k_fatal_brk
.org {v9:#x}
    j k_fatal_recovery
.org {v10:#x}
    j k_irq

.org {ktext:#x}
",
        ticks = kdata::TICKS,
        done_flag = kdata::DISK_DONE,
        disk_st = kdata::DISK_ST,
        saved_ipsw = kdata::SAVED_IPSW,
        saved_iip = kdata::SAVED_IIP,
        tick_per = kdata::TICK_PERIOD,
        s_r28 = kdata::S_R28,
        s_r29 = kdata::S_R29,
        s_r30 = kdata::S_R30,
        s_r31 = kdata::S_R31,
        exit = kdata::EXIT_CODE,
        retries = kdata::RETRIES,
        pt = PAGE_TABLE,
        v1 = v(1),
        v2 = v(2),
        v3 = v(3),
        v4 = v(4),
        v5 = v(5),
        v6 = v(6),
        v7 = v(7),
        v8 = v(8),
        v9 = v(9),
        v10 = v(10),
        ktext = KERNEL_TEXT,
    ));

    // ---- boot ----
    s.push_str(&format!(
        "k_boot:
    ; interrupt vector base
    addi r4, r0, {iva:#x}
    mtctl iva, r4
    ; build the page table: identity-map pages 0..{pages}, user bit on
    ; pages {ufirst:#x}..{ulast:#x}
    addi r5, r0, 0              ; vpn
    li   r6, PT_BASE
k_pt_loop:
    slli r7, r5, 12             ; pfn << 12
    ori  r7, r7, 0xF            ; V|R|W|X
    slti r8, r5, {ufirst:#x}
    bne  r8, r0, k_pt_nouser
    slti r8, r5, {ulast:#x}
    beq  r8, r0, k_pt_nouser
    ori  r7, r7, 0x10           ; U
k_pt_nouser:
    slli r9, r5, 2
    add  r9, r9, r6
    sw   r7, 0(r9)
    addi r5, r5, 1
    slti r8, r5, {pages}
    bne  r8, r0, k_pt_loop
    mtctl ptbr, r6
    ; enable timer + disk interrupts
    addi r4, r0, 3
    mtctl eiem, r4
    ; zero kernel counters
    sw r0, KD_TICKS(r0)
    sw r0, KD_DISK_DONE(r0)
    sw r0, KD_RETRIES(r0)
    sw r0, KD_EXIT(r0)
",
        iva = IVA_BASE,
        pages = MAPPED_PAGES,
        ufirst = USER_FIRST_PAGE,
        ulast = USER_LAST_PAGE,
    ));
    if cfg.arm_timer {
        s.push_str(&format!(
            "    li r4, {period}
    sw r4, KD_TICK_PER(r0)
    mtit r4
",
            period = cfg.tick_period_us
        ));
    }
    s.push_str(&format!(
        "    ; drop to the user program: cpl=3, interrupts on, translation on
    addi r4, r0, 0xF
    mtctl ipsw, r4
    li   r4, {utext:#x}
    mtctl iip, r4
    rfi

",
        utext = USER_TEXT
    ));

    // ---- fatal traps ----
    s.push_str(
        "k_fatal_illegal:
    addi r29, r0, 1
    b k_fatal
k_fatal_priv:
    addi r29, r0, 2
    b k_fatal
k_fatal_access:
    addi r29, r0, 3
    b k_fatal
k_fatal_align:
    addi r29, r0, 4
    b k_fatal
k_fatal_arith:
    addi r29, r0, 5
    b k_fatal
k_fatal_brk:
    addi r29, r0, 6
    b k_fatal
k_fatal_recovery:
    addi r29, r0, 7
    b k_fatal
k_fatal_nomap:
    addi r29, r0, 8
    b k_fatal
k_fatal_badsys:
    addi r29, r0, 9
k_fatal:
    sw   r29, KD_EXIT(r0)
    diag r29, 3
    halt

",
    );

    // ---- TLB miss handler (software-managed TLB, like PA-RISC) ----
    s.push_str(
        "k_tlbmiss:
    sw r30, KD_S_R30(r0)
    sw r31, KD_S_R31(r0)
    mfctl r30, traparg
    srli r31, r30, 12
    slli r31, r31, 2
    ori  r31, r31, PT_BASE
    lw   r31, 0(r31)
    andi r30, r31, 1
    beq  r30, r0, k_fatal_nomap
    mfctl r30, traparg
    tlbi r30, r31
    lw r30, KD_S_R30(r0)
    lw r31, KD_S_R31(r0)
    rfi

",
    );

    // ---- syscall (gate) dispatcher ----
    s.push_str(
        "k_gate:
    ; save the interrupted context: the disk driver re-enables
    ; interrupts while waiting, which overwrites ipsw/iip
    mfctl r30, ipsw
    sw    r30, KD_SAVED_IPSW(r0)
    mfctl r30, iip
    sw    r30, KD_SAVED_IIP(r0)
    mfctl r29, traparg
    addi r28, r0, 1
    beq  r29, r28, k_sys_putc
    addi r28, r0, 2
    beq  r29, r28, k_sys_gettime
    addi r28, r0, 3
    beq  r29, r28, k_sys_read
    addi r28, r0, 4
    beq  r29, r28, k_sys_write
    addi r28, r0, 5
    beq  r29, r28, k_sys_exit
    addi r28, r0, 6
    beq  r29, r28, k_sys_mark
    addi r28, r0, 7
    beq  r29, r28, k_sys_getticks
    b    k_fatal_badsys

k_sys_ret:
    lw r30, KD_SAVED_IPSW(r0)
    mtctl ipsw, r30
    lw r30, KD_SAVED_IIP(r0)
    mtctl iip, r30
    rfi

",
    );

    s.push_str(&format!(
        "k_sys_putc:
    li r26, {cons_tx:#x}
    sw r4, 0(r26)
    b  k_sys_ret

k_sys_gettime:
    mftod r4
    b  k_sys_ret

k_sys_getticks:
    lw r4, KD_TICKS(r0)
    b  k_sys_ret

k_sys_mark:
    diag r4, 2
    b  k_sys_ret

k_sys_exit:
    sw   r4, KD_EXIT(r0)
    diag r4, 1
    halt

",
        cons_tx = cons_tx
    ));

    // ---- disk driver: issue, wait for interrupt, retry on uncertain ----
    let mut driver_work = String::new();
    if cfg.io_work_priv > 0 {
        driver_work.push_str(&format!(
            "    ; driver path (privileged): models HP-UX's raw-I/O kernel work
    li r28, {n}
k_io_priv_loop:
    mftod r29
    addi r28, r28, -1
    bne  r28, r0, k_io_priv_loop
",
            n = cfg.io_work_priv
        ));
    }
    if cfg.io_work_ord > 0 {
        driver_work.push_str(&format!(
            "    ; driver path (ordinary): buffer management and copies
    li r28, {n}
k_io_ord_loop:
    xor  r29, r29, r28
    addi r28, r28, -1
    bne  r28, r0, k_io_ord_loop
",
            n = cfg.io_work_ord
        ));
    }
    s.push_str(&format!(
        "k_sys_read:
    addi r27, r0, {cmd_read}
    b    k_disk_op
k_sys_write:
    addi r27, r0, {cmd_write}
k_disk_op:
    li r26, {disk_block:#x}
{driver_work}k_disk_retry:
    sw r0,  KD_DISK_DONE(r0)
    sw r4,  0(r26)              ; block register
    sw r5,  4(r26)              ; DMA address register
    sw r27, 8(r26)              ; GO
    ssm 1                       ; take interrupts while waiting
k_disk_wait:
    lw  r28, KD_DISK_DONE(r0)
    beq r28, r0, k_disk_wait
    rsm 1
    lw   r28, KD_DISK_ST(r0)
    addi r29, r0, {st_done}
    beq  r28, r29, k_sys_ret
    ; IO2: uncertain outcome — the operation may or may not have been
    ; performed; repeat it (the environment tolerates repetition)
    lw   r28, KD_RETRIES(r0)
    addi r28, r28, 1
    sw   r28, KD_RETRIES(r0)
    b    k_disk_retry

",
        cmd_read = mmio::disk_cmd::READ,
        cmd_write = mmio::disk_cmd::WRITE,
        disk_block = disk_block,
        driver_work = driver_work,
        st_done = mmio::disk_status::DONE,
    ));

    // ---- external interrupt handler ----
    s.push_str(
        "k_irq:
    sw r28, KD_S_R28(r0)
    sw r29, KD_S_R29(r0)
    sw r30, KD_S_R30(r0)
    mfctl r30, eirr
    andi r29, r30, 1            ; interval timer?
    beq  r29, r0, k_irq_disk
    lw   r28, KD_TICKS(r0)
    addi r28, r28, 1
    sw   r28, KD_TICKS(r0)
    addi r29, r0, 1
    mtctl eirr, r29             ; acknowledge
",
    );
    if cfg.tick_work > 0 {
        s.push_str(&format!(
            "    ; clock/callout processing: {n} privileged clock reads
    li r28, {n}
k_tick_work:
    mftod r29
    addi r28, r28, -1
    bne  r28, r0, k_tick_work
",
            n = cfg.tick_work
        ));
    }
    if cfg.arm_timer {
        s.push_str(
            "    lw r28, KD_TICK_PER(r0)
    mtit r28                    ; re-arm
",
        );
    }
    s.push_str(&format!(
        "k_irq_disk:
    andi r29, r30, 2            ; disk?
    beq  r29, r0, k_irq_done
    li   r28, {disk_status:#x}
    lw   r29, 0(r28)            ; completion status from the controller
    sw   r29, KD_DISK_ST(r0)
    addi r28, r0, 1
    sw   r28, KD_DISK_DONE(r0)
    addi r29, r0, 2
    mtctl eirr, r29             ; acknowledge
k_irq_done:
    lw r28, KD_S_R28(r0)
    lw r29, KD_S_R29(r0)
    lw r30, KD_S_R30(r0)
    rfi

",
        disk_status = disk_status
    ));

    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_isa::asm::assemble;

    #[test]
    fn kernel_assembles() {
        let src = kernel_source(&KernelConfig::default());
        let prog = assemble(&src).unwrap_or_else(|e| panic!("kernel asm error: {e}"));
        assert_eq!(prog.entry, prog.symbol("k_boot").unwrap());
        assert!(prog.symbol("k_gate").is_some());
        assert!(prog.symbol("k_irq").is_some());
        assert!(prog.symbol("k_tlbmiss").is_some());
    }

    #[test]
    fn kernel_fits_below_page_table() {
        let src = kernel_source(&KernelConfig::default());
        let prog = assemble(&src).unwrap();
        for seg in &prog.segments {
            assert!(
                seg.end() <= crate::layout::PAGE_TABLE,
                "kernel segment ends at {:#x}, beyond the page table",
                seg.end()
            );
        }
    }

    #[test]
    fn no_tick_work_variant_assembles() {
        let cfg = KernelConfig {
            tick_work: 0,
            arm_timer: false,
            ..KernelConfig::default()
        };
        assert!(assemble(&kernel_source(&cfg)).is_ok());
    }

    #[test]
    fn vectors_land_in_ivt() {
        let src = kernel_source(&KernelConfig::default());
        let prog = assemble(&src).unwrap();
        // The first segment should start at the IVT, inside page 0.
        assert!(prog.segments[0].base >= IVA_BASE);
        assert!(prog.segments[0].base < KERNEL_TEXT);
    }
}
