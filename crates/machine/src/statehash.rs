//! Virtual-machine state digest for lockstep divergence detection.
//!
//! The paper defines the *virtual-machine state* as "the memory and
//! registers that change only with execution of instructions by that
//! virtual machine" — general registers, PC, PSW, address-translation
//! state and main memory — and explicitly excludes the time-of-day clock,
//! interval timer and I/O state (§2.1). The replica-coordination
//! protocols guarantee this state is identical at the primary and backup
//! at every epoch boundary; digesting it is how the test suite (and the
//! `lockstep` checker in `hvft-core`) verifies that guarantee.
//!
//! # Definition
//!
//! There is one definition, [`vm_state_hash`]:
//!
//! 1. fold the general registers, PC, packed PSW and the hashed control
//!    registers, in that order, through `mix`;
//! 2. then, for every page of RAM in ascending order, fold in the page
//!    index and the page's digest.
//!
//! A page digest reads the page as little-endian 8-byte words dealt
//! round-robin onto four independent `mix` chains (a chain is
//! order-sensitive, the chains are seeded apart and joined in a fixed
//! order, so the digest is position-sensitive), plus the page's length
//! for a partial last page. `mix(h, w)` — xor, multiply by an odd
//! constant, xor-shift — is a bijection in either argument with the other
//! held fixed. Hence changing any single word of any page *always*
//! changes its chain, its page digest and the final hash; larger
//! differences collide with probability about 2⁻⁶⁴. The digest is not
//! cryptographic: replicas are faulty, not adversarial.
//!
//! # Incremental evaluation
//!
//! The value is a pure function of (hashed registers, RAM bytes). What is
//! incremental is only its evaluation: [`Memory`] caches each page's
//! digest against that page's write generation — the counter every store
//! path already bumps for self-modifying-code detection — so a boundary
//! rehashes just the pages the epoch wrote. Generations, write history,
//! execution tier and cache warmth never reach the value;
//! [`vm_state_hash_from_scratch`] ignores the cache and is what the
//! tests hold the cached evaluation to.

use crate::cpu::Cpu;
use crate::mem::Memory;
use hvft_isa::reg::ControlReg;

/// One step of every fold in this module. For fixed `w` it permutes `h`
/// and for fixed `h` it permutes `w` (xor, odd multiply and xor-shift are
/// each invertible), so a difference entering a fold can never cancel on
/// its own.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// Digest of one page of RAM (see the module docs). `bytes` is a whole
/// page, or the shorter tail of a RAM that is not a multiple of the page
/// size.
pub(crate) fn page_digest(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    // Four chains keep four multiplies in flight; one chain would wait
    // out the multiplier's latency on every word.
    let mut lanes = [
        0x243F_6A88_85A3_08D3_u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    }
    let mut h = bytes.len() as u64;
    for w in blocks.remainder().chunks(8) {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        h = mix(h, word(&padded));
    }
    lanes.into_iter().fold(h, mix)
}

/// Control registers included in the VM state.
///
/// `rctr` is excluded (owned by the hypervisor for epoch control) and
/// `eirr` is *included*: under the protocols, interrupt assertions happen
/// at identical instruction-stream points on both replicas, so their
/// pending sets must match at epoch boundaries.
const HASHED_CTL: [ControlReg; 9] = [
    ControlReg::Iva,
    ControlReg::Ipsw,
    ControlReg::Iip,
    ControlReg::Eiem,
    ControlReg::Eirr,
    ControlReg::Ptbr,
    ControlReg::TrapArg,
    ControlReg::Scratch0,
    ControlReg::Scratch1,
];

/// Folds the register part of the VM state: general registers, PC,
/// PSW and the [`HASHED_CTL`] control registers.
fn register_digest(cpu: &Cpu) -> u64 {
    let ctl = HASHED_CTL.iter().map(|&cr| cpu.ctl(cr));
    cpu.regs()
        .iter()
        .copied()
        .chain([cpu.pc, cpu.psw.pack()])
        .chain(ctl)
        .fold(0, |h, v| mix(h, u64::from(v)))
}

/// The one fold behind both evaluations: registers, then
/// `(page index, page digest)` in ascending page order.
fn fold_state(cpu: &Cpu, page_digests: impl Iterator<Item = u64>) -> u64 {
    page_digests
        .enumerate()
        .fold(register_digest(cpu), |h, (page, digest)| {
            mix(mix(h, page as u64), digest)
        })
}

/// Digest of the complete virtual-machine state (registers + PSW +
/// hashed control registers + all of RAM). Only pages written since
/// they were last digested are read; the value does not depend on that.
///
/// # Examples
///
/// ```
/// use hvft_machine::cpu::Cpu;
/// use hvft_machine::mem::Memory;
/// use hvft_machine::statehash::{vm_state_hash, vm_state_hash_from_scratch};
/// use hvft_machine::tlb::TlbReplacement;
///
/// let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
/// let mut mem = Memory::new(8192);
/// let h1 = vm_state_hash(&cpu, &mem);
/// assert_eq!(h1, vm_state_hash(&cpu, &mem));
/// mem.write_u8(5000, 1).unwrap();
/// let h2 = vm_state_hash(&cpu, &mem);
/// assert_ne!(h1, h2);
/// assert_eq!(h2, vm_state_hash_from_scratch(&cpu, &mem));
/// ```
pub fn vm_state_hash(cpu: &Cpu, mem: &Memory) -> u64 {
    fold_state(cpu, (0..mem.page_count()).map(|p| mem.page_digest(p)))
}

/// [`vm_state_hash`] evaluated with every page treated as stale: reads
/// all of RAM, neither consults nor fills the digest cache. The
/// reference the incremental evaluation is tested against.
pub fn vm_state_hash_from_scratch(cpu: &Cpu, mem: &Memory) -> u64 {
    let pages = (0..mem.page_count()).map(|p| page_digest(mem.page_bytes(p)));
    fold_state(cpu, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::TlbReplacement;
    use hvft_isa::reg::Reg;

    fn fresh() -> (Cpu, Memory) {
        (
            Cpu::new(8, TlbReplacement::RoundRobin, 0),
            Memory::new(4096),
        )
    }

    #[test]
    fn identical_states_hash_equal() {
        let (a_cpu, a_mem) = fresh();
        let (b_cpu, b_mem) = fresh();
        assert_eq!(vm_state_hash(&a_cpu, &a_mem), vm_state_hash(&b_cpu, &b_mem));
    }

    #[test]
    fn register_difference_changes_hash() {
        let (mut a, mem) = fresh();
        let base = vm_state_hash(&a, &mem);
        a.set_reg(Reg::of(5), 1);
        assert_ne!(vm_state_hash(&a, &mem), base);
    }

    #[test]
    fn memory_difference_changes_hash() {
        let (cpu, mut mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        mem.write_u8(100, 1).unwrap();
        assert_ne!(vm_state_hash(&cpu, &mem), base);
    }

    #[test]
    fn pc_difference_changes_hash() {
        let (mut cpu, mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        cpu.pc = 4;
        assert_ne!(vm_state_hash(&cpu, &mem), base);
    }

    #[test]
    fn rctr_is_excluded() {
        // The recovery counter belongs to the hypervisor, not the VM state.
        let (mut cpu, mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        cpu.set_ctl(hvft_isa::reg::ControlReg::Rctr, 12345);
        assert_eq!(vm_state_hash(&cpu, &mem), base);
    }

    #[test]
    fn tlb_is_excluded() {
        // With hypervisor-managed TLBs (the paper's fix), TLB contents may
        // legitimately differ between replicas.
        let (mut cpu, mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        cpu.tlb.insert_pte(0x5000, 0x3017);
        assert_eq!(vm_state_hash(&cpu, &mem), base);
    }

    #[test]
    fn page_digest_is_position_and_length_sensitive() {
        let mut page = vec![0u8; 4096];
        let zero = page_digest(&page);
        // The same byte value at two offsets of one lane, and at the
        // same offset of two lanes.
        let at = |page: &mut Vec<u8>, i: usize| {
            page[i] = 7;
            let d = page_digest(page);
            page[i] = 0;
            d
        };
        let (a, b, c) = (at(&mut page, 0), at(&mut page, 32), at(&mut page, 8));
        assert!(a != zero && b != zero && c != zero);
        assert!(a != b && a != c && b != c);
        // A short tail page: trailing zeros are not padding.
        assert_ne!(page_digest(&[0; 40]), page_digest(&[0; 41]));
        assert_ne!(page_digest(&[0; 41]), page_digest(&[0; 48]));
        let mut tail = [0u8; 41];
        tail[40] = 1;
        assert_ne!(page_digest(&tail), page_digest(&[0; 41]));
    }

    #[test]
    fn cached_and_from_scratch_agree_on_a_partial_last_page() {
        let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
        let mut mem = Memory::new(4096 + 100);
        let cold = vm_state_hash(&cpu, &mem);
        mem.write_u8(4096 + 99, 9).unwrap();
        let warm = vm_state_hash(&cpu, &mem);
        assert_ne!(cold, warm);
        assert_eq!(warm, vm_state_hash_from_scratch(&cpu, &mem));
    }
}
