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
//!    registers, in that order and paired into 8-byte words, through
//!    four `mix` chains — the register digest;
//! 2. for every 128-byte line of RAM ([`LINE_SIZE`]), take its *term*
//!    `mix(key(index), line_digest(bytes))`, and add the terms up with
//!    wrapping addition — the RAM sum;
//! 3. the hash is `mix(register digest, RAM sum)`.
//!
//! A line digest reads the line as little-endian 8-byte words dealt
//! round-robin onto four independent `mix` chains: a chain is
//! order-sensitive, and the chains are seeded apart and joined in a fixed
//! order, so the digest is position-sensitive within the line. The first
//! chain starts from the line's length, and a partial last line's last
//! word is padded with zeros. `mix(h, w)` — xor, multiply by an odd
//! constant, xor-shift — is a bijection in either argument with the other
//! held fixed.
//!
//! Addition does not care about order, so a sum of bare line digests
//! could not tell a state from the same lines in other places. The key
//! is what keeps the sum position-sensitive: a term mixes the line's
//! digest with a key drawn from the line's *index*, so the same bytes
//! at another line make another term. For a fixed key a term is a
//! bijection of the digest, and adding a fixed rest is a bijection of
//! the term; hence changing any single word of any line *always*
//! changes its line digest, its term, the RAM sum and the final hash.
//! Two lines swapped, or any larger difference, collide only if
//! unrelated terms happen to cancel, with probability about 2⁻⁶⁴. The
//! digest is not cryptographic: replicas are faulty, not adversarial.
//!
//! # Incremental evaluation
//!
//! The value is a pure function of (hashed registers, RAM bytes). What is
//! incremental is only its evaluation: every RAM write path marks the
//! lines it lands on, and [`Memory`] keeps each line's term and their
//! sum. A boundary rereads only the marked lines and swaps each one's
//! old term in the sum for its new one, so it costs in proportion to the
//! bytes the epoch wrote, not the pages it touched, and a boundary with
//! nothing written reads no RAM at all. Marks, write history, execution
//! tier and cache warmth never reach the value;
//! [`vm_state_hash_from_scratch`] ignores the cache and is what the
//! tests hold the cached evaluation to.

use crate::cpu::Cpu;
use crate::mem::{Memory, LINE_SIZE};
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

/// Seeds of the four `mix` chains every multi-word fold here deals its
/// words onto, round-robin: four chains keep four multiplies in
/// flight, where one chain would wait out the multiplier's latency on
/// every word.
const LANES: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// Joins the four chains in a fixed order: a bijection in each chain
/// with the other three held fixed, in two steps instead of four.
fn join([a, b, c, d]: [u64; 4]) -> u64 {
    mix(mix(a, b), mix(c, d))
}

/// Digest of one line of RAM (see the module docs). `bytes` is a whole
/// line, or the shorter tail of a RAM that is not a multiple of the line
/// size.
#[inline]
fn line_digest(bytes: &[u8]) -> u64 {
    // A whole line is folded with its length known, and so unrolled.
    match <&[u8; LINE_SIZE as usize]>::try_from(bytes) {
        Ok(line) => fold_line(line),
        Err(_) => fold_line(bytes),
    }
}

#[inline(always)]
fn fold_line(bytes: &[u8]) -> u64 {
    let mut lanes = LANES;
    // The length goes in first, so a partial line's trailing zeros are
    // not padding; for a whole line it is a constant.
    lanes[0] = mix(lanes[0], bytes.len() as u64);
    for (i, w) in bytes.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        lanes[i % 4] = mix(lanes[i % 4], u64::from_le_bytes(word));
    }
    join(lanes)
}

/// Line `line`'s term of the RAM sum: its digest mixed with a key drawn
/// from its index, so that the sum is position-sensitive.
#[inline]
pub(crate) fn line_term(line: usize, bytes: &[u8]) -> u64 {
    let key = mix(0x4528_21E6_38D0_1377, line as u64);
    mix(key, line_digest(bytes))
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
/// PSW and the [`HASHED_CTL`] control registers, in that order, paired
/// into 8-byte words and dealt onto four chains like a line's words.
fn register_digest(cpu: &Cpu) -> u64 {
    // 43 values and five zeros: six rounds of four words.
    let mut values = [0u32; 48];
    values[..32].copy_from_slice(cpu.regs());
    values[32] = cpu.pc;
    values[33] = cpu.psw.pack();
    for (v, &cr) in values[34..].iter_mut().zip(&HASHED_CTL) {
        *v = cpu.ctl(cr);
    }
    let mut lanes = LANES;
    for round in values.chunks_exact(8) {
        for (lane, pair) in lanes.iter_mut().zip(round.chunks_exact(2)) {
            *lane = mix(*lane, u64::from(pair[0]) | u64::from(pair[1]) << 32);
        }
    }
    join(lanes)
}

/// Digest of the complete virtual-machine state (registers + PSW +
/// hashed control registers + all of RAM). Only the lines written since
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
    mix(register_digest(cpu), mem.ram_digest())
}

/// [`vm_state_hash`] evaluated with every line treated as written:
/// reads all of RAM, neither consults nor fills the digest cache. The
/// reference the incremental evaluation is tested against.
pub fn vm_state_hash_from_scratch(cpu: &Cpu, mem: &Memory) -> u64 {
    let ram_sum = (0..mem.line_count())
        .map(|line| line_term(line, mem.line_bytes(line)))
        .fold(0u64, u64::wrapping_add);
    mix(register_digest(cpu), ram_sum)
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
    fn line_digest_is_position_and_length_sensitive() {
        let mut line = vec![0u8; 128];
        let zero = line_digest(&line);
        // The same byte value at two offsets of one lane, and at the
        // same offset of two lanes.
        let at = |line: &mut Vec<u8>, i: usize| {
            line[i] = 7;
            let d = line_digest(line);
            line[i] = 0;
            d
        };
        let (a, b, c) = (at(&mut line, 0), at(&mut line, 32), at(&mut line, 8));
        assert!(a != zero && b != zero && c != zero);
        assert!(a != b && a != c && b != c);
        // A short tail line: trailing zeros are not padding.
        assert_ne!(line_digest(&[0; 40]), line_digest(&[0; 41]));
        assert_ne!(line_digest(&[0; 41]), line_digest(&[0; 48]));
        let mut tail = [0u8; 41];
        tail[40] = 1;
        assert_ne!(line_digest(&tail), line_digest(&[0; 41]));
    }

    #[test]
    fn the_same_bytes_on_another_line_make_another_term() {
        let (zero, ones) = ([0u8; 128], [1u8; 128]);
        assert_ne!(line_term(0, &zero), line_term(1, &zero));
        // Two lines swapped: the sum of the terms moves.
        let sum = |a: &[u8], b: &[u8]| line_term(3, a).wrapping_add(line_term(9, b));
        assert_ne!(sum(&zero, &ones), sum(&ones, &zero));
    }

    #[test]
    fn cached_and_from_scratch_agree_on_a_partial_last_page_and_line() {
        let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
        let mut mem = Memory::new(4096 + 200);
        let cold = vm_state_hash(&cpu, &mem);
        assert_eq!(cold, vm_state_hash_from_scratch(&cpu, &mem));
        mem.write_u8(4096 + 199, 9).unwrap();
        let warm = vm_state_hash(&cpu, &mem);
        assert_ne!(cold, warm);
        assert_eq!(warm, vm_state_hash_from_scratch(&cpu, &mem));
    }
}
