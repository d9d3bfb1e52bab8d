//! Shared by the tier, snapshot and corpus oracles: compare two
//! machines' VM states and, when they differ, say where.

use hvft::machine::cpu::Cpu;
use hvft::machine::mem::{Memory, PAGE_SHIFT};
use hvft::machine::statehash::vm_state_hash;

/// `Ok` when the two machines hash equal. Otherwise the error names the
/// first physical page whose contents differ — or says that RAM is
/// identical and the registers are not — instead of leaving the reader
/// with two opaque `u64`s.
pub fn same_vm_state(a: (&Cpu, &Memory), b: (&Cpu, &Memory)) -> Result<(), String> {
    let (hash_a, hash_b) = (vm_state_hash(a.0, a.1), vm_state_hash(b.0, b.1));
    if hash_a == hash_b {
        return Ok(());
    }
    let place = match a.1.first_differing_page(b.1) {
        Some(page) => format!(
            "first differing physical page {page} ({:#x}..{:#x})",
            page << PAGE_SHIFT,
            (page + 1) << PAGE_SHIFT
        ),
        None => format!(
            "RAM identical; registers, PSW or control registers differ (pc {:#x} vs {:#x})",
            a.0.pc, b.0.pc
        ),
    };
    Err(format!(
        "VM states differ ({hash_a:#018x} vs {hash_b:#018x}): {place}"
    ))
}
