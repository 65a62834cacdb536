//! End-to-end checks of the paper's named claims, on hand-built traces
//! where the mechanism is fully controlled (the statistical versions
//! over the suites live in `experiments::shape_tests`).

use trace_rebase::converter::{Converter, Improvement, ImprovementSet};
use trace_rebase::cvp::{CvpInstruction, LINK_REG};
use trace_rebase::sim::{CoreConfig, RunOptions, SimReport, Simulator};

fn simulate(insns: &[CvpInstruction], imps: ImprovementSet) -> SimReport {
    let mut converter = Converter::new(imps);
    let records = converter.convert_all(insns.iter());
    Simulator::run_on(&CoreConfig::test_small(), &records, RunOptions::default())
}

/// §3.2.1 / Figure 5: `blr x30` call/return pairs under the original
/// conversion desynchronize the RAS, and the `call-stack` improvement
/// repairs them.
#[test]
fn call_stack_fix_repairs_return_prediction() {
    let mut insns = Vec::new();
    for i in 0..4_000u64 {
        let site = 0x1000 + (i % 8) * 0x40;
        // mov x30, #callee ; blr x30
        insns.push(CvpInstruction::alu(site).with_destination(LINK_REG, 0x9000u64));
        insns.push(
            CvpInstruction::indirect_branch(site + 4, 0x9000)
                .with_sources(&[LINK_REG])
                .with_destination(LINK_REG, site + 8),
        );
        // callee body ; ret
        insns.push(CvpInstruction::alu(0x9000).with_sources(&[1]).with_destination(2, 1u64));
        insns.push(CvpInstruction::indirect_branch(0x9004, site + 8).with_sources(&[LINK_REG]));
        insns.push(CvpInstruction::alu(site + 8).with_sources(&[2]).with_destination(3, 2u64));
        // close the loop
        insns.push(CvpInstruction::direct_branch(site + 12, 0x1000 + ((i + 1) % 8) * 0x40));
    }
    let broken = simulate(&insns, ImprovementSet::none());
    let fixed = simulate(&insns, ImprovementSet::only(Improvement::CallStack));
    assert!(
        broken.return_mpki() > 10.0 * fixed.return_mpki().max(0.1),
        "original conversion must wreck the RAS: {} vs {}",
        broken.return_mpki(),
        fixed.return_mpki()
    );
    assert!(fixed.ipc() > broken.ipc(), "the fix must speed the trace up");
}

/// §3.1.2 / Figure 4: a chain of post-indexing loads is serialized at
/// memory latency under the original conversion and runs at ALU latency
/// once split.
#[test]
fn base_update_split_unserializes_the_walk() {
    let mut insns = Vec::new();
    let mut base = 0x4_0000_0000u64;
    insns.push(CvpInstruction::alu(0xFFC).with_destination(12, base));
    for i in 0..20_000u64 {
        let pc = 0x1000 + (i % 64) * 4;
        let ea = base;
        base = 0x4_0000_0000 + ((base + 16) & 0xFFF);
        // ldr x2, [x12], #16 — one hot destination register, as a tight
        // unrolled loop would have.
        insns.push(
            CvpInstruction::load(pc, ea, 8)
                .with_sources(&[12])
                .with_destination(2, 0x5a5au64)
                .with_destination(12, base),
        );
    }
    let original = simulate(&insns, ImprovementSet::none());
    let split = simulate(&insns, ImprovementSet::only(Improvement::BaseUpdate));
    assert!(
        split.ipc() > original.ipc() * 1.2,
        "splitting must unserialize the walk: {} vs {}",
        split.ipc(),
        original.ipc()
    );
}

/// §3.2.3 / Figure 3: restoring the flag dependency makes mispredicted
/// compare-fed branches resolve after their producer, slowing the trace.
#[test]
fn flag_reg_exposes_misprediction_penalty() {
    let mut insns = Vec::new();
    let mut state = 99u64;
    for i in 0..20_000u64 {
        let pc = 0x1000 + (i % 16) * 16;
        // Long-latency load feeding a compare feeding a branch.
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let ea = 0x5_0000_0000 + (state % (1 << 27));
        insns.push(
            CvpInstruction::load(pc, ea, 8).with_sources(&[12]).with_destination(2, state >> 32),
        );
        insns.push(CvpInstruction::alu(pc + 4).with_sources(&[2, 3])); // cmp
        let taken = (state >> 60) & 1 == 1;
        insns.push(CvpInstruction::cond_branch(pc + 8, taken, pc + 16));
        if !taken {
            insns.push(CvpInstruction::alu(pc + 12).with_sources(&[3]).with_destination(4, 0u64));
        }
    }
    let original = simulate(&insns, ImprovementSet::none());
    let flagged = simulate(&insns, ImprovementSet::only(Improvement::FlagReg));
    assert!(
        flagged.ipc() < original.ipc() * 0.9,
        "flag-reg must expose the penalty: {} vs {}",
        flagged.ipc(),
        original.ipc()
    );
}

/// §3.2.2: the same mechanism through `cbz`-style register sources.
#[test]
fn branch_regs_exposes_misprediction_penalty() {
    let mut insns = Vec::new();
    let mut state = 7u64;
    for i in 0..20_000u64 {
        let pc = 0x1000 + (i % 16) * 16;
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let ea = 0x5_0000_0000 + (state % (1 << 27));
        insns.push(
            CvpInstruction::load(pc, ea, 8).with_sources(&[12]).with_destination(2, state >> 32),
        );
        let taken = (state >> 60) & 1 == 1;
        // cbz x2, +8
        insns.push(CvpInstruction::cond_branch(pc + 4, taken, pc + 12).with_sources(&[2]));
        if !taken {
            insns.push(CvpInstruction::alu(pc + 8).with_sources(&[3]).with_destination(4, 0u64));
        }
        insns.push(CvpInstruction::alu(pc + 12).with_sources(&[4]).with_destination(5, 0u64));
    }
    let original = simulate(&insns, ImprovementSet::none());
    let wired = simulate(&insns, ImprovementSet::only(Improvement::BranchRegs));
    assert!(
        wired.ipc() < original.ipc() * 0.9,
        "branch-regs must expose the penalty: {} vs {}",
        wired.ipc(),
        original.ipc()
    );
}

/// §3.1.3: crossing accesses touch the second cacheline only under
/// `mem-footprint`, and `DC ZVA` stores are aligned.
#[test]
fn mem_footprint_is_conveyed() {
    let crossing =
        CvpInstruction::load(0x100, 0x1003C, 8).with_sources(&[12]).with_destination(2, 1u64);
    let zva = CvpInstruction::store(0x104, 0x10234, 64).with_sources(&[12]);

    let mut plain = Converter::new(ImprovementSet::none());
    let recs = plain.convert_all([crossing.clone(), zva.clone()].iter());
    assert_eq!(recs[0].source_memory().count(), 1);
    assert_eq!(recs[1].destination_memory().collect::<Vec<_>>(), vec![0x10234]);

    let mut improved = Converter::new(ImprovementSet::only(Improvement::MemFootprint));
    let recs = improved.convert_all([crossing, zva].iter());
    assert_eq!(recs[0].source_memory().collect::<Vec<_>>(), vec![0x1003C, 0x10040]);
    assert_eq!(recs[1].destination_memory().collect::<Vec<_>>(), vec![0x10200]);
}

/// §4.4: the IPC-1 core's ideal target prediction makes it blind to the
/// call-stack fix — the paper's explanation for why the fix cannot move
/// the championship ranking.
#[test]
fn ipc1_core_is_blind_to_the_call_stack_fix() {
    let mut insns = Vec::new();
    for i in 0..4_000u64 {
        let site = 0x1000 + (i % 8) * 0x40;
        insns.push(CvpInstruction::alu(site).with_destination(LINK_REG, 0x9000u64));
        insns.push(
            CvpInstruction::indirect_branch(site + 4, 0x9000)
                .with_sources(&[LINK_REG])
                .with_destination(LINK_REG, site + 8),
        );
        insns.push(CvpInstruction::indirect_branch(0x9000, site + 8).with_sources(&[LINK_REG]));
        insns.push(CvpInstruction::direct_branch(site + 8, 0x1000 + ((i + 1) % 8) * 0x40));
    }
    let run = |imps| {
        let mut converter = Converter::new(imps);
        let records = converter.convert_all(insns.iter());
        Simulator::run_on(&CoreConfig::ipc1(), &records, RunOptions::default())
    };
    let broken = run(ImprovementSet::none());
    let fixed = run(ImprovementSet::only(Improvement::CallStack));
    assert_eq!(broken.branches.target_mispredicts, 0);
    assert_eq!(fixed.branches.target_mispredicts, 0);
    assert_eq!(broken.cycles, fixed.cycles, "ideal targets: the fix must be invisible");
}
