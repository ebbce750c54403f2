//! Instruction-stream types consumed by the core model.
//!
//! The simulator is trace-driven: a workload produces a deterministic
//! stream of [`Instr`]s. Memory references carry a synthetic program
//! counter so PC-based predictors (the DBCP baseline) can be exercised
//! faithfully.

use timekeeping::{Addr, Pc};

/// A memory reference: address plus the PC of the referencing instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Byte address referenced.
    pub addr: Addr,
    /// Program counter of the instruction.
    pub pc: Pc,
}

impl MemRef {
    /// Creates a memory reference.
    pub fn new(addr: Addr, pc: Pc) -> Self {
        MemRef { addr, pc }
    }
}

/// One instruction of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// A non-memory instruction (ALU/FPU/branch); completes in one cycle.
    Op,
    /// A load; completes when the data returns.
    Load(MemRef),
    /// A load whose *address* depends on the previous chained load's data
    /// (pointer chasing): it cannot start until that load completes, so
    /// chained-load latencies serialize instead of overlapping in the
    /// window. This is how latency-bound reference patterns (mcf's lists,
    /// twolf's graphs) are expressed.
    ChainedLoad(MemRef),
    /// A store; retires through the write buffer without stalling but
    /// still accesses (and allocates in) the data cache.
    Store(MemRef),
    /// A compiler-inserted software prefetch. Per §2.2 of the paper these
    /// are treated as normal memory references that do not block
    /// retirement.
    SwPrefetch(MemRef),
}

impl Instr {
    /// The memory reference carried by this instruction, if any.
    pub fn mem_ref(&self) -> Option<&MemRef> {
        match self {
            Instr::Op => None,
            Instr::Load(m) | Instr::ChainedLoad(m) | Instr::Store(m) | Instr::SwPrefetch(m) => {
                Some(m)
            }
        }
    }

    /// True for loads, stores and software prefetches.
    pub fn is_mem(&self) -> bool {
        !matches!(self, Instr::Op)
    }
}

/// A deterministic instruction-stream source.
///
/// Implementations must be infinite (the runner decides how many
/// instructions to simulate) and deterministic for a given construction
/// seed, so every figure regenerates bit-for-bit.
pub trait Workload {
    /// Produces the next instruction.
    fn next_instr(&mut self) -> Instr;

    /// A short name for reports.
    fn name(&self) -> &str;

    /// An independent copy that will produce the identical future
    /// instruction stream, or `None` if this source cannot be duplicated
    /// mid-stream. Statistical sampling ([`crate::sample`]) needs a fork
    /// for its profiling pass; workloads without one fall back to full
    /// simulation.
    fn fork(&self) -> Option<Box<dyn Workload>> {
        None
    }

    /// Splits this workload into `cores` independent per-core instruction
    /// streams for a multi-core run ([`crate::multicore`]).
    ///
    /// The default is "rate mode": every core runs an identical
    /// [`fork`](Workload::fork) of this stream, which maximizes sharing
    /// and therefore coherence traffic. Heterogeneous mixes (one program
    /// per core) override this — see `ConcurrentMix` in `tk-workloads`.
    /// Returns `None` when the source cannot be duplicated.
    fn per_core_streams(&self, cores: u32) -> Option<Vec<Box<dyn Workload>>> {
        (0..cores).map(|_| self.fork()).collect()
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_instr(&mut self) -> Instr {
        (**self).next_instr()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn fork(&self) -> Option<Box<dyn Workload>> {
        (**self).fork()
    }

    fn per_core_streams(&self, cores: u32) -> Option<Vec<Box<dyn Workload>>> {
        (**self).per_core_streams(cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_ref_extraction() {
        let m = MemRef::new(Addr::new(64), Pc::new(4));
        assert_eq!(Instr::Load(m).mem_ref(), Some(&m));
        assert_eq!(Instr::Store(m).mem_ref(), Some(&m));
        assert_eq!(Instr::SwPrefetch(m).mem_ref(), Some(&m));
        assert_eq!(Instr::Op.mem_ref(), None);
        assert!(Instr::Load(m).is_mem());
        assert!(!Instr::Op.is_mem());
    }

    #[test]
    fn boxed_workload_delegates() {
        struct W(u64);
        impl Workload for W {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                Instr::Op
            }
            fn name(&self) -> &str {
                "w"
            }
        }
        let mut b: Box<dyn Workload> = Box::new(W(0));
        assert_eq!(b.next_instr(), Instr::Op);
        assert_eq!(b.name(), "w");
    }
}
