//! Architectural ACE analysis of a dynamic trace.
//!
//! ACE analysis classifies every dynamic instruction as ACE (its execution
//! is necessary for architecturally correct execution) or un-ACE
//! (Mukherjee et al. \[1\]). The first-order un-ACE sources modeled here:
//!
//! - **NOPs and performance hints** (`Instr::hint`) — never ACE.
//! - **Dynamically dead code** — a value producer whose result is
//!   overwritten before any read is *first-level* dead; a producer whose
//!   only consumers are themselves dead is *transitively* dead. Both are
//!   un-ACE.
//! - **End-of-trace unknowns** — values still live when the trace ends have
//!   unknowable consumers; they are conservatively treated as ACE but
//!   reported separately (the "unknown" component of Equation 2/3).
//!
//! Stores and taken/not-taken branches are always ACE here (wrong-path
//! analysis is beyond the model's scope, matching the paper's conservative
//! assumptions).

use seqavf_workloads::trace::{OpClass, Trace, NUM_REGS};

/// Classification of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aceness {
    /// Necessary for architecturally correct execution.
    Ace,
    /// Provably unnecessary (dead, NOP, hint).
    UnAce,
    /// Liveness unknowable at trace end; treated as ACE (conservative) but
    /// accounted separately.
    Unknown,
}

impl Aceness {
    /// Whether this classification counts toward ACE residency
    /// (conservatively including unknowns).
    pub fn counts_as_ace(self) -> bool {
        matches!(self, Aceness::Ace | Aceness::Unknown)
    }
}

/// Per-instruction ACE classification for a trace.
#[derive(Debug, Clone)]
pub struct TraceAce {
    ace: Vec<Aceness>,
}

impl TraceAce {
    /// Classification of instruction `i` (program order).
    pub fn of(&self, i: usize) -> Aceness {
        self.ace[i]
    }

    /// All classifications in program order.
    pub fn all(&self) -> &[Aceness] {
        &self.ace
    }

    /// Fraction of instructions classified ACE or unknown.
    pub fn ace_fraction(&self) -> f64 {
        if self.ace.is_empty() {
            return 0.0;
        }
        self.ace.iter().filter(|a| a.counts_as_ace()).count() as f64 / self.ace.len() as f64
    }

    /// Fraction of instructions classified unknown.
    pub fn unknown_fraction(&self) -> f64 {
        if self.ace.is_empty() {
            return 0.0;
        }
        self.ace.iter().filter(|&&a| a == Aceness::Unknown).count() as f64 / self.ace.len() as f64
    }
}

/// Runs backward dead-code ACE analysis over a trace.
///
/// One backward pass keeps two flags per architectural register, both
/// describing the instructions after the current one:
///
/// - `redefined[r]` — some later instruction writes `r`;
/// - `read_live[r]` — the value `r` holds here is read by a later
///   ACE-counting instruction before `r` is overwritten.
///
/// An instruction is live if it has an architectural side effect (store,
/// branch) or `read_live[dst]` holds when it is reached; a value never read
/// and never redefined is unknown. Stepping back over an instruction first
/// kills its destination (`read_live` false, `redefined` true), then, if
/// the instruction counts as ACE, marks its sources read: sources are read
/// before the destination is written, so `r1 = r1 + 1` consumes the
/// earlier `r1`.
pub fn analyze_trace(trace: &Trace) -> TraceAce {
    let instrs = trace.instrs();
    let mut ace = vec![Aceness::UnAce; instrs.len()];
    let mut redefined = [false; NUM_REGS as usize];
    let mut read_live = [false; NUM_REGS as usize];

    for (ins, a) in instrs.iter().zip(ace.iter_mut()).rev() {
        *a = if ins.hint || ins.op == OpClass::Nop {
            Aceness::UnAce
        } else if matches!(ins.op, OpClass::Store | OpClass::Branch) {
            Aceness::Ace
        } else {
            match ins.dst {
                // No destination and no side effect: nothing depends on it.
                None => Aceness::UnAce,
                Some(dst) if read_live[dst.index()] => Aceness::Ace,
                // Never consumed, never overwritten: future use is
                // unknowable.
                Some(dst) if !redefined[dst.index()] => Aceness::Unknown,
                Some(_) => Aceness::UnAce,
            }
        };
        if let Some(dst) = ins.dst {
            redefined[dst.index()] = true;
            read_live[dst.index()] = false;
        }
        if a.counts_as_ace() {
            for src in ins.sources() {
                read_live[src.index()] = true;
            }
        }
    }

    TraceAce { ace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqavf_workloads::trace::{Instr, Reg, TraceBuilder};

    fn alu(dst: u8, a: u8, b: Option<u8>) -> Instr {
        Instr::alu(OpClass::IntAlu, Reg::new(dst), Reg::new(a), b.map(Reg::new))
    }

    #[test]
    fn nops_and_hints_are_unace() {
        let mut tb = TraceBuilder::new("t");
        tb.push(Instr::nop());
        let mut prefetch = Instr::load(Reg::new(0), None, 0x10);
        prefetch.hint = true;
        tb.push(prefetch);
        let a = analyze_trace(&tb.finish());
        assert_eq!(a.of(0), Aceness::UnAce);
        assert_eq!(a.of(1), Aceness::UnAce);
    }

    #[test]
    fn store_consumer_makes_producer_ace() {
        let mut tb = TraceBuilder::new("t");
        tb.push(alu(1, 2, None)); // r1 = f(r2)
        tb.push(Instr::store(Reg::new(1), None, 0x40)); // store r1
        let a = analyze_trace(&tb.finish());
        assert_eq!(a.of(0), Aceness::Ace);
        assert_eq!(a.of(1), Aceness::Ace);
    }

    #[test]
    fn overwritten_value_is_dead() {
        let mut tb = TraceBuilder::new("t");
        tb.push(alu(1, 2, None)); // r1 = f(r2)   (dead: clobbered next)
        tb.push(alu(1, 3, None)); // r1 = f(r3)
        tb.push(Instr::store(Reg::new(1), None, 0x40));
        let a = analyze_trace(&tb.finish());
        assert_eq!(a.of(0), Aceness::UnAce);
        assert_eq!(a.of(1), Aceness::Ace);
    }

    #[test]
    fn transitively_dead_chain() {
        let mut tb = TraceBuilder::new("t");
        tb.push(alu(1, 2, None)); // r1 = ...
        tb.push(alu(3, 1, None)); // r3 = f(r1)  (only consumer of r1)
        tb.push(alu(3, 2, None)); // r3 clobbered without read -> instr 1 dead
        tb.push(Instr::store(Reg::new(3), None, 0x8));
        tb.push(alu(1, 2, None)); // clobber r1 so instr 0 is not open-at-end
        let a = analyze_trace(&tb.finish());
        assert_eq!(a.of(1), Aceness::UnAce, "direct dead");
        assert_eq!(a.of(0), Aceness::UnAce, "transitively dead");
        assert_eq!(a.of(2), Aceness::Ace);
        assert_eq!(a.of(4), Aceness::Unknown, "open at trace end");
    }

    #[test]
    fn value_open_at_trace_end_is_unknown() {
        let mut tb = TraceBuilder::new("t");
        tb.push(alu(1, 2, None));
        let a = analyze_trace(&tb.finish());
        assert_eq!(a.of(0), Aceness::Unknown);
        assert!(a.of(0).counts_as_ace());
        assert!((a.unknown_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branches_are_ace() {
        let mut tb = TraceBuilder::new("t");
        tb.push(alu(1, 2, None));
        tb.push(Instr::branch(Reg::new(1), true));
        let a = analyze_trace(&tb.finish());
        assert_eq!(a.of(1), Aceness::Ace);
        assert_eq!(a.of(0), Aceness::Ace, "feeds a branch condition");
    }

    #[test]
    fn ace_fraction_counts_unknown() {
        let mut tb = TraceBuilder::new("t");
        tb.push(Instr::nop());
        tb.push(alu(1, 2, None)); // unknown (open)
        tb.push(Instr::store(Reg::new(5), None, 0)); // ace
        let a = analyze_trace(&tb.finish());
        assert!((a.ace_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let a = analyze_trace(&Trace::new("e", vec![]));
        assert_eq!(a.ace_fraction(), 0.0);
        assert_eq!(a.all().len(), 0);
    }

    #[test]
    fn load_feeding_dead_chain_is_dead() {
        let mut tb = TraceBuilder::new("t");
        tb.push(Instr::load(Reg::new(4), None, 0x100)); // r4 = [mem]
        tb.push(alu(4, 1, None)); // clobber r4
        tb.push(Instr::store(Reg::new(4), None, 0x108));
        let a = analyze_trace(&tb.finish());
        assert_eq!(a.of(0), Aceness::UnAce);
    }
}
