//! The trace-driven out-of-order pipeline model with ACE instrumentation.
//!
//! A deliberately compact model in the spirit of the paper's detailed
//! micro-architectural performance model (§3.2): wide in-order front end
//! (fetch → decode → rename) feeding an out-of-order scheduler with
//! per-class functional units and in-order retirement. Every storage
//! structure from [`crate::structures::catalog`] is instrumented with a
//! [`LifetimeTracker`]; CAM structures additionally run hamming-distance-1
//! analysis and control structures run bit-field analysis when enabled.
//!
//! The model's purpose is not cycle-exact performance prediction — it is to
//! produce *statistically plausible ACE event rates* (port AVFs) that vary
//! with workload behaviour, which is all the SART stage consumes.

use std::collections::{BTreeMap, VecDeque};

use crate::ace::{analyze_trace, Aceness};
use crate::bitfield::BitFieldAnalyzer;
use crate::hd1::Hd1Tracker;
use crate::lifetime::LifetimeTracker;
use crate::report::AceReport;
use crate::structures::{catalog, StructureClass, StructureSpec};
use seqavf_workloads::trace::{OpClass, Trace};

/// Configuration of the performance model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Front-end width (fetch/decode/rename per cycle).
    pub width: usize,
    /// Maximum instructions issued per cycle.
    pub issue_width: usize,
    /// Maximum instructions retired per cycle.
    pub retire_width: usize,
    /// Enable bit-field analysis for control structures (§5.1).
    pub bitfield: bool,
    /// Enable hamming-distance-1 analysis for CAM structures.
    pub hd1: bool,
    /// Hard cycle cap (guards against pathological stalls).
    pub max_cycles: u64,
    /// Use conservative fill-to-evict residency for structure AVFs
    /// instead of the precise fill-to-last-read accounting (see
    /// [`crate::lifetime::LifetimeTracker::with_conservative_residency`]).
    pub conservative_residency: bool,
    /// Quantized-AVF window size in cycles; `None` disables windowed
    /// tracking (see [`crate::window`]).
    pub quantize_window: Option<u64>,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            width: 4,
            issue_width: 6,
            retire_width: 4,
            bitfield: true,
            hd1: true,
            max_cycles: 50_000_000,
            conservative_residency: false,
            quantize_window: None,
        }
    }
}

/// Rotating slot allocator with an occupancy bound.
#[derive(Debug, Clone)]
struct SlotAlloc {
    cap: usize,
    next: usize,
    used: usize,
}

impl SlotAlloc {
    fn new(cap: usize) -> Self {
        SlotAlloc {
            cap,
            next: 0,
            used: 0,
        }
    }

    fn alloc(&mut self) -> Option<usize> {
        if self.used == self.cap {
            return None;
        }
        let s = self.next;
        self.next = (self.next + 1) % self.cap;
        self.used += 1;
        Some(s)
    }

    fn free(&mut self) {
        debug_assert!(self.used > 0);
        self.used -= 1;
    }

    fn has_space(&self) -> bool {
        self.used < self.cap
    }
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    idx: u32,
    slot: usize,
}

#[derive(Debug, Clone, Copy)]
struct IqEntry {
    idx: u32,
    slot: usize,
    producers: [Option<u32>; 2],
    issued: bool,
}

/// Catalog positions of the structures the pipeline drives, resolved once
/// per run so that no event looks a structure up by name.
#[derive(Debug, Clone, Copy)]
struct Ids {
    fetch_buffer: usize,
    itlb: usize,
    btb: usize,
    ras: usize,
    uop_queue: usize,
    rat: usize,
    free_list: usize,
    issue_queue: usize,
    bypass: usize,
    fp_regfile: usize,
    dtlb: usize,
    load_queue: usize,
    store_queue: usize,
    rob: usize,
    prf: usize,
    csr_bank: usize,
}

impl Ids {
    fn resolve(specs: &[StructureSpec]) -> Self {
        let at = |name: &str| {
            specs
                .iter()
                .position(|s| s.name == name)
                .expect("structure in catalog")
        };
        Ids {
            fetch_buffer: at("fetch_buffer"),
            itlb: at("itlb"),
            btb: at("btb"),
            ras: at("ras"),
            uop_queue: at("uop_queue"),
            rat: at("rat"),
            free_list: at("free_list"),
            issue_queue: at("issue_queue"),
            bypass: at("bypass"),
            fp_regfile: at("fp_regfile"),
            dtlb: at("dtlb"),
            load_queue: at("load_queue"),
            store_queue: at("store_queue"),
            rob: at("rob"),
            prf: at("prf"),
            csr_bank: at("csr_bank"),
        }
    }

    /// The register file holding a floating-point or integer result.
    fn regfile(&self, fp: bool) -> usize {
        if fp {
            self.fp_regfile
        } else {
            self.prf
        }
    }
}

/// Runs ACE analysis for one workload and returns the report.
pub fn run_ace(trace: &Trace, config: &PerfConfig) -> AceReport {
    run_ace_traced(trace, config, &seqavf_obs::Collector::disabled())
}

/// [`run_ace`] with observability: records one `ace.workload` span per
/// run, carrying the workload name and the simulated instruction/cycle
/// totals.
pub fn run_ace_traced(
    trace: &Trace,
    config: &PerfConfig,
    obs: &seqavf_obs::Collector,
) -> AceReport {
    let mut span = obs.span("ace.workload");
    let report = run_ace_impl(trace, config);
    span.field_str("workload", trace.name());
    span.field_u64("instructions", report.instructions);
    span.field_u64("cycles", report.cycles);
    obs.count("ace.instructions", report.instructions);
    obs.count("ace.cycles", report.cycles);
    report
}

fn run_ace_impl(trace: &Trace, config: &PerfConfig) -> AceReport {
    let ace = analyze_trace(trace);
    let n = trace.len();
    let instrs = trace.instrs();

    // Instrumentation, indexed by catalog position.
    let specs = catalog();
    let id = Ids::resolve(&specs);
    let cap = |i: usize| specs[i].entries;
    let mut trackers: Vec<LifetimeTracker> = specs
        .iter()
        .map(|spec| {
            LifetimeTracker::new(spec.name, spec.entries, spec.bits_per_entry)
                .with_conservative_residency(config.conservative_residency)
                .with_quantizer(config.quantize_window)
        })
        .collect();
    // HD-1 tracking always runs so the simulated event stream (hits,
    // misses, fills) is identical whether or not the refinement factor is
    // applied; `config.hd1` only controls the final blend.
    let mut hd1: Vec<Option<Hd1Tracker>> = specs
        .iter()
        .map(|spec| {
            (spec.class == StructureClass::Cam)
                .then(|| Hd1Tracker::new(spec.bits_per_entry.min(48)))
        })
        .collect();
    let mut bitfields: Vec<Option<BitFieldAnalyzer>> = specs
        .iter()
        .map(|spec| {
            if config.bitfield && spec.class == StructureClass::Control {
                BitFieldAnalyzer::for_structure(spec.name, spec.entries)
            } else {
                None
            }
        })
        .collect();
    let dtlb_cap = cap(id.dtlb);
    let itlb_cap = cap(id.itlb);
    let btb_cap = cap(id.btb);

    // Pipeline state.
    let mut fetch_q: VecDeque<(u32, usize)> = VecDeque::new();
    let mut uop_q: VecDeque<(u32, usize)> = VecDeque::new();
    let mut iq: Vec<IqEntry> = Vec::new();
    let mut rob: VecDeque<RobEntry> = VecDeque::new();

    let mut fetch_slots = SlotAlloc::new(cap(id.fetch_buffer));
    let mut uop_slots = SlotAlloc::new(cap(id.uop_queue));
    let mut iq_slots = SlotAlloc::new(cap(id.issue_queue));
    let mut rob_slots = SlotAlloc::new(cap(id.rob));
    let mut prf_slots = SlotAlloc::new(cap(id.prf));
    let mut fprf_slots = SlotAlloc::new(cap(id.fp_regfile));
    let mut lq_slots = SlotAlloc::new(cap(id.load_queue));
    let mut sq_slots = SlotAlloc::new(cap(id.store_queue));
    let bypass_cap = cap(id.bypass);
    let ras_cap = cap(id.ras);
    let csr_cap = cap(id.csr_bank);
    let rat_entries = cap(id.rat);
    let fl_cap = cap(id.free_list);

    // Per-instruction bookkeeping.
    const NOT_DONE: u64 = u64::MAX;
    let mut done_cycle = vec![NOT_DONE; n];
    let mut prf_slot: Vec<Option<(bool, usize)>> = vec![None; n]; // (is_fp, slot)
    let mut lq_slot: Vec<Option<usize>> = vec![None; n];
    let mut sq_slot: Vec<Option<usize>> = vec![None; n];

    // Architectural last-writer table (for producer tracking at rename).
    let mut last_writer: Vec<Option<u32>> = vec![None; 64];

    let mut next_fetch: usize = 0;
    let mut retired: u64 = 0;
    let mut cycle: u64 = 0;
    // Front-end redirect stall: taken branches bubble the fetch stage
    // (longer when the BTB missed), keeping IPC and port activity in a
    // realistic band.
    let mut fetch_stall_until: u64 = 0;
    let mut bypass_rr = 0usize;
    let mut ras_rr = 0usize;
    let mut fl_rr = 0usize;
    let mut branch_count = 0u64;

    let ace_of = |i: u32| ace.of(i as usize);

    while (retired as usize) < n && cycle < config.max_cycles {
        // ---- Retire (in order) ----
        let mut n_ret = 0;
        while n_ret < config.retire_width {
            let Some(&front) = rob.front() else { break };
            if done_cycle[front.idx as usize] == NOT_DONE || done_cycle[front.idx as usize] > cycle
            {
                break;
            }
            rob.pop_front();
            let a = ace_of(front.idx);
            let t = &mut trackers[id.rob];
            t.read(front.slot, cycle, a);
            t.dealloc(front.slot, cycle);
            if let Some(bf) = &mut bitfields[id.rob] {
                bf.read(front.slot, cycle, a);
                bf.dealloc(front.slot);
            }
            rob_slots.free();
            let i = front.idx as usize;
            if let Some((fp, slot)) = prf_slot[i] {
                // Architectural value read at retirement, then the physical
                // register is recycled.
                let t = &mut trackers[id.regfile(fp)];
                t.read(slot, cycle, a);
                t.dealloc(slot, cycle);
                if fp {
                    fprf_slots.free();
                } else {
                    prf_slots.free();
                }
            }
            if let Some(slot) = lq_slot[i] {
                let t = &mut trackers[id.load_queue];
                t.read(slot, cycle, a);
                t.dealloc(slot, cycle);
                if let Some(h) = &mut hd1[id.load_queue] {
                    h.remove(slot);
                }
                lq_slots.free();
            }
            if let Some(slot) = sq_slot[i] {
                let t = &mut trackers[id.store_queue];
                t.read(slot, cycle, a);
                t.dealloc(slot, cycle);
                if let Some(h) = &mut hd1[id.store_queue] {
                    h.remove(slot);
                }
                sq_slots.free();
            }
            retired += 1;
            n_ret += 1;
            // Rare control-register traffic: status updates on a sparse
            // subset of retirements.
            if retired.is_multiple_of(128) {
                let slot = (retired / 128) as usize % csr_cap;
                trackers[id.csr_bank].write(slot, cycle, Aceness::Ace);
                if let Some(bf) = &mut bitfields[id.csr_bank] {
                    bf.write(slot, cycle, &instrs[i], Aceness::Ace);
                }
            }
            if retired.is_multiple_of(512) {
                let slot = (retired / 512) as usize % csr_cap;
                trackers[id.csr_bank].read(slot, cycle, Aceness::Ace);
                if let Some(bf) = &mut bitfields[id.csr_bank] {
                    bf.read(slot, cycle, Aceness::Ace);
                }
            }
        }

        // ---- Writeback: result bus + bypass network ----
        // (Results were scheduled at issue; model the bypass write the
        // cycle the value becomes available. Every latency is at least one
        // cycle, so an issued entry is written back exactly when it leaves
        // the scheduler, in the same oldest-first pass.)
        iq.retain(|e| {
            let i = e.idx as usize;
            if !e.issued || done_cycle[i] > cycle {
                return true;
            }
            if done_cycle[i] == cycle {
                let a = ace_of(e.idx);
                if let Some((fp, slot)) = prf_slot[i] {
                    trackers[id.regfile(fp)].write(slot, cycle, a);
                }
                let t = &mut trackers[id.bypass];
                t.write(bypass_rr % bypass_cap, cycle, a);
                t.read(bypass_rr % bypass_cap, cycle, a);
                bypass_rr += 1;
            }
            false
        });

        // ---- Issue (oldest ready first) ----
        let mut n_issued = 0;
        for e in iq.iter_mut() {
            if n_issued == config.issue_width {
                break;
            }
            if e.issued {
                continue;
            }
            let ready =
                e.producers.iter().flatten().all(|&p| {
                    done_cycle[p as usize] != NOT_DONE && done_cycle[p as usize] <= cycle
                });
            if !ready {
                continue;
            }
            let i = e.idx as usize;
            let ins = &instrs[i];
            let a = ace_of(e.idx);
            // Leave the scheduler.
            {
                let t = &mut trackers[id.issue_queue];
                t.read(e.slot, cycle, a);
                t.dealloc(e.slot, cycle);
            }
            if let Some(bf) = &mut bitfields[id.issue_queue] {
                bf.read(e.slot, cycle, a);
                bf.dealloc(e.slot);
            }
            iq_slots.free();
            // Source operands: bypass if just produced, else register file.
            for &p in e.producers.iter().flatten() {
                let pi = p as usize;
                let recent = cycle.saturating_sub(done_cycle[pi]) <= 1;
                if !recent {
                    if let Some((fp, slot)) = prf_slot[pi] {
                        trackers[id.regfile(fp)].read(slot, cycle, a);
                    }
                }
            }
            // Memory operations.
            if ins.op.is_mem() {
                let page = ins.addr.unwrap_or(0) >> 12;
                let slot = (page as usize) % dtlb_cap;
                let h = &mut hd1[id.dtlb];
                let hit = h.as_mut().is_none_or(|h| h.lookup(page, a));
                let t = &mut trackers[id.dtlb];
                if hit {
                    t.read(slot, cycle, a);
                } else {
                    t.write(slot, cycle, a);
                    if let Some(h) = h {
                        h.insert(slot, page);
                    }
                }
                match ins.op {
                    OpClass::Load => {
                        // Store-to-load forwarding check against the store
                        // queue CAM.
                        if let Some(h) = &mut hd1[id.store_queue] {
                            h.lookup(ins.addr.unwrap_or(0), a);
                        }
                        if let Some(slot) = lq_slots.alloc() {
                            lq_slot[i] = Some(slot);
                            trackers[id.load_queue].write(slot, cycle, a);
                            if let Some(h) = &mut hd1[id.load_queue] {
                                h.insert(slot, ins.addr.unwrap_or(0));
                            }
                        }
                    }
                    OpClass::Store => {
                        if let Some(slot) = sq_slots.alloc() {
                            sq_slot[i] = Some(slot);
                            trackers[id.store_queue].write(slot, cycle, a);
                            if let Some(h) = &mut hd1[id.store_queue] {
                                h.insert(slot, ins.addr.unwrap_or(0));
                            }
                        }
                    }
                    _ => unreachable!("is_mem covers loads and stores"),
                }
            }
            // Cache-miss model: a deterministic hash of the address sends
            // a fraction of loads to a long-latency miss path.
            let mut latency = u64::from(ins.op.latency());
            if ins.op == OpClass::Load {
                if let Some(a) = ins.addr {
                    let h = (a ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    if (h >> 33).is_multiple_of(8) {
                        latency = 24;
                    }
                }
            }
            done_cycle[i] = cycle + latency;
            e.issued = true;
            n_issued += 1;
        }

        // ---- Rename / dispatch ----
        for _ in 0..config.width {
            let Some(&(idx, uslot)) = uop_q.front() else {
                break;
            };
            let i = idx as usize;
            let ins = &instrs[i];
            let needs_prf = ins.dst.is_some();
            let fp = ins.op.is_fp();
            let prf_ok = if needs_prf {
                if fp {
                    fprf_slots.has_space()
                } else {
                    prf_slots.has_space()
                }
            } else {
                true
            };
            if !(rob_slots.has_space() && iq_slots.has_space() && prf_ok) {
                break;
            }
            uop_q.pop_front();
            let a = ace_of(idx);
            {
                let t = &mut trackers[id.uop_queue];
                t.read(uslot, cycle, a);
                t.dealloc(uslot, cycle);
            }
            uop_slots.free();
            // Rename table traffic.
            let rat = &mut trackers[id.rat];
            let mut producers: [Option<u32>; 2] = [None, None];
            for (k, src) in ins.sources().enumerate().take(2) {
                rat.read(src.index() % rat_entries, cycle, a);
                producers[k] = last_writer[src.index()];
            }
            if let Some(dst) = ins.dst {
                rat.write(dst.index() % rat_entries, cycle, a);
                last_writer[dst.index()] = Some(idx);
                // Allocate a physical register via the free list.
                let fl = &mut trackers[id.free_list];
                fl.read(fl_rr % fl_cap, cycle, a);
                fl.write(fl_rr % fl_cap, cycle, a);
                fl_rr += 1;
                let slot = if fp {
                    fprf_slots.alloc().expect("checked space")
                } else {
                    prf_slots.alloc().expect("checked space")
                };
                prf_slot[i] = Some((fp, slot));
            }
            // ROB allocation.
            let rslot = rob_slots.alloc().expect("checked space");
            trackers[id.rob].write(rslot, cycle, a);
            if let Some(bf) = &mut bitfields[id.rob] {
                bf.write(rslot, cycle, ins, a);
            }
            rob.push_back(RobEntry { idx, slot: rslot });
            // Scheduler allocation.
            let islot = iq_slots.alloc().expect("checked space");
            trackers[id.issue_queue].write(islot, cycle, a);
            if let Some(bf) = &mut bitfields[id.issue_queue] {
                bf.write(islot, cycle, ins, a);
            }
            iq.push(IqEntry {
                idx,
                slot: islot,
                producers,
                issued: false,
            });
        }

        // ---- Decode ----
        for _ in 0..config.width {
            if !uop_slots.has_space() {
                break;
            }
            let Some(&(idx, fslot)) = fetch_q.front() else {
                break;
            };
            fetch_q.pop_front();
            let a = ace_of(idx);
            {
                let t = &mut trackers[id.fetch_buffer];
                t.read(fslot, cycle, a);
                t.dealloc(fslot, cycle);
            }
            fetch_slots.free();
            let uslot = uop_slots.alloc().expect("checked space");
            trackers[id.uop_queue].write(uslot, cycle, a);
            uop_q.push_back((idx, uslot));
        }

        // ---- Fetch ----
        let mut fetched_this_cycle = false;
        for _ in 0..config.width {
            if cycle < fetch_stall_until || next_fetch >= n || !fetch_slots.has_space() {
                break;
            }
            let idx = next_fetch as u32;
            let ins = &instrs[next_fetch];
            let a = ace_of(idx);
            let fslot = fetch_slots.alloc().expect("checked space");
            trackers[id.fetch_buffer].write(fslot, cycle, a);
            fetch_q.push_back((idx, fslot));
            if !fetched_this_cycle {
                // One iTLB access per fetch group.
                let page = (next_fetch as u64) >> 6;
                let slot = (page as usize) % itlb_cap;
                let h = &mut hd1[id.itlb];
                let hit = h.as_mut().is_none_or(|h| h.lookup(page, a));
                let t = &mut trackers[id.itlb];
                if hit {
                    t.read(slot, cycle, a);
                } else {
                    t.write(slot, cycle, a);
                    if let Some(h) = h {
                        h.insert(slot, page);
                    }
                }
                fetched_this_cycle = true;
            }
            if ins.op == OpClass::Branch {
                branch_count += 1;
                let pc = next_fetch as u64;
                let slot = (pc as usize) % btb_cap;
                let h = &mut hd1[id.btb];
                let hit = h.as_mut().is_none_or(|h| h.lookup(pc, a));
                let t = &mut trackers[id.btb];
                if hit {
                    t.read(slot, cycle, a);
                }
                if ins.taken {
                    t.write(slot, cycle, a);
                    if let Some(h) = h {
                        h.insert(slot, pc);
                    }
                }
                // Model call/return pairs as a sparse subset of branches.
                if branch_count.is_multiple_of(16) {
                    trackers[id.ras].write(ras_rr % ras_cap, cycle, a);
                    ras_rr += 1;
                } else if branch_count % 16 == 8 && ras_rr > 0 {
                    ras_rr -= 1;
                    let t = &mut trackers[id.ras];
                    t.read(ras_rr % ras_cap, cycle, a);
                    t.dealloc(ras_rr % ras_cap, cycle);
                }
                if ins.taken {
                    // Redirect bubble: short when the BTB predicted the
                    // target, longer on a BTB miss.
                    fetch_stall_until = cycle + if hit { 2 } else { 5 };
                    next_fetch += 1;
                    break;
                }
            }
            next_fetch += 1;
        }

        cycle += 1;
    }

    // ---- Finalize ----
    let cycles = cycle.max(1);
    let mut structures = BTreeMap::new();
    let instruments = trackers.into_iter().zip(hd1).zip(bitfields);
    for (spec, ((mut t, h), bf)) in specs.iter().zip(instruments) {
        t.finish(cycles);
        let mut s = t.stats(cycles, spec.read_ports, spec.write_ports);
        // Apply the HD-1 factor to CAM structures: tag bits are refined,
        // remaining (data) bits stay fully conservative.
        if let (true, Some(h)) = (config.hd1, h) {
            let tag_bits = f64::from(spec.bits_per_entry.min(48));
            let frac = tag_bits / f64::from(spec.bits_per_entry);
            let blend = frac * h.factor() + (1.0 - frac);
            s.avf *= blend;
            s.port.read *= blend;
            s.port.write *= blend;
            for w in &mut s.windows {
                *w *= blend;
            }
        }
        if let Some(bf) = bf {
            s.fields = bf.finish(cycles, cycles, spec.read_ports, spec.write_ports);
        }
        structures.insert(spec.name.to_owned(), s);
    }

    AceReport {
        workload: trace.name().to_owned(),
        cycles,
        instructions: retired,
        structures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqavf_workloads::suite::MixFamily;
    use seqavf_workloads::trace::{Instr, Reg, TraceBuilder};

    fn small_trace(len: usize, seed: u64) -> Trace {
        MixFamily::builtin()[0].generate(0, len, seed)
    }

    #[test]
    fn model_retires_all_instructions() {
        let t = small_trace(2_000, 1);
        let r = run_ace(&t, &PerfConfig::default());
        assert_eq!(r.instructions, 2_000);
        assert!(r.cycles > 400, "cycles = {}", r.cycles);
        let ipc = r.ipc();
        assert!(ipc > 0.3 && ipc <= 4.0, "ipc = {ipc}");
    }

    #[test]
    fn all_structures_reported() {
        let t = small_trace(1_000, 2);
        let r = run_ace(&t, &PerfConfig::default());
        for spec in catalog() {
            assert!(r.structures.contains_key(spec.name), "{}", spec.name);
        }
    }

    #[test]
    fn avfs_and_pavfs_in_range() {
        let t = small_trace(3_000, 3);
        let r = run_ace(&t, &PerfConfig::default());
        for (name, s) in &r.structures {
            assert!((0.0..=1.0).contains(&s.avf), "{name} avf {}", s.avf);
            assert!((0.0..=1.0).contains(&s.port.read), "{name}");
            assert!((0.0..=1.0).contains(&s.port.write), "{name}");
        }
    }

    #[test]
    fn busy_structures_have_nonzero_pavf() {
        let t = small_trace(3_000, 4);
        let r = run_ace(&t, &PerfConfig::default());
        for name in ["rob", "issue_queue", "fetch_buffer", "uop_queue"] {
            let s = &r.structures[name];
            assert!(s.port.read > 0.0, "{name} read pAVF zero");
            assert!(s.port.write > 0.0, "{name} write pAVF zero");
        }
    }

    #[test]
    fn nop_heavy_trace_has_lower_pavf() {
        let mut tb = TraceBuilder::new("nops");
        for _ in 0..2_000 {
            tb.push(Instr::nop());
        }
        let nops = run_ace(&tb.finish(), &PerfConfig::default());
        let busy = run_ace(&small_trace(2_000, 5), &PerfConfig::default());
        assert!(
            nops.structures["rob"].port.read < busy.structures["rob"].port.read,
            "un-ACE NOP stream must reduce ACE read rate"
        );
        assert_eq!(nops.structures["rob"].ace_reads, 0);
    }

    #[test]
    fn deterministic_for_same_trace() {
        let t = small_trace(1_500, 6);
        let a = run_ace(&t, &PerfConfig::default());
        let b = run_ace(&t, &PerfConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn bitfield_refinement_lowers_control_structure_pavf() {
        let t = small_trace(4_000, 7);
        let r = run_ace(&t, &PerfConfig::default());
        let rob = &r.structures["rob"];
        assert!(!rob.fields.is_empty());
        let refined = rob.refined_port();
        assert!(
            refined.read <= rob.port.read,
            "refined {} > aggregate {}",
            refined.read,
            rob.port.read
        );
    }

    #[test]
    fn bitfield_can_be_disabled() {
        let t = small_trace(1_000, 8);
        let cfg = PerfConfig {
            bitfield: false,
            ..PerfConfig::default()
        };
        let r = run_ace(&t, &cfg);
        assert!(r.structures["rob"].fields.is_empty());
    }

    #[test]
    fn hd1_refines_cam_avf() {
        let t = small_trace(4_000, 9);
        let with = run_ace(&t, &PerfConfig::default());
        let without = run_ace(
            &t,
            &PerfConfig {
                hd1: false,
                ..PerfConfig::default()
            },
        );
        // HD-1 can only lower (or keep) CAM structure AVFs.
        for name in ["dtlb", "itlb", "btb"] {
            assert!(
                with.structures[name].avf <= without.structures[name].avf + 1e-12,
                "{name}"
            );
        }
    }

    #[test]
    fn dependent_chain_stalls_pipeline() {
        // A fully serial dependence chain should get much lower IPC than an
        // independent stream.
        let mut serial = TraceBuilder::new("serial");
        for _ in 0..1_000 {
            serial.push(Instr::alu(OpClass::IntMul, Reg::new(1), Reg::new(1), None));
        }
        let mut parallel = TraceBuilder::new("parallel");
        for i in 0..1_000u32 {
            parallel.push(Instr::alu(
                OpClass::IntAlu,
                Reg::new((i % 24) as u8),
                Reg::new(30),
                None,
            ));
        }
        let s = run_ace(&serial.finish(), &PerfConfig::default());
        let p = run_ace(&parallel.finish(), &PerfConfig::default());
        assert!(
            s.ipc() < p.ipc() * 0.6,
            "serial ipc {} vs parallel {}",
            s.ipc(),
            p.ipc()
        );
    }

    #[test]
    fn md5_kernel_runs_and_is_alu_bound() {
        let t = seqavf_workloads::kernels::md5::md5_trace(&Default::default());
        let r = run_ace(&t, &PerfConfig::default());
        assert_eq!(r.instructions as usize, t.len());
        assert_eq!(r.structures["load_queue"].writes, 0);
        assert_eq!(r.structures["store_queue"].writes, 0);
    }

    #[test]
    fn quantized_windows_reconstruct_scalar_avf() {
        let t = small_trace(3_000, 21);
        let cfg = PerfConfig {
            quantize_window: Some(256),
            ..PerfConfig::default()
        };
        let r = run_ace(&t, &cfg);
        for (name, s) in &r.structures {
            assert!(!s.windows.is_empty(), "{name} has no window series");
            for w in &s.windows {
                assert!((0.0..=1.0).contains(w), "{name}");
            }
            // The length-weighted window mean reproduces Equation 3.
            let window = 256u64;
            let mut weighted = 0.0;
            for (i, w) in s.windows.iter().enumerate() {
                let start = i as u64 * window;
                let len = window.min(r.cycles - start) as f64;
                weighted += w * len;
            }
            let mean = weighted / r.cycles as f64;
            assert!(
                (mean - s.avf).abs() < 1e-9,
                "{name}: windowed mean {mean} vs scalar {}",
                s.avf
            );
        }
        // Windowing off by default.
        let plain = run_ace(&t, &PerfConfig::default());
        assert!(plain.structures["rob"].windows.is_empty());
    }

    #[test]
    fn lattice_kernel_exercises_memory_structures() {
        let t = seqavf_workloads::kernels::lattice::lattice_trace(&Default::default());
        let r = run_ace(&t, &PerfConfig::default());
        assert!(r.structures["load_queue"].writes > 0);
        assert!(r.structures["store_queue"].writes > 0);
        assert!(r.structures["dtlb"].reads + r.structures["dtlb"].writes > 0);
    }
}
