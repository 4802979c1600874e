//! The DRAM timing model and activity counters.

use strober_platform::{HostModel, OutputView, TargetInput, TargetOutput};

/// The core memory-interface ports of a FAME hub, resolved once on the
/// first [`HostModel::tick`] so the per-cycle loop never hashes a name.
#[derive(Debug, Clone, Copy)]
struct HubPorts {
    resp_valid: TargetInput,
    resp_tag: TargetInput,
    resp_rdata: TargetInput,
    req_valid: TargetOutput,
    req_rw: TargetOutput,
    req_addr: TargetOutput,
    req_wdata: TargetOutput,
    req_tag: TargetOutput,
    console_valid: TargetOutput,
    console_byte: TargetOutput,
    tohost: TargetOutput,
    instret: TargetOutput,
}

impl HubPorts {
    fn resolve(io: &OutputView<'_>) -> Self {
        HubPorts {
            resp_valid: io.input("mem_resp_valid"),
            resp_tag: io.input("mem_resp_tag"),
            resp_rdata: io.input("mem_resp_rdata"),
            req_valid: io.output("mem_req_valid"),
            req_rw: io.output("mem_req_rw"),
            req_addr: io.output("mem_req_addr"),
            req_wdata: io.output("mem_req_wdata"),
            req_tag: io.output("mem_req_tag"),
            console_valid: io.output("console_valid"),
            console_byte: io.output("console_byte"),
            tohost: io.output("tohost"),
            instret: io.output("instret"),
        }
    }
}

/// Timing and geometry parameters.
///
/// The defaults follow the paper's experimental setting: an LPDDR2-S4
/// style device with eight banks and 16K rows per bank, a bank-interleaved
/// mapping (adjacent blocks hit different banks) and an open-page policy.
/// `cas_latency_cycles` is the target-clock latency the memory system adds
/// to a row hit — 100 cycles in Table II, and the knob Fig. 7 sweeps.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Cycles from read acceptance to the first beat, row hit.
    pub cas_latency_cycles: u64,
    /// Extra cycles when the access needs a row activation.
    pub row_miss_penalty_cycles: u64,
    /// Number of banks.
    pub banks: u32,
    /// Bytes per row (per bank).
    pub row_bytes: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            cas_latency_cycles: 100,
            row_miss_penalty_cycles: 40,
            banks: 8,
            row_bytes: 2048,
        }
    }
}

/// Request-port activity counters (§IV-D).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramCounters {
    /// Block read operations.
    pub reads: u64,
    /// Posted word writes.
    pub writes: u64,
    /// Row activations (open-page misses).
    pub activations: u64,
    /// Cycles with a read in flight or a request on the bus; the power
    /// calculator treats the remainder as power-down-eligible idle time
    /// (the Micron calculator's CKE-low states).
    pub busy_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    tag: u64,
    base_word: usize,
    beat: u64,
    ready_at: u64,
}

/// Backing storage plus the timing model; drives a core's external memory
/// port as the [`HostModel`] of a FAME hub, whole runs and sampled runs
/// alike (`StroberFlow::run`, `StroberFlow::run_sampled`), or one lane
/// of a gate-level simulation through [`DramModel::tick_gate`].
///
/// Port names are resolved to numeric handles on the first serviced cycle
/// and cached, so one model instance must keep driving the same target it
/// first ticked.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    store: Vec<u32>,
    open_rows: Vec<Option<u32>>,
    counters: DramCounters,
    inflight: Option<Inflight>,
    now: u64,
    console: Vec<u8>,
    tohost: u64,
    instret: u64,
    hub_ports: Option<HubPorts>,
}

impl DramModel {
    /// Creates a model backing `bytes` of memory (zero filled).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of 16 (the block
    /// size).
    pub fn new(cfg: DramConfig, bytes: usize) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(16),
            "memory must be whole blocks"
        );
        let banks = cfg.banks as usize;
        DramModel {
            cfg,
            store: vec![0; bytes / 4],
            open_rows: vec![None; banks],
            counters: DramCounters::default(),
            inflight: None,
            now: 0,
            console: Vec::new(),
            tohost: 0,
            instret: 0,
            hub_ports: None,
        }
    }

    /// Loads a program image at a byte address.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load(&mut self, words: &[u32], byte_addr: u32) {
        let base = (byte_addr / 4) as usize;
        self.store[base..base + words.len()].copy_from_slice(words);
    }

    /// Reads one backing-store word (host-side debug access).
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn read_word(&self, byte_addr: u32) -> u32 {
        self.store[(byte_addr / 4) as usize]
    }

    /// Writes one backing-store word (host-side debug access).
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn write_word(&mut self, byte_addr: u32, value: u32) {
        self.store[(byte_addr / 4) as usize] = value;
    }

    /// The activity counters.
    pub fn counters(&self) -> &DramCounters {
        &self.counters
    }

    /// Bytes captured from the core's console port.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// The core's `tohost` value, once observed nonzero (bit 0 set means
    /// the program halted; the exit code is `tohost >> 1`).
    pub fn tohost(&self) -> Option<u64> {
        if self.tohost & 1 == 1 {
            Some(self.tohost)
        } else {
            None
        }
    }

    /// The exit code, once the program has halted.
    pub fn exit_code(&self) -> Option<u32> {
        self.tohost().map(|t| (t >> 1) as u32)
    }

    /// The core's retired-instruction counter, as last observed.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// `(bank, row)` of a byte address under the bank-interleaved mapping:
    /// adjacent 16-byte blocks land in adjacent banks.
    fn bank_row(&self, addr: u32) -> (usize, u32) {
        let block = addr / 16;
        let bank = (block % self.cfg.banks) as usize;
        let blocks_per_row = self.cfg.row_bytes / 16;
        let row = block / self.cfg.banks / blocks_per_row;
        (bank, row)
    }

    /// Open-page bookkeeping: returns `true` when the access required a
    /// row activation.
    fn access_row(&mut self, addr: u32) -> bool {
        let (bank, row) = self.bank_row(addr);
        if self.open_rows[bank] == Some(row) {
            false
        } else {
            self.open_rows[bank] = Some(row);
            self.counters.activations += 1;
            true
        }
    }

    /// This cycle's response signals `(valid, tag, data)`.
    fn response(&mut self) -> (u64, u64, u64) {
        let mut resp = (0, 0, 0);
        if let Some(inf) = &mut self.inflight {
            if self.now >= inf.ready_at {
                resp = (
                    1,
                    inf.tag,
                    u64::from(self.store[inf.base_word + inf.beat as usize]),
                );
                inf.beat += 1;
            }
        }
        if self.inflight.map(|i| i.beat >= 4).unwrap_or(false) {
            self.inflight = None;
        }
        resp
    }

    /// Consumes this cycle's request signals.
    fn request(&mut self, valid: bool, rw: bool, addr: u32, wdata: u32, tag: u64) {
        if !valid {
            return;
        }
        if rw {
            self.counters.writes += 1;
            self.access_row(addr);
            if let Some(slot) = self.store.get_mut((addr / 4) as usize) {
                *slot = wdata;
            }
        } else {
            assert!(
                self.inflight.is_none(),
                "protocol violation: second outstanding read"
            );
            self.counters.reads += 1;
            let miss = self.access_row(addr);
            let latency = self.cfg.cas_latency_cycles
                + if miss {
                    self.cfg.row_miss_penalty_cycles
                } else {
                    0
                };
            self.inflight = Some(Inflight {
                tag,
                base_word: ((addr & !0xF) / 4) as usize,
                beat: 0,
                ready_at: self.now + latency,
            });
        }
    }

    /// Services one cycle of a gate-level simulation of a core netlist
    /// (used for the full-workload ground-truth runs of Fig. 8): drives
    /// every lane of `sim` alike and reads lane 0, so a one-lane batch is
    /// one gate-level run.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not expose the core memory interface.
    pub fn tick_gate(&mut self, sim: &mut strober_gatesim::BatchSim) {
        let resp = self.response();
        let mut poke = |port, value| sim.poke_port_broadcast(port, value).expect("core port");
        poke("mem_resp_valid", resp.0);
        poke("mem_resp_tag", resp.1);
        poke("mem_resp_rdata", resp.2);
        let mut peek = |port| sim.peek_port_lane(port, 0).expect("core port");
        let valid = peek("mem_req_valid") == 1;
        let rw = peek("mem_req_rw") == 1;
        let addr = peek("mem_req_addr") as u32;
        let wdata = peek("mem_req_wdata") as u32;
        let tag = peek("mem_req_tag");
        self.request(valid, rw, addr, wdata, tag);
        if valid || self.inflight.is_some() {
            self.counters.busy_cycles += 1;
        }
        self.tohost = peek("tohost");
        self.instret = peek("instret");
        sim.step();
        self.now += 1;
    }
}

impl HostModel for DramModel {
    fn tick(&mut self, _cycle: u64, io: &mut OutputView<'_>) {
        let p = *self.hub_ports.get_or_insert_with(|| HubPorts::resolve(io));
        let resp = self.response();
        io.write(p.resp_valid, resp.0);
        io.write(p.resp_tag, resp.1);
        io.write(p.resp_rdata, resp.2);
        let valid = io.read(p.req_valid) == 1;
        let rw = io.read(p.req_rw) == 1;
        let addr = io.read(p.req_addr) as u32;
        let wdata = io.read(p.req_wdata) as u32;
        let tag = io.read(p.req_tag);
        self.request(valid, rw, addr, wdata, tag);
        if valid || self.inflight.is_some() {
            self.counters.busy_cycles += 1;
        }
        if io.read(p.console_valid) == 1 {
            let byte = io.read(p.console_byte) as u8;
            self.console.push(byte);
        }
        self.tohost = io.read(p.tohost);
        self.instret = io.read(p.instret);
        self.now += 1;
    }

    fn is_done(&self) -> bool {
        self.tohost & 1 == 1
    }

    /// A cycle is quiet when no response beat is due, the core puts no
    /// request on the bus and logs no console byte, and `tohost` does not
    /// say halt: then `tick` drives an idle response and changes only
    /// `now`, `busy_cycles` and the `tohost`/`instret` mirrors. The
    /// budget is the distance to the first beat of the read in flight,
    /// 0 while its beats are being delivered, and unbounded with no read
    /// in flight.
    fn quiet_budget(&mut self, _cycle: u64, io: &mut OutputView<'_>) -> u64 {
        let budget = match self.inflight {
            None => u64::MAX,
            Some(inf) => inf.ready_at.saturating_sub(self.now),
        };
        if budget == 0 {
            return 0;
        }
        let p = *self.hub_ports.get_or_insert_with(|| HubPorts::resolve(io));
        io.write(p.resp_valid, 0);
        io.write(p.resp_tag, 0);
        io.write(p.resp_rdata, 0);
        // `tick` acts on a request or console byte when the valid reads
        // 1, and `is_done` on bit 0 of `tohost`: bit 0 covers all three.
        io.guard(p.req_valid, 1);
        io.guard(p.console_valid, 1);
        io.guard(p.tohost, 1);
        budget
    }

    fn skip_quiet(&mut self, cycles: u64) {
        self.now += cycles;
        if self.inflight.is_some() {
            self.counters.busy_cycles += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_interleaving_spreads_adjacent_blocks() {
        let m = DramModel::new(DramConfig::default(), 1 << 16);
        let (b0, _) = m.bank_row(0x00);
        let (b1, _) = m.bank_row(0x10);
        let (b2, _) = m.bank_row(0x20);
        assert_ne!(b0, b1);
        assert_ne!(b1, b2);
        let (b8, r8) = m.bank_row(0x80);
        assert_eq!(b8, b0);
        assert_eq!(r8, 0);
    }

    #[test]
    fn open_page_policy_counts_activations() {
        let mut m = DramModel::new(DramConfig::default(), 1 << 20);
        // Same bank, same row: one activation.
        assert!(m.access_row(0x0));
        assert!(!m.access_row(0x80)); // next block in the same bank row
        assert_eq!(m.counters().activations, 1);
        // Same bank, different row: a new activation.
        let row_span = 2048 * 8; // row_bytes × banks
        assert!(m.access_row(row_span as u32));
        assert_eq!(m.counters().activations, 2);
        // Returning to the old row re-activates.
        assert!(m.access_row(0x0));
        assert_eq!(m.counters().activations, 3);
    }

    #[test]
    fn read_latency_depends_on_row_state() {
        let cfg = DramConfig {
            cas_latency_cycles: 10,
            row_miss_penalty_cycles: 30,
            ..DramConfig::default()
        };
        let mut m = DramModel::new(cfg, 1 << 16);
        m.write_word(0x0, 7);
        // First read: row miss → first beat after 40 cycles.
        m.request(true, false, 0x0, 0, 0);
        let mut first_beat_at = None;
        for _ in 0..100 {
            let (v, _, d) = m.response();
            if v == 1 && first_beat_at.is_none() {
                first_beat_at = Some(m.now);
                assert_eq!(d, 7);
            }
            m.now += 1;
        }
        assert_eq!(first_beat_at, Some(40));
        // Second read of the same row: only CAS latency.
        let start = m.now;
        m.request(true, false, 0x80, 0, 0);
        let mut hit_beat_at = None;
        for _ in 0..100 {
            let (v, _, _) = m.response();
            if v == 1 && hit_beat_at.is_none() {
                hit_beat_at = Some(m.now - start);
            }
            m.now += 1;
        }
        assert_eq!(hit_beat_at, Some(10));
    }

    #[test]
    fn writes_commit_and_count() {
        let mut m = DramModel::new(DramConfig::default(), 1 << 16);
        m.request(true, true, 0x40, 0xBEEF, 1);
        assert_eq!(m.read_word(0x40), 0xBEEF);
        assert_eq!(m.counters().writes, 1);
        assert_eq!(m.counters().reads, 0);
    }

    #[test]
    #[should_panic(expected = "second outstanding read")]
    fn double_read_is_a_protocol_violation() {
        let mut m = DramModel::new(DramConfig::default(), 1 << 16);
        m.request(true, false, 0x0, 0, 0);
        m.request(true, false, 0x100, 0, 0);
    }
}
