//! A deliberately naive tree-walking reference interpreter.
//!
//! Used for differential testing of the compiled-tape [`crate::Simulator`]
//! and as the "unoptimised software simulator" baseline in the ablation
//! benchmarks (DESIGN.md §4). It re-walks the expression tree of every
//! register input, memory port and output each cycle, memoising per cycle.
//!
//! This is the slowest rung of the engine ladder and the trust anchor for
//! the faster ones: the optimized tape (DESIGN.md §11) and the native
//! settle compiled from it ([`crate::Simulator::attach_jit`], DESIGN.md
//! §16) are both held bit-identical to this interpreter by the golden
//! equivalence suites and by the fuzz oracle matrix, which uses it as the
//! reference lane for every other engine.

use crate::engine::Engine;
use crate::error::SimError;
use crate::state::SimState;
use std::collections::HashMap;
use strober_rtl::{Design, Node, NodeId, PortId};

/// A tree-walking interpreter with identical semantics to
/// [`crate::Simulator`].
#[derive(Debug, Clone)]
pub struct NaiveInterpreter {
    design: Design,
    regs: Vec<u64>,
    mems: Vec<Vec<u64>>,
    inputs: HashMap<String, u64>,
    cycle: u64,
}

impl NaiveInterpreter {
    /// Creates an interpreter for a validated design.
    ///
    /// # Errors
    ///
    /// Returns the design's validation error if it is malformed.
    pub fn new(design: &Design) -> Result<Self, strober_rtl::RtlError> {
        design.validate()?;
        let regs = design.registers().map(|(_, r)| r.init()).collect();
        let mems = design
            .memories()
            .map(|(_, m)| {
                let mut v = m.init().to_vec();
                v.resize(m.depth(), 0);
                v
            })
            .collect();
        Ok(NaiveInterpreter {
            design: design.clone(),
            regs,
            mems,
            inputs: HashMap::new(),
            cycle: 0,
        })
    }

    /// Sets a top-level input by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for an unknown port.
    pub fn poke_by_name(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        if self.design.port_by_name(name).is_none() {
            return Err(SimError::UnknownName {
                kind: "input port",
                name: name.to_owned(),
            });
        }
        self.inputs.insert(name.to_owned(), value);
        Ok(())
    }

    fn eval(&self, id: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
        if let Some(&v) = memo.get(&id) {
            return v;
        }
        let w = self.design.width(id);
        let v = match *self.design.node(id) {
            Node::Input(p) => {
                let port = &self.design.ports()[p.index()];
                self.inputs.get(port.name()).copied().unwrap_or(0)
            }
            Node::Const(c) => c,
            Node::Unary { op, a } => op.eval(self.eval(a, memo), self.design.width(a)),
            Node::Binary { op, a, b } => {
                op.eval(self.eval(a, memo), self.eval(b, memo), self.design.width(a))
            }
            Node::Mux { sel, t, f } => {
                if self.eval(sel, memo) != 0 {
                    self.eval(t, memo)
                } else {
                    self.eval(f, memo)
                }
            }
            Node::Slice { a, hi, lo } => {
                let mask = strober_rtl::Width::new(hi - lo + 1)
                    .expect("validated")
                    .mask();
                (self.eval(a, memo) >> lo) & mask
            }
            Node::Cat { hi, lo } => {
                let shift = self.design.width(lo).bits();
                (self.eval(hi, memo) << shift) | self.eval(lo, memo)
            }
            Node::RegOut(r) => self.regs[r.index()],
            Node::MemRead { mem, port } => {
                let addr_node = self.design.memory(mem).read_ports()[port].addr();
                let addr = self.eval(addr_node, memo) as usize;
                self.mems[mem.index()].get(addr).copied().unwrap_or(0)
            }
            Node::Wire(wid) => {
                let src = self.design.wire_driver(wid).expect("validated");
                self.eval(src, memo)
            }
        };
        let v = v & w.mask();
        memo.insert(id, v);
        v
    }

    /// Advances one clock cycle.
    pub fn step(&mut self) {
        let mut memo = HashMap::new();
        let reg_info: Vec<(NodeId, Option<NodeId>, u64)> = self
            .design
            .registers()
            .map(|(_, r)| (r.next().expect("validated"), r.enable(), r.width().mask()))
            .collect();
        let mut new_regs = Vec::with_capacity(self.regs.len());
        for (i, (next, enable, mask)) in reg_info.iter().enumerate() {
            let en = enable.is_none_or(|e| self.eval(e, &mut memo) != 0);
            new_regs.push(if en {
                self.eval(*next, &mut memo) & mask
            } else {
                self.regs[i]
            });
        }
        let mut writes = Vec::new();
        for (mid, m) in self.design.memories() {
            for wp in m.write_ports() {
                writes.push((mid, wp.addr(), wp.data(), wp.enable()));
            }
        }
        for (mid, addr, data, enable) in writes {
            if self.eval(enable, &mut memo) != 0 {
                let a = self.eval(addr, &mut memo) as usize;
                let d = self.eval(data, &mut memo);
                if let Some(slot) = self.mems[mid.index()].get_mut(a) {
                    *slot = d;
                }
            }
        }
        self.regs = new_regs;
        self.cycle += 1;
    }

    /// Advances `n` cycles.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Reads a named output.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for an unknown output.
    pub fn peek_output(&mut self, name: &str) -> Result<u64, SimError> {
        let id = self
            .design
            .output_by_name(name)
            .ok_or_else(|| SimError::UnknownName {
                kind: "output",
                name: name.to_owned(),
            })?;
        let mut memo = HashMap::new();
        Ok(self.eval(id, &mut memo))
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Captures the complete architectural state.
    pub fn state(&self) -> SimState {
        SimState {
            regs: self.regs.clone(),
            mems: self.mems.clone(),
            cycle: self.cycle,
        }
    }

    /// Reads any node's value with a fresh per-call memo.
    pub fn peek(&self, node: NodeId) -> u64 {
        self.eval(node, &mut HashMap::new())
    }
}

impl Engine for NaiveInterpreter {
    fn poke(&mut self, port: PortId, value: u64) {
        let p = &self.design.ports()[port.index()];
        let masked = value & p.width().mask();
        let name = p.name().to_owned();
        self.inputs.insert(name, masked);
    }

    fn peek(&mut self, node: NodeId) -> u64 {
        NaiveInterpreter::peek(self, node)
    }

    /// A no-op: the interpreter evaluates on demand from a fresh memo at
    /// every read, so there is no settled cache to build.
    fn settle(&mut self) {}

    fn clock_edge(&mut self) {
        self.step();
    }

    fn state(&self) -> SimState {
        NaiveInterpreter::state(self)
    }

    fn engine_name(&self) -> &'static str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_rtl::Width;

    #[test]
    fn naive_matches_counter_semantics() {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.reg("count", Width::new(8).unwrap(), 0);
        count.set_en(&count.out().add_lit(3), &en);
        ctx.output("value", &count.out());
        let design = ctx.finish().unwrap();

        let mut interp = NaiveInterpreter::new(&design).unwrap();
        interp.poke_by_name("en", 1).unwrap();
        interp.step_n(4);
        assert_eq!(interp.peek_output("value").unwrap(), 12);
        assert_eq!(interp.cycle(), 4);
    }
}
