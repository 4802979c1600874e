//! Batched replay's state-load plan: where each piece of a snapshot's
//! scanned state lands in the gate-level netlist, resolved once per
//! session from the FAME scan chain, the verified name map and the gate
//! tape, so every batch packs and loads its lanes by index.

use crate::error::StroberError;
use std::ops::Range;
use strober_fame::{FameMeta, FameSnapshot};
use strober_formal::NameMap;
use strober_gatesim::{GateSimError, SramImage, Tape};

/// One scan-chain register of the plan.
#[derive(Debug)]
struct RegLoad {
    name: String,
    /// Its bits, LSB first, load into the flip-flops
    /// `LoadPlan::dffs[range]`; `None` for a retimed register, which the
    /// warmup prefix recovers instead (§IV-C3).
    dffs: Option<Range<usize>>,
}

/// One scanned memory of the plan.
#[derive(Debug)]
struct MemLoad {
    name: String,
    /// Words a snapshot carries for it.
    depth: usize,
    /// The SRAM macro it loads into, as a tape index.
    sram: usize,
}

/// The resolved load of a session's snapshots: per scan-chain register,
/// in chain order, the tape indices of its flip-flops; per scanned
/// memory, in scan order, an SRAM index.
#[derive(Debug)]
pub(crate) struct LoadPlan {
    regs: Vec<RegLoad>,
    /// Flip-flop tape indices of every mapped register, in chain order.
    dffs: Vec<usize>,
    mems: Vec<MemLoad>,
}

/// What [`LoadPlan::pack`] hands the loader: one `(flop index, packed
/// word)` per mapped flip-flop, and one image per lane per memory.
pub(crate) type Packed<'a> = (Vec<(usize, u64)>, Vec<SramImage<'a>>);

impl LoadPlan {
    /// Resolves the plan.
    ///
    /// # Errors
    ///
    /// [`StroberError::UnmappedState`] for a scanned register or memory
    /// the name map does not cover (every snapshot would carry it), and
    /// [`GateSimError::UnknownName`] for a mapped instance the tape does
    /// not have.
    pub(crate) fn new(
        meta: &FameMeta,
        name_map: &NameMap,
        tape: &Tape,
    ) -> Result<Self, StroberError> {
        let unmapped = |name: &String| StroberError::UnmappedState { name: name.clone() };
        let mut dffs = Vec::new();
        let mut regs = Vec::with_capacity(meta.scan_chain.len());
        for elem in &meta.scan_chain {
            let name = &elem.rtl_name;
            let range = if name_map.retimed.contains(name) {
                None
            } else {
                let start = dffs.len();
                for dff in name_map.regs.get(name).ok_or_else(|| unmapped(name))? {
                    dffs.push(
                        tape.dff_index(dff)
                            .ok_or_else(|| GateSimError::UnknownName {
                                kind: "flip-flop",
                                name: dff.clone(),
                            })?,
                    );
                }
                Some(start..dffs.len())
            };
            regs.push(RegLoad {
                name: name.clone(),
                dffs: range,
            });
        }
        let mut mems = Vec::with_capacity(meta.mem_scans.len());
        for mem in &meta.mem_scans {
            let instance = name_map
                .mems
                .get(&mem.rtl_name)
                .ok_or_else(|| unmapped(&mem.rtl_name))?;
            let sram = tape
                .sram_index(instance)
                .ok_or_else(|| GateSimError::UnknownName {
                    kind: "SRAM macro",
                    name: instance.clone(),
                })?;
            mems.push(MemLoad {
                name: mem.rtl_name.clone(),
                depth: mem.depth,
                sram,
            });
        }
        Ok(LoadPlan { regs, dffs, mems })
    }

    /// Packs one batch, snapshot `l` into lane `l`: bit `l` of each
    /// flip-flop's word is that snapshot's value, and each memory image
    /// borrows the snapshot's own words.
    ///
    /// # Errors
    ///
    /// Whatever [`LoadPlan::check`] finds in any snapshot.
    pub(crate) fn pack<'a>(
        &self,
        snapshots: &[&'a FameSnapshot],
        name_map: &NameMap,
    ) -> Result<Packed<'a>, StroberError> {
        let mut words = vec![0u64; self.dffs.len()];
        let mut images = Vec::with_capacity(snapshots.len() * self.mems.len());
        for (lane, snap) in snapshots.iter().enumerate() {
            self.check(snap, name_map)?;
            for (&(_, value), reg) in snap.regs.iter().zip(&self.regs) {
                let Some(range) = reg.dffs.clone() else {
                    continue;
                };
                for (bit, word) in words[range].iter_mut().enumerate() {
                    *word |= ((value >> bit) & 1) << lane;
                }
            }
            for ((_, contents), mem) in snap.mems.iter().zip(&self.mems) {
                images.push(SramImage {
                    sram: mem.sram,
                    lane,
                    words: contents,
                });
            }
        }
        Ok((self.dffs.iter().copied().zip(words).collect(), images))
    }

    /// Checks that `snap` carries the plan's registers and memories, in
    /// its order, with its memory depths. A snapshot that does not is
    /// refused with [`StroberError::UnmappedState`] when it names state
    /// the name map does not cover — what a load by name reports for it
    /// — and with [`StroberError::SnapshotLayoutMismatch`] otherwise.
    fn check(&self, snap: &FameSnapshot, name_map: &NameMap) -> Result<(), StroberError> {
        let Some(detail) = self.difference(snap) else {
            return Ok(());
        };
        let unmapped_reg =
            snap.regs.iter().map(|(name, _)| name).find(|&name| {
                !name_map.regs.contains_key(name) && !name_map.retimed.contains(name)
            });
        let unmapped_mem = || {
            snap.mems
                .iter()
                .map(|(name, _)| name)
                .find(|&name| !name_map.mems.contains_key(name))
        };
        Err(match unmapped_reg.or_else(unmapped_mem) {
            Some(name) => StroberError::UnmappedState { name: name.clone() },
            None => StroberError::SnapshotLayoutMismatch {
                cycle: snap.cycle,
                detail,
            },
        })
    }

    /// The first way `snap` differs from the plan, if any.
    fn difference(&self, snap: &FameSnapshot) -> Option<String> {
        if snap.regs.len() != self.regs.len() {
            return Some(format!(
                "{} registers where the scan chain has {}",
                snap.regs.len(),
                self.regs.len()
            ));
        }
        for (i, ((name, _), reg)) in snap.regs.iter().zip(&self.regs).enumerate() {
            if *name != reg.name {
                return Some(format!(
                    "register {i} is `{name}` where the scan chain has `{}`",
                    reg.name
                ));
            }
        }
        if snap.mems.len() != self.mems.len() {
            return Some(format!(
                "{} memories where the scan chain has {}",
                snap.mems.len(),
                self.mems.len()
            ));
        }
        for (i, ((name, contents), mem)) in snap.mems.iter().zip(&self.mems).enumerate() {
            if *name != mem.name {
                return Some(format!(
                    "memory {i} is `{name}` where the scan chain has `{}`",
                    mem.name
                ));
            }
            if contents.len() != mem.depth {
                return Some(format!(
                    "memory `{name}` has {} words, not {}",
                    contents.len(),
                    mem.depth
                ));
            }
        }
        None
    }
}
