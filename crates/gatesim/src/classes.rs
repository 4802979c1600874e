//! Energy classes: the nets a power model prices alike.
//!
//! A toggle costs the energy of the cell that drives the net, loaded by
//! the net's fanout, and is billed to that cell's region. Nets that share
//! all three keys are interchangeable to the power model, so activity is
//! counted per *class*, not per net: 19 k nets on the largest bundled
//! core fall in about 400 classes. [`ClassMap`] is the one assignment the
//! batch engine counts by (its tape lays each class out contiguously) and
//! `strober-power` prices by.

use std::collections::HashMap;
use strober_gates::{CellKind, NetId, Netlist};

/// What a power model prices a toggle by: the driving cell's region,
/// kind and output fanout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnergyClass {
    /// Index into [`Netlist::regions`].
    pub region: u32,
    /// The driving cell.
    pub kind: CellKind,
    /// Gate, macro and output pins the net drives ([`Netlist::fanout`]).
    pub fanout: u32,
}

/// Marks a net no gate drives in [`ClassMap`]'s per-net table.
const UNCLASSED: u32 = u32::MAX;

/// Every priced net's [`EnergyClass`]: each gate output, flip-flops
/// included. Nets with no driving gate — primary inputs and SRAM read
/// data — are not priced and have no class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMap {
    /// The distinct classes, in ascending (region, kind, fanout) order.
    classes: Vec<EnergyClass>,
    /// Per net, an index into `classes`, or [`UNCLASSED`].
    of_net: Vec<u32>,
}

impl ClassMap {
    /// Classifies every gate output of `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        let fanout = netlist.fanout();
        // Number the classes as first seen, then renumber them in order:
        // sorting the few hundred classes, not the ~20 k nets.
        let mut seen: HashMap<EnergyClass, u32> = HashMap::new();
        let mut classes = Vec::new();
        let mut of_net = vec![UNCLASSED; netlist.net_count()];
        for g in netlist.gates() {
            let out = g.output().index();
            let class = EnergyClass {
                region: g.region(),
                kind: g.kind(),
                fanout: fanout[out],
            };
            of_net[out] = *seen.entry(class).or_insert_with(|| {
                classes.push(class);
                classes.len() as u32 - 1
            });
        }
        let mut order: Vec<u32> = (0..classes.len() as u32).collect();
        order.sort_unstable_by_key(|&c| classes[c as usize]);
        let mut rank = vec![0; classes.len()];
        for (r, &c) in order.iter().enumerate() {
            rank[c as usize] = r as u32;
        }
        for class in of_net.iter_mut().filter(|c| **c != UNCLASSED) {
            *class = rank[*class as usize];
        }
        let classes = order.iter().map(|&c| classes[c as usize]).collect();
        ClassMap { classes, of_net }
    }

    /// The classes, in ascending (region, kind, fanout) order: a class's
    /// index is its position here.
    pub fn classes(&self) -> &[EnergyClass] {
        &self.classes
    }

    /// The class of `net`, or `None` if no gate drives it.
    pub fn class_of(&self, net: NetId) -> Option<usize> {
        match self.of_net[net.index()] {
            UNCLASSED => None,
            class => Some(class as usize),
        }
    }

    /// Per-net counts (indexed by net id) summed per class.
    ///
    /// # Panics
    ///
    /// Panics if `per_net` is not one count per net of the netlist.
    pub fn totals(&self, per_net: &[u64]) -> Vec<u64> {
        assert_eq!(per_net.len(), self.of_net.len(), "one count per net");
        let mut totals = vec![0; self.classes.len()];
        for (&class, &count) in self.of_net.iter().zip(per_net) {
            if class != UNCLASSED {
                totals[class as usize] += count;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two inverters and a flop in region `a`, one inverter in region
    /// `b`; every output drives one output port.
    fn netlist() -> (Netlist, [NetId; 5]) {
        let mut nl = Netlist::new("classes");
        let a = nl.intern_region("a");
        let b = nl.intern_region("b");
        let x = nl.add_net("x");
        nl.add_input("x", x);
        let nets = ["i0", "i1", "i2", "q"].map(|n| nl.add_net(n));
        nl.add_gate(CellKind::Inv, vec![x], nets[0], a);
        nl.add_gate(CellKind::Inv, vec![x], nets[1], a);
        nl.add_gate(CellKind::Inv, vec![x], nets[2], b);
        nl.add_dff("r", nets[0], nets[3], false, a);
        for (i, &n) in nets.iter().enumerate() {
            nl.add_output(format!("o{i}"), n);
        }
        (nl, [x, nets[0], nets[1], nets[2], nets[3]])
    }

    #[test]
    fn nets_sharing_all_three_keys_share_a_class() {
        let (nl, [x, i0, i1, i2, q]) = netlist();
        let map = ClassMap::new(&nl);
        assert_eq!(map.class_of(x), None, "an input has no driving gate");
        // i0 drives the flop and a port; i1 only a port.
        assert_ne!(map.class_of(i0), map.class_of(i1), "fanout differs");
        assert_ne!(map.class_of(i1), map.class_of(i2), "region differs");
        let q_class = map.classes()[map.class_of(q).unwrap()];
        assert_eq!((q_class.kind, q_class.fanout), (CellKind::Dff, 1));
        assert_eq!(map.classes().len(), 4);
        assert!(map.classes().windows(2).all(|p| p[0] < p[1]));
        let totals = map.totals(&[7, 1, 2, 3, 4]);
        assert_eq!(
            totals.iter().sum::<u64>(),
            10,
            "the input's count is dropped"
        );
    }

    #[test]
    fn same_region_kind_and_fanout_is_one_class() {
        let mut nl = Netlist::new("same");
        let x = nl.add_net("x");
        nl.add_input("x", x);
        let outs: Vec<NetId> = (0..3)
            .map(|i| {
                let n = nl.add_net(format!("n{i}"));
                nl.add_gate(CellKind::Inv, vec![x], n, 0);
                n
            })
            .collect();
        let map = ClassMap::new(&nl);
        assert_eq!(map.classes().len(), 1);
        assert!(outs.iter().all(|&n| map.class_of(n) == Some(0)));
        assert_eq!(map.totals(&[9, 1, 2, 3]), vec![6]);
    }
}
