//! Host-time attribution by node kind, measured from outside the engine.
//!
//! The benchmark attaches an [`Attributor`] to a device's simulator for the
//! length of one probe call. It timestamps every `FrameDelivered` callback
//! and charges the host time until the next one to the kind of node that
//! received the frame. Time before the first delivery and after the last
//! one is left unattributed (it is reported as probe time).
//!
//! Blind spots, by construction: timer-only events and link
//! transmit-completions raise no callback, so their cost lands on the kind
//! of the last node that received a frame; so does the probe driver's own
//! work between `run_for` slices.

use std::any::Any;
use std::time::Instant as HostInstant;

use hgw_core::{Instant, NodeId, SimObserver, TraceEvent};
use hgw_testbed::Testbed;

/// The node kinds time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// LAN hosts and the WAN server (the host TCP/UDP stack).
    Host = 0,
    /// The gateway under test (NAT table, rewrite, forwarding engine).
    Gateway = 1,
    /// The household LAN switch.
    Switch = 2,
}

/// Every [`NodeClass`], in index order.
pub const CLASSES: [NodeClass; 3] = [NodeClass::Host, NodeClass::Gateway, NodeClass::Switch];

/// The attributed host time of one or more traced probe calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Host nanoseconds inside the probe calls.
    pub probe_ns: u64,
    /// Host nanoseconds charged to each [`NodeClass`].
    pub self_ns: [u64; 3],
    /// Frames delivered to each [`NodeClass`].
    pub frames: [u64; 3],
    /// Probe nanoseconds before the first and after the last delivery.
    pub unattributed_ns: u64,
}

impl Ledger {
    /// Adds another ledger's totals to this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.probe_ns += other.probe_ns;
        self.unattributed_ns += other.unattributed_ns;
        for i in 0..CLASSES.len() {
            self.self_ns[i] += other.self_ns[i];
            self.frames[i] += other.frames[i];
        }
    }

    /// Share of probe time charged to `class`.
    pub fn share(&self, class: NodeClass) -> f64 {
        self.self_ns[class as usize] as f64 / self.probe_ns.max(1) as f64
    }

    /// Share of probe time no delivery callback covers.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.probe_ns.max(1) as f64
    }

    /// Host nanoseconds charged to `class` per frame it received; `None`
    /// when it received none.
    pub fn ns_per_frame(&self, class: NodeClass) -> Option<f64> {
        let frames = self.frames[class as usize];
        (frames > 0).then(|| self.self_ns[class as usize] as f64 / frames as f64)
    }
}

/// The attribution arithmetic over nanosecond offsets from the probe's
/// start, kept apart from the clock so it can be tested exactly.
#[derive(Debug, Default)]
pub struct Charges {
    first: Option<u64>,
    last: Option<(u64, NodeClass)>,
    self_ns: [u64; 3],
    frames: [u64; 3],
}

impl Charges {
    /// Records a delivery to `class` at `at_ns`, closing the interval the
    /// previous delivery opened.
    pub fn delivered(&mut self, at_ns: u64, class: NodeClass) {
        match self.last {
            Some((t, prev)) => self.self_ns[prev as usize] += at_ns.saturating_sub(t),
            None => self.first = Some(at_ns),
        }
        self.frames[class as usize] += 1;
        self.last = Some((at_ns, class));
    }

    /// Closes the ledger of a probe that ran from 0 to `end_ns`.
    pub fn finish(&self, end_ns: u64) -> Ledger {
        let unattributed_ns = match (self.first, self.last) {
            (Some(first), Some((last, _))) => first + end_ns.saturating_sub(last),
            _ => end_ns,
        };
        Ledger { probe_ns: end_ns, self_ns: self.self_ns, frames: self.frames, unattributed_ns }
    }
}

/// The [`SimObserver`] the benchmark attaches inside its probe closure.
pub struct Attributor {
    start: HostInstant,
    classes: Vec<Option<NodeClass>>,
    charges: Charges,
}

impl Attributor {
    /// An attributor for `tb`'s nodes whose probe starts at `start`.
    pub fn new(tb: &Testbed, start: HostInstant) -> Attributor {
        let mut known: Vec<(NodeId, NodeClass)> =
            tb.hosts.iter().map(|&h| (h, NodeClass::Host)).collect();
        known.push((tb.server, NodeClass::Host));
        known.push((tb.gateway, NodeClass::Gateway));
        // Multi-host testbeds fan in through a switch of this name.
        if let Some(sw) = tb.try_node_id("lan-switch") {
            known.push((sw, NodeClass::Switch));
        }
        let len = known.iter().map(|(id, _)| id.0 + 1).max().unwrap_or(0);
        let mut classes = vec![None; len];
        for (id, class) in known {
            classes[id.0] = Some(class);
        }
        Attributor { start, classes, charges: Charges::default() }
    }

    /// Closes the ledger at `end`, the instant the probe call returned.
    pub fn finish(&self, end: HostInstant) -> Ledger {
        self.charges.finish(end.duration_since(self.start).as_nanos() as u64)
    }
}

impl SimObserver for Attributor {
    fn on_event(&mut self, _at: Instant, node: NodeId, event: &TraceEvent) {
        if let TraceEvent::FrameDelivered { .. } = event {
            let at_ns = self.start.elapsed().as_nanos() as u64;
            let class = self
                .classes
                .get(node.0)
                .copied()
                .flatten()
                .unwrap_or_else(|| panic!("frame delivered to unclassified node {}", node.0));
            self.charges.delivered(at_ns, class);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_plus_unattributed_equal_probe_time() {
        let mut c = Charges::default();
        c.delivered(100, NodeClass::Host);
        c.delivered(250, NodeClass::Gateway);
        c.delivered(400, NodeClass::Host);
        c.delivered(700, NodeClass::Switch);
        let l = c.finish(1_000);
        assert_eq!(l.self_ns, [150 + 300, 150, 0]);
        assert_eq!(l.frames, [2, 1, 1]);
        // 100 ns before the first delivery, 300 ns after the last.
        assert_eq!(l.unattributed_ns, 400);
        assert_eq!(l.self_ns.iter().sum::<u64>() + l.unattributed_ns, l.probe_ns);
        let shares: f64 = CLASSES.iter().map(|&k| l.share(k)).sum::<f64>() + l.unattributed_share();
        assert!((shares - 1.0).abs() < 1e-12);
        assert_eq!(l.ns_per_frame(NodeClass::Host), Some(225.0));
        assert_eq!(l.ns_per_frame(NodeClass::Switch), Some(0.0));
    }

    #[test]
    fn a_probe_without_deliveries_is_all_unattributed() {
        let l = Charges::default().finish(5_000);
        assert_eq!(l.unattributed_ns, 5_000);
        assert_eq!(l.unattributed_share(), 1.0);
        assert_eq!(l.ns_per_frame(NodeClass::Gateway), None);
    }

    #[test]
    fn merged_ledgers_keep_the_identity() {
        let mut a = Charges::default();
        a.delivered(10, NodeClass::Gateway);
        a.delivered(30, NodeClass::Host);
        let mut b = Charges::default();
        b.delivered(5, NodeClass::Switch);
        let mut total = a.finish(100);
        total.merge(&b.finish(50));
        assert_eq!(total.probe_ns, 150);
        assert_eq!(total.self_ns.iter().sum::<u64>() + total.unattributed_ns, total.probe_ns);
        assert_eq!(total.frames, [1, 1, 1]);
    }
}
