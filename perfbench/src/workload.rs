//! The four campaign workloads: their inputs, the probe each device runs,
//! the correctness check of each result, and the counters read after it.

use std::time::Instant as HostInstant;

use hgw_core::{Dir, Duration, SimStats};
use hgw_devices::{all_devices, DeviceProfile, ProfileSpace};
use hgw_gateway::{FwdDir, Gateway, GatewayPolicy};
use hgw_probe::household::{measure_household, HouseholdReport, WorkloadConfig};
use hgw_probe::max_bindings::{measure_max_bindings, MaxBindingsResult};
use hgw_probe::throughput::{run_battery, ThroughputReport};
use hgw_probe::udp_timeout::{measure_udp1, TimeoutMeasurement};
use hgw_testbed::Testbed;

/// LAN hosts behind each gateway in `household` (`fleet_metrics`' leg).
pub const HOUSEHOLD_HOSTS: usize = 4;
/// Concurrent flow slots per host in `household`.
pub const HOUSEHOLD_FLOWS: usize = 8;
/// Virtual seconds of household traffic per device.
pub const HOUSEHOLD_SECS: u64 = 30;
/// Payload bytes of each of the four `tcp2_bulk` transfers.
pub const TCP2_BYTES: u64 = 4 * 1024 * 1024;
/// Connections opened per batch in `tcp4_ramp` (as in `fig10`).
pub const TCP4_BATCH: usize = 32;
/// The ramp's ceiling on connections (as in `fig10`).
pub const TCP4_CEILING: usize = 1100;
/// Synthetic devices in one `udp1_campaign`.
pub const UDP1_DEVICES: usize = 20_000;
/// Server port of the UDP-1 search (as in `fleet_metrics`).
pub const UDP1_PORT: u16 = 20_000;
/// `measure_udp1` bisects until its bracket is at most one second wide.
pub const UDP1_RESOLUTION: Duration = Duration::from_secs(1);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every layer at once: multi-host DHCP, NAT churn, host connects.
    Household,
    /// The per-segment data path at a fixed transfer size.
    Tcp2Bulk,
    /// Connection-state scale: up to 1,024 sockets and bindings.
    Tcp4Ramp,
    /// Set-up and long timers: many synthetic devices, tiny payloads.
    Udp1Campaign,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Household, Workload::Tcp2Bulk, Workload::Tcp4Ramp, Workload::Udp1Campaign];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Household => "household",
            Workload::Tcp2Bulk => "tcp2_bulk",
            Workload::Tcp4Ramp => "tcp4_ramp",
            Workload::Udp1Campaign => "udp1_campaign",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// LAN hosts behind each gateway.
    pub fn hosts(self) -> usize {
        match self {
            Workload::Household => HOUSEHOLD_HOSTS,
            _ => 1,
        }
    }

    /// The household traffic mix of device `tag` in campaign `seed`. Each
    /// device draws its own mix, so a campaign's total work averages over
    /// 34 independent households instead of repeating one 34 times.
    pub fn household_config(seed: u64, tag: &str) -> WorkloadConfig {
        let tag_hash = tag.bytes().fold(seed, |h, b| splitmix64(h ^ u64::from(b)));
        WorkloadConfig {
            flows_per_host: HOUSEHOLD_FLOWS,
            duration: Duration::from_secs(HOUSEHOLD_SECS),
            seed: splitmix64(tag_hash),
            ..WorkloadConfig::default()
        }
    }
}

/// Device profiles of one set-up pass, with their host generation times.
pub struct Profiles {
    /// The devices, in campaign slot order.
    pub devices: Vec<DeviceProfile>,
    /// Host nanoseconds of the whole generation.
    pub total_ns: u64,
    /// Per-device `(start, end)` offsets from the pass start, for
    /// workloads that generate devices one at a time.
    pub per_device: Vec<(u64, u64)>,
}

/// Generates the workload's device profiles for campaign `seed`: the 34
/// Table-1 devices, or `UDP1_DEVICES` profiles sampled from their space.
pub fn generate(w: Workload, seed: u64) -> Profiles {
    let start = HostInstant::now();
    let offset = |t: HostInstant| t.duration_since(start).as_nanos() as u64;
    let (devices, per_device) = match w {
        Workload::Udp1Campaign => {
            // Equivalent to `synthetic_fleet(seed, n)`, timed per device.
            let space = ProfileSpace::from_table1();
            let mut devices = Vec::with_capacity(UDP1_DEVICES);
            let mut per_device = Vec::with_capacity(UDP1_DEVICES);
            for slot in 0..UDP1_DEVICES {
                let t0 = HostInstant::now();
                devices.push(space.sample(seed, slot));
                per_device.push((offset(t0), offset(HostInstant::now())));
            }
            (devices, per_device)
        }
        _ => (all_devices(), Vec::new()),
    };
    Profiles { devices, total_ns: offset(HostInstant::now()), per_device }
}

/// One device's probe result.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeResult {
    /// `measure_household` report (boxed: it dwarfs the other variants).
    Household(Box<HouseholdReport>),
    /// `run_battery` report.
    Tcp2(ThroughputReport),
    /// `measure_max_bindings` result.
    Tcp4(MaxBindingsResult),
    /// `measure_udp1` result.
    Udp1(TimeoutMeasurement),
}

/// Runs the workload's probe on one device's testbed; `household` is the
/// device's traffic mix.
pub fn probe(w: Workload, tb: &mut Testbed, household: &WorkloadConfig) -> ProbeResult {
    match w {
        Workload::Household => ProbeResult::Household(Box::new(measure_household(tb, household))),
        Workload::Tcp2Bulk => ProbeResult::Tcp2(run_battery(tb, TCP2_BYTES)),
        Workload::Tcp4Ramp => ProbeResult::Tcp4(measure_max_bindings(tb, TCP4_BATCH, TCP4_CEILING)),
        Workload::Udp1Campaign => ProbeResult::Udp1(measure_udp1(tb, UDP1_PORT)),
    }
}

/// Checks a result against the device's configured policy. The checks
/// hold at any seed on a correct simulator; `link_bps` is the slowest
/// testbed link's rate.
pub fn check(result: &ProbeResult, policy: &GatewayPolicy, link_bps: u64) -> Result<(), String> {
    match result {
        ProbeResult::Household(r) => {
            // A TCP flow or keepalive session ends completed or abandoned,
            // unless it still holds a slot when the window closes. A DNS
            // query that times out is dropped uncounted (the forwarding
            // engine may tail-drop it under load), so DNS only has to
            // answer no more queries than it was sent.
            let started = r.web_flows.0 + r.bulk_flows.0 + r.keepalive_sessions.0;
            let ended =
                r.web_flows.1 + r.bulk_flows.1 + r.keepalive_sessions.1 + r.connect_failures;
            let slots = (r.hosts * r.flows_per_host) as u64;
            if started > ended + slots || r.dns_queries.1 > r.dns_queries.0 {
                return Err(format!(
                    "household: web {:?} bulk {:?} keepalive {:?} dns {:?} (started, done), \
                     {} abandoned, {slots} slots",
                    r.web_flows,
                    r.bulk_flows,
                    r.keepalive_sessions,
                    r.dns_queries,
                    r.connect_failures
                ));
            }
            Ok(())
        }
        ProbeResult::Tcp2(r) => {
            for (name, t) in [
                ("upload", &r.upload),
                ("download", &r.download),
                ("bidir upload", &r.upload_during_bidir),
                ("bidir download", &r.download_during_bidir),
            ] {
                if !t.completed || t.bytes != TCP2_BYTES {
                    return Err(format!("tcp2 {name}: {} of {TCP2_BYTES} bytes", t.bytes));
                }
                if t.throughput_mbps * 1e6 > link_bps as f64 {
                    return Err(format!(
                        "tcp2 {name}: {} Mb/s exceeds the {link_bps} b/s link",
                        t.throughput_mbps
                    ));
                }
            }
            Ok(())
        }
        ProbeResult::Tcp4(r) => {
            let want = policy.max_bindings.min(TCP4_CEILING);
            if r.max_bindings != want {
                return Err(format!("tcp4: {} bindings, expected {want}", r.max_bindings));
            }
            Ok(())
        }
        ProbeResult::Udp1(m) => {
            let want = policy.udp_timeout_solitary.as_secs_f64();
            let slack = (policy.timer_granularity + UDP1_RESOLUTION).as_secs_f64();
            if (m.timeout_secs - want).abs() > slack {
                return Err(format!(
                    "udp1: measured {} s, configured {want} s (slack {slack} s)",
                    m.timeout_secs
                ));
            }
            Ok(())
        }
    }
}

/// Deterministic simulated counts of one device run (or, summed, of a
/// campaign). A speed-only change must leave every one of them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events dispatched during bring-up.
    pub bringup_events: u64,
    /// Events dispatched during the probe.
    pub events: u64,
    /// Frames delivered during the probe.
    pub frames_delivered: u64,
    /// Frames dropped over the whole device run.
    pub frames_dropped: u64,
    /// Largest link queue seen (maximum over devices).
    pub peak_queue_bytes: u64,
    /// Frames sent on the gateway–server link, both directions.
    pub wan_tx_frames: u64,
    /// Bytes sent on the gateway–server link, both directions.
    pub wan_tx_bytes: u64,
    /// Frames sent on the LAN uplink into the gateway, both directions.
    pub lan_tx_frames: u64,
    /// NAT bindings created.
    pub nat_created: u64,
    /// NAT bindings expired.
    pub nat_expired: u64,
    /// Outbound packets that refreshed an existing binding.
    pub nat_refreshed: u64,
    /// Flows refused by a full NAT table.
    pub nat_refusals: u64,
    /// Most simultaneous bindings (maximum over devices).
    pub nat_peak: u64,
    /// Packets the forwarding engine forwarded, both directions.
    pub engine_forwarded: u64,
    /// Packets the forwarding engine tail-dropped, both directions.
    pub engine_dropped: u64,
    /// Application bytes delivered by completed TCP transfers.
    pub tcp_payload_bytes: u64,
    /// TCP connections the probe started (household and tcp2_bulk only).
    pub tcp_connects: u64,
    /// Of those, the ones that carried their transfer.
    pub tcp_connects_ok: u64,
}

impl Counts {
    /// Reads the counts after a probe; `before` is the simulator's state
    /// when the probe started.
    pub fn read(tb: &Testbed, before: &SimStats, result: &ProbeResult) -> Counts {
        let after = tb.sim.stats();
        let both = |link| {
            let l = tb.sim.link(link);
            let (a, b) = (l.stats(Dir::AtoB), l.stats(Dir::BtoA));
            (a.tx_frames + b.tx_frames, a.tx_bytes + b.tx_bytes)
        };
        let (wan_tx_frames, wan_tx_bytes) = both(tb.wan_link);
        let (lan_tx_frames, _) = both(tb.lan_link);
        let gw = tb.sim.node_ref::<Gateway>(tb.gateway);
        let nat = gw.nat_stats();
        let (up, down) = (gw.engine_stats(FwdDir::Up), gw.engine_stats(FwdDir::Down));
        let (tcp_payload_bytes, tcp_connects, tcp_connects_ok) = match result {
            ProbeResult::Household(r) => {
                let tried = r.web_flows.0 + r.bulk_flows.0;
                (r.bytes_transferred, tried, tried - r.connect_failures)
            }
            ProbeResult::Tcp2(r) => {
                let all = [r.upload, r.download, r.upload_during_bidir, r.download_during_bidir];
                let done = all.iter().filter(|t| t.completed).count() as u64;
                (all.iter().map(|t| t.bytes).sum(), all.len() as u64, done)
            }
            ProbeResult::Tcp4(_) | ProbeResult::Udp1(_) => (0, 0, 0),
        };
        Counts {
            bringup_events: before.events,
            events: after.events - before.events,
            frames_delivered: after.frames_delivered - before.frames_delivered,
            frames_dropped: after.frames_dropped.total(),
            peak_queue_bytes: after.peak_queue_bytes as u64,
            wan_tx_frames,
            wan_tx_bytes,
            lan_tx_frames,
            nat_created: nat.bindings_created,
            nat_expired: nat.bindings_expired,
            nat_refreshed: nat.bindings_refreshed,
            nat_refusals: nat.refusals,
            nat_peak: nat.peak_bindings as u64,
            engine_forwarded: up.forwarded + down.forwarded,
            engine_dropped: up.dropped + down.dropped,
            tcp_payload_bytes,
            tcp_connects,
            tcp_connects_ok,
        }
    }

    /// Adds another run's counts: sums, and maxima for the peaks.
    pub fn add(&mut self, o: &Counts) {
        self.bringup_events += o.bringup_events;
        self.events += o.events;
        self.frames_delivered += o.frames_delivered;
        self.frames_dropped += o.frames_dropped;
        self.peak_queue_bytes = self.peak_queue_bytes.max(o.peak_queue_bytes);
        self.wan_tx_frames += o.wan_tx_frames;
        self.wan_tx_bytes += o.wan_tx_bytes;
        self.lan_tx_frames += o.lan_tx_frames;
        self.nat_created += o.nat_created;
        self.nat_expired += o.nat_expired;
        self.nat_refreshed += o.nat_refreshed;
        self.nat_refusals += o.nat_refusals;
        self.nat_peak = self.nat_peak.max(o.nat_peak);
        self.engine_forwarded += o.engine_forwarded;
        self.engine_dropped += o.engine_dropped;
        self.tcp_payload_bytes += o.tcp_payload_bytes;
        self.tcp_connects += o.tcp_connects;
        self.tcp_connects_ok += o.tcp_connects_ok;
    }
}

/// The splitmix64 finalizer: derives the household traffic seed from the
/// campaign seed so neighbouring seeds give unrelated mixes.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_probe::throughput::TransferResult;

    fn transfer(bytes: u64, mbps: f64) -> TransferResult {
        TransferResult {
            throughput_mbps: mbps,
            delay_ms: 1.0,
            bytes,
            completed: bytes >= TCP2_BYTES,
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn udp1_check_allows_granularity_plus_resolution() {
        let mut p = GatewayPolicy::well_behaved();
        p.udp_timeout_solitary = Duration::from_secs(90);
        p.timer_granularity = Duration::from_secs(2);
        let at = |s: f64| ProbeResult::Udp1(TimeoutMeasurement { timeout_secs: s, trials: 9 });
        assert!(check(&at(92.5), &p, 100_000_000).is_ok());
        assert!(check(&at(87.0), &p, 100_000_000).is_ok());
        assert!(check(&at(93.5), &p, 100_000_000).is_err());
    }

    #[test]
    fn tcp4_check_expects_the_cap_or_the_ceiling() {
        let mut p = GatewayPolicy::well_behaved();
        p.max_bindings = 16;
        let r = |n| {
            ProbeResult::Tcp4(MaxBindingsResult {
                max_bindings: n,
                stopped_because: hgw_probe::max_bindings::StopReason::ConnectFailed,
            })
        };
        assert!(check(&r(16), &p, 1).is_ok());
        assert!(check(&r(15), &p, 1).is_err());
        p.max_bindings = 100_000;
        assert!(check(&r(TCP4_CEILING), &p, 1).is_ok());
    }

    #[test]
    fn tcp2_check_rejects_short_and_faster_than_wire_transfers() {
        let p = GatewayPolicy::well_behaved();
        let ok = transfer(TCP2_BYTES, 90.0);
        let battery = |up| {
            ProbeResult::Tcp2(ThroughputReport {
                upload: up,
                download: ok,
                upload_during_bidir: ok,
                download_during_bidir: ok,
            })
        };
        assert!(check(&battery(ok), &p, 100_000_000).is_ok());
        assert!(check(&battery(transfer(TCP2_BYTES - 1, 90.0)), &p, 100_000_000).is_err());
        assert!(check(&battery(transfer(TCP2_BYTES, 101.0)), &p, 100_000_000).is_err());
    }
}
