//! Campaign benchmark for the home-gateway simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <household|tcp2_bulk|tcp4_ramp|udp1_campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a whole campaign driven through `FleetRunner` with
//! `Parallelism::Sequential` on the calling thread. A run repeats
//! "set-up pass, then campaign" until `--seconds` have passed and reports
//! medians over the repetitions. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! campaigns and prints the per-layer metrics. The last line of standard
//! output is one JSON object; see `perfbench/README.md` for every metric.

mod attribution;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration as HostDuration, Instant as HostInstant};

use hgw_devices::DeviceProfile;
use hgw_probe::fleet::{FleetRunner, FleetSample, Parallelism};
use hgw_testbed::Testbed;

use attribution::{Attributor, Ledger, NodeClass};
use stats::{median, tail};
use workload::{Counts, ProbeResult, Profiles, Workload};

/// Set-up passes a run makes at least, so `setup_s` is a median even when
/// one campaign fills the whole run.
const MIN_SETUPS: usize = 15;

/// Where traced runs write their per-device spans, relative to the
/// repository root the benchmark runs from.
const SPAN_DIR: &str = "perfbench/out";

const USAGE: &str =
    "usage: hgw-perfbench --workload <household|tcp2_bulk|tcp4_ramp|udp1_campaign> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Nanoseconds from `base` to `t`.
fn offset(base: HostInstant, t: HostInstant) -> u64 {
    t.duration_since(base).as_nanos() as u64
}

/// One set-up pass: profile generation plus every device's bring-up, each
/// timed around its call. Offsets are from the run's start.
struct Setup {
    profiles: Profiles,
    /// Offset at which profile generation started.
    start: u64,
    /// Per device: bring-up `(start, end)` offsets and events dispatched.
    bringup: Vec<(u64, u64, u64)>,
}

impl Setup {
    fn run(w: Workload, seed: u64, base: HostInstant) -> Setup {
        let start = offset(base, HostInstant::now());
        let profiles = workload::generate(w, seed);
        let bringup = profiles
            .devices
            .iter()
            .enumerate()
            .map(|(slot, d)| {
                let t0 = HostInstant::now();
                let tb = Testbed::builder(d.tag, d.policy.clone())
                    .campaign_slot(slot, seed)
                    .hosts(w.hosts())
                    .build();
                let t1 = HostInstant::now();
                (offset(base, t0), offset(base, t1), tb.sim.stats().events)
            })
            .collect();
        Setup { profiles, start, bringup }
    }

    /// Host nanoseconds of the pass, teardown of the built testbeds
    /// excluded.
    fn ns(&self) -> u64 {
        self.profiles.total_ns + self.bringup.iter().map(|&(s, e, _)| e - s).sum::<u64>()
    }
}

/// What the benchmark's probe closure records for one device.
#[derive(Debug, Clone)]
struct DeviceRun {
    result: ProbeResult,
    check: Result<(), String>,
    counts: Counts,
    /// Frame-pool hits and misses during the probe.
    pool: (u64, u64),
    /// Probe call `(start, end)` offsets from the run's start.
    probe: (u64, u64),
    /// Correctness check `(start, end)` offsets.
    check_span: (u64, u64),
    /// Host-time attribution (traced campaigns only).
    ledger: Option<Ledger>,
}

impl DeviceRun {
    /// FNV-1a over the result and the deterministic counts. `Debug`
    /// prints floats in round-trip form, so equal digests mean equal bits.
    fn digest(&self) -> u64 {
        format!("{:?}|{:?}", self.result, self.counts)
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    fn probe_ns(&self) -> u64 {
        self.probe.1 - self.probe.0
    }
}

/// Decides whether one device run counts as correct. A run fails when it
/// panicked, when its result fails the workload check, when its bring-up
/// differs from the set-up pass's, or when its result or counts differ
/// from the first campaign at the same seed (`reference`).
fn judge(
    run: &Result<DeviceRun, String>,
    bringup_events: u64,
    reference: Option<u64>,
) -> Result<u64, String> {
    let run = run.as_ref().map_err(|e| format!("panicked: {e}"))?;
    run.check.clone()?;
    if run.counts.bringup_events != bringup_events {
        return Err(format!(
            "bring-up dispatched {} events in the campaign but {bringup_events} in set-up",
            run.counts.bringup_events
        ));
    }
    let digest = run.digest();
    match reference {
        Some(r) if r != digest => {
            Err("result or counts differ from the first campaign at this seed".to_string())
        }
        _ => Ok(digest),
    }
}

/// Runs one campaign through `FleetRunner`; returns each device's outcome
/// in slot order and the host nanoseconds of the runner call.
fn campaign(
    w: Workload,
    seed: u64,
    devices: &[DeviceProfile],
    traced: bool,
    base: HostInstant,
) -> (Vec<Result<DeviceRun, String>>, u64) {
    let probe = |tb: &mut Testbed, d: &DeviceProfile| {
        let household = Workload::household_config(seed, d.tag);
        let before = tb.sim.stats();
        let start = HostInstant::now();
        if traced {
            let attributor = Attributor::new(tb, start);
            tb.sim.attach_observer(Box::new(attributor));
        }
        let result = workload::probe(w, tb, &household);
        let end = HostInstant::now();
        let ledger = traced.then(|| {
            let observer = tb.sim.detach_observer().expect("the attributor is attached");
            let attributor = observer.as_any().downcast_ref::<Attributor>();
            attributor.expect("the attached observer is the attributor").finish(end)
        });
        let counts = Counts::read(tb, &before, &result);
        let after = tb.sim.stats();
        let link_bps = [tb.lan_link, tb.wan_link]
            .map(|l| tb.sim.link(l).config().rate_bps)
            .into_iter()
            .min()
            .expect("two links");
        let check_start = HostInstant::now();
        let check = workload::check(&result, &d.policy, link_bps);
        let check_end = HostInstant::now();
        DeviceRun {
            result,
            check,
            counts,
            pool: (after.pool_hits - before.pool_hits, after.pool_misses - before.pool_misses),
            probe: (offset(base, start), offset(base, end)),
            check_span: (offset(base, check_start), offset(base, check_end)),
            ledger,
        }
    };
    let runner = FleetRunner::new(devices)
        .seed(seed)
        .parallelism(Parallelism::Sequential)
        .hosts(w.hosts())
        .telemetry(false);
    let t0 = HostInstant::now();
    let outcomes: Vec<Result<DeviceRun, String>> = if w == Workload::Udp1Campaign {
        // The mega-fleet path: streaming aggregation, no per-device reports.
        let report = runner
            .run_fold(
                probe,
                Vec::new,
                |acc: &mut Vec<(usize, DeviceRun)>, s: FleetSample<'_, DeviceRun>| {
                    acc.push((s.slot, s.result))
                },
                |acc, part| acc.extend(part),
            )
            .expect("fleet infrastructure error");
        let mut out: Vec<Result<DeviceRun, String>> =
            (0..devices.len()).map(|_| Err("no result folded".to_string())).collect();
        for (slot, run) in report.aggregate {
            out[slot] = Ok(run);
        }
        for f in report.failures {
            out[f.slot] = Err(f.to_string());
        }
        out
    } else {
        let report = runner.run(probe).expect("fleet infrastructure error");
        report.devices.into_iter().map(|d| d.outcome.map_err(|f| f.to_string())).collect()
    };
    (outcomes, offset(t0, HostInstant::now()))
}

/// One campaign's measurements.
#[derive(Debug, Default)]
struct Rep {
    traced: bool,
    /// Σ probe host time over devices that ran.
    wall_ns: u64,
    /// Per-device probe host time, ms.
    device_ms: Vec<f64>,
    counts: Counts,
    pool_hits: u64,
    pool_misses: u64,
    ledger: Ledger,
    attempted: usize,
    failed: usize,
    /// Host time of the whole runner call, bring-up and teardown included.
    runner_ns: u64,
}

/// One span for the trace file: device slot (`None` for fleet-wide work),
/// name and `(start, end)` offsets in ns.
type SpanRecord = (Option<usize>, &'static str, u64, u64);

/// Everything one benchmark run measured.
#[derive(Default)]
struct Measured {
    reps: Vec<Rep>,
    /// `(pass ns, profile ns)` of every set-up pass.
    setups: Vec<(u64, u64)>,
    /// Median device bring-up time of each pass, µs.
    bringup_us: Vec<f64>,
    /// Σ bring-up events of one pass (deterministic).
    bringup_events: u64,
    /// Combined digest of the first campaign's per-device digests.
    digest: u64,
    /// The first few failures, for the human-readable output.
    failures: Vec<String>,
    spans: Vec<SpanRecord>,
    devices: usize,
    /// Peak resident memory after the first set-up pass and campaign, MB.
    /// Read then because later campaigns only add allocator
    /// fragmentation, which would tie the figure to how many fit in a run.
    peak_rss_mb: f64,
}

impl Measured {
    fn record_setup(&mut self, s: &Setup) {
        self.setups.push((s.ns(), s.profiles.total_ns));
        let us: Vec<f64> = s.bringup.iter().map(|&(a, b, _)| (b - a) as f64 / 1e3).collect();
        self.bringup_us.push(median(&us));
        self.bringup_events = s.bringup.iter().map(|b| b.2).sum();
    }
}

fn measure(args: &Args) -> Measured {
    let (w, seed) = (args.workload, args.seed);
    let base = HostInstant::now();
    let budget = HostDuration::from_secs(args.seconds);
    let mut m = Measured::default();
    let mut reference: Vec<Option<u64>> = Vec::new();
    loop {
        let traced = args.trace && m.reps.len() % 2 == 1;
        let setup = Setup::run(w, seed, base);
        m.record_setup(&setup);
        let (outcomes, runner_ns) = campaign(w, seed, &setup.profiles.devices, traced, base);
        let first = reference.is_empty();
        let mut rep = Rep { traced, runner_ns, ..Rep::default() };
        for (slot, outcome) in outcomes.iter().enumerate() {
            rep.attempted += 1;
            let want = if first { None } else { reference[slot] };
            match judge(outcome, setup.bringup[slot].2, want) {
                Ok(d) if first => reference.push(Some(d)),
                Ok(_) => {}
                Err(e) => {
                    if first {
                        reference.push(None);
                    }
                    rep.failed += 1;
                    if m.failures.len() < 10 {
                        let tag = setup.profiles.devices[slot].tag;
                        m.failures.push(format!("campaign {} {tag}: {e}", m.reps.len()));
                    }
                }
            }
            let Ok(run) = outcome else { continue };
            rep.wall_ns += run.probe_ns();
            rep.device_ms.push(run.probe_ns() as f64 / 1e6);
            rep.counts.add(&run.counts);
            rep.pool_hits += run.pool.0;
            rep.pool_misses += run.pool.1;
            if let Some(l) = &run.ledger {
                rep.ledger.merge(l);
            }
        }
        if first {
            m.devices = outcomes.len();
            m.peak_rss_mb = peak_rss_mb();
            m.digest = reference
                .iter()
                .flatten()
                .fold(0xcbf2_9ce4_8422_2325, |h, d| (h ^ d).wrapping_mul(0x100_0000_01b3));
        }
        if traced {
            m.spans = spans(&setup, &outcomes);
        }
        m.reps.push(rep);
        if base.elapsed() >= budget && (!args.trace || m.reps.len() >= 2) {
            break;
        }
    }
    while m.setups.len() < MIN_SETUPS {
        let setup = Setup::run(w, seed, base);
        m.record_setup(&setup);
    }
    m
}

/// Per-device spans (profile → bring-up → probe → check) of one traced
/// campaign, all keyed by the device's slot.
fn spans(setup: &Setup, outcomes: &[Result<DeviceRun, String>]) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    if setup.profiles.per_device.is_empty() {
        let s = setup.start;
        out.push((None, "profiles", s, s + setup.profiles.total_ns));
    }
    for (slot, outcome) in outcomes.iter().enumerate() {
        if let Some(&(a, b)) = setup.profiles.per_device.get(slot) {
            out.push((Some(slot), "profile", setup.start + a, setup.start + b));
        }
        let (a, b, _) = setup.bringup[slot];
        out.push((Some(slot), "bring-up", a, b));
        if let Ok(run) = outcome {
            out.push((Some(slot), "probe", run.probe.0, run.probe.1));
            out.push((Some(slot), "check", run.check_span.0, run.check_span.1));
        }
    }
    out
}

/// Renders spans as Chrome trace-event JSON (loadable in Perfetto): one
/// thread row per device, fleet-wide work on row 0, device `i` on row
/// `i + 1`.
fn render_spans(spans: &[SpanRecord]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, &(device, name, a, b)) in spans.iter().enumerate() {
        let tid = device.map_or(0, |d| d + 1);
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{}}}{sep}",
            a as f64 / 1e3,
            (b - a) as f64 / 1e3
        );
    }
    s.push_str("]}\n");
    s
}

/// Peak resident memory of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A metric for the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Median over campaigns of `f`.
fn over<'a>(reps: impl Iterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.map(f).collect::<Vec<_>>())
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let reps = || m.reps.iter().filter(|r| !r.traced);
    let tail_ms = over(reps(), |r| tail(&r.device_ms).map_or(f64::NAN, |t| t.value));
    vec![
        metric("wall_s", over(reps(), |r| r.wall_ns as f64 / 1e9), "s"),
        metric(
            "setup_s",
            median(&m.setups.iter().map(|s| s.0 as f64 / 1e9).collect::<Vec<_>>()),
            "s",
        ),
        metric(
            "events_per_s",
            over(reps(), |r| r.counts.events as f64 / (r.wall_ns as f64 / 1e9)),
            "1/s",
        ),
        metric("device_ms_p50", over(reps(), |r| median(&r.device_ms)), "ms"),
        metric("device_ms_tail", tail_ms, "ms"),
        metric("peak_rss_mb", m.peak_rss_mb, "MB"),
    ]
}

fn per_layer(m: &Measured) -> Vec<Metric> {
    let untraced = || m.reps.iter().filter(|r| !r.traced);
    let traced = || m.reps.iter().filter(|r| r.traced);
    let c = &m.reps[0].counts;
    let first = &m.reps[0];
    let wall = |r: &Rep| r.wall_ns as f64;
    let share = |k: NodeClass| over(traced(), |r| r.ledger.share(k));
    let per_frame = |k: NodeClass| over(traced(), |r| r.ledger.ns_per_frame(k).unwrap_or(f64::NAN));
    let n = |v: u64| v as f64;
    vec![
        metric("core.ns_per_event", over(untraced(), |r| wall(r) / n(r.counts.events)), "ns"),
        metric("core.events", n(c.events), "count"),
        metric("core.events_per_delivered_frame", n(c.events) / n(c.frames_delivered), "ratio"),
        metric("core.pool_misses", n(first.pool_misses), "count"),
        metric(
            "core.pool_hit_ratio",
            n(first.pool_hits) / n(first.pool_hits + first.pool_misses),
            "ratio",
        ),
        metric("core.frames_dropped", n(c.frames_dropped), "count"),
        metric("core.peak_queue_bytes", n(c.peak_queue_bytes), "bytes"),
        metric("link.wan_tx_frames", n(c.wan_tx_frames), "count"),
        metric("link.wan_tx_bytes", n(c.wan_tx_bytes), "bytes"),
        metric("link.lan_tx_frames", n(c.lan_tx_frames), "count"),
        metric("testbed.bringup_us_p50", median(&m.bringup_us), "us"),
        metric("testbed.bringup_events", n(m.bringup_events), "count"),
        metric(
            "devices.sample_ms",
            median(&m.setups.iter().map(|s| s.1 as f64 / 1e6).collect::<Vec<_>>()),
            "ms",
        ),
        metric("gateway.self_ns_per_frame", per_frame(NodeClass::Gateway), "ns"),
        metric("gateway.share", share(NodeClass::Gateway), "ratio"),
        metric("gateway.engine_forwarded", n(c.engine_forwarded), "count"),
        metric("gateway.engine_dropped", n(c.engine_dropped), "count"),
        metric("nat.bindings_created", n(c.nat_created), "count"),
        metric("nat.bindings_expired", n(c.nat_expired), "count"),
        metric("nat.bindings_refreshed", n(c.nat_refreshed), "count"),
        metric("nat.refusals", n(c.nat_refusals), "count"),
        metric("nat.peak_bindings", n(c.nat_peak), "count"),
        metric("host.self_ns_per_frame", per_frame(NodeClass::Host), "ns"),
        metric("host.share", share(NodeClass::Host), "ratio"),
        metric("tcp.payload_bytes", n(c.tcp_payload_bytes), "bytes"),
        metric(
            "probe.unattributed_share",
            over(traced(), |r| r.ledger.unattributed_share()),
            "ratio",
        ),
        metric(
            "bench.trace_overhead",
            over(traced(), wall) / over(untraced(), wall) - 1.0,
            "ratio",
        ),
    ]
}

/// Metrics that exist only on some workloads, printed for reading but
/// kept out of the result line (which must hold the same keys on every
/// workload).
fn workload_specific(m: &Measured) -> Vec<Metric> {
    let untraced = || m.reps.iter().filter(|r| !r.traced);
    let c = &m.reps[0].counts;
    let mut out = Vec::new();
    if c.tcp_payload_bytes > 0 {
        let rate = over(untraced(), |r| {
            r.counts.tcp_payload_bytes as f64 / 1e6 / (r.wall_ns as f64 / 1e9)
        });
        out.push(metric("payload_mb_per_s", rate, "MB/s"));
        let ratio = c.wan_tx_bytes as f64 / c.tcp_payload_bytes as f64;
        out.push(metric("link.wire_bytes_per_payload_byte", ratio, "ratio"));
    }
    if c.tcp_connects > 0 {
        let ratio = c.tcp_connects_ok as f64 / c.tcp_connects as f64;
        out.push(metric("tcp.connect_success_ratio", ratio, "ratio"));
    }
    let switched =
        m.reps.iter().filter(|r| r.traced && r.ledger.frames[NodeClass::Switch as usize] > 0);
    if switched.clone().next().is_some() {
        let ns = over(switched, |r| r.ledger.ns_per_frame(NodeClass::Switch).unwrap_or(f64::NAN));
        out.push(metric("switch.self_ns_per_frame", ns, "ns"));
    }
    out
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<34} {:>18} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let m = measure(&args);
    let attempted: usize = m.reps.iter().map(|r| r.attempted).sum();
    let failed: usize = m.reps.iter().map(|r| r.failed).sum();
    let untraced: Vec<&Rep> = m.reps.iter().filter(|r| !r.traced).collect();

    println!(
        "workload {} seed {}: {} campaign(s) of {} devices ({} traced), {} set-up passes, \
         sequential FleetRunner on one thread",
        args.workload.name(),
        args.seed,
        m.reps.len(),
        m.devices,
        m.reps.len() - untraced.len(),
        m.setups.len(),
    );
    println!("devices_failed {failed} of devices_run {attempted}");
    for f in &m.failures {
        println!("  failed: {f}");
    }
    if let Some(t) = untraced.first().and_then(|r| tail(&r.device_ms)) {
        println!(
            "device_ms_tail is p{:.2} of {} device runs per campaign ({} beyond it), median over campaigns",
            t.percentile,
            t.samples,
            stats::TAIL_BEYOND
        );
    }
    let walls: Vec<String> =
        m.reps.iter().map(|r| format!("{:.3}", r.wall_ns as f64 / 1e9)).collect();
    println!(
        "campaign wall_s in run order (traced every other one under --trace 1): {}",
        walls.join(" ")
    );
    let runner_s = median(&untraced.iter().map(|r| r.runner_ns as f64 / 1e9).collect::<Vec<_>>());
    println!("FleetRunner call incl. in-run bring-up and teardown: {runner_s} s (median)");
    let c = &m.reps[0].counts;
    println!(
        "deterministic counts (identical in all {} campaigns, else the device failed): \
         bringup_events={} events={} frames_delivered={} frames_dropped={} peak_queue_bytes={} \
         wan_tx_frames={} wan_tx_bytes={} lan_tx_frames={} nat_created={} nat_expired={} \
         nat_refreshed={} nat_refusals={} nat_peak={} engine_forwarded={} engine_dropped={} \
         tcp_payload_bytes={} tcp_connects={}/{}",
        m.reps.len(),
        m.bringup_events,
        c.events,
        c.frames_delivered,
        c.frames_dropped,
        c.peak_queue_bytes,
        c.wan_tx_frames,
        c.wan_tx_bytes,
        c.lan_tx_frames,
        c.nat_created,
        c.nat_expired,
        c.nat_refreshed,
        c.nat_refusals,
        c.nat_peak,
        c.engine_forwarded,
        c.engine_dropped,
        c.tcp_payload_bytes,
        c.tcp_connects_ok,
        c.tcp_connects,
    );
    println!("result digest {:#018x}", m.digest);
    print_metrics("workload-specific (not in the result line)", &workload_specific(&m));

    let metrics = if args.trace {
        println!(
            "attribution blind spots: timer-only events, link transmit completions and the \
             probe driver's work between run_for slices are charged to the last node kind \
             that received a frame; time before the first and after the last delivery is \
             probe.unattributed_share"
        );
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.json", args.workload.name(), args.seed);
        match std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, render_spans(&m.spans)))
        {
            Ok(()) => println!("spans of the last traced campaign written to {path}"),
            Err(e) => println!("warning: could not write {path}: {e}"),
        }
        print_metrics("end-to-end (untraced campaigns of this run)", &end_to_end(&m));
        let layers = per_layer(&m);
        print_metrics("per-layer", &layers);
        layers
    } else {
        end_to_end(&m)
    };
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::GatewayPolicy;
    use hgw_probe::udp_timeout::TimeoutMeasurement;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    fn udp1_run(timeout_secs: f64, policy: &GatewayPolicy) -> DeviceRun {
        let result = ProbeResult::Udp1(TimeoutMeasurement { timeout_secs, trials: 12 });
        let check = workload::check(&result, policy, 100_000_000);
        let counts = Counts { bringup_events: 40, events: 900, ..Counts::default() };
        DeviceRun {
            result,
            check,
            counts,
            pool: (0, 0),
            probe: (0, 1),
            check_span: (1, 2),
            ledger: None,
        }
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload tcp2_bulk --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a, Args { workload: Workload::Tcp2Bulk, seed: 7, seconds: 20, trace: true });
        assert!(args("--workload nope --seed 7 --seconds 20 --trace 0").is_err());
        assert!(args("--workload household --seed 7 --seconds 20 --trace 2").is_err());
        assert!(args("--workload household --seed 7 --seconds 20").is_err());
    }

    #[test]
    fn a_fabricated_wrong_result_is_counted_failed() {
        let mut policy = GatewayPolicy::well_behaved();
        policy.udp_timeout_solitary = hgw_core::Duration::from_secs(90);
        policy.timer_granularity = hgw_core::Duration::from_secs(1);
        let good = udp1_run(90.5, &policy);
        let digest = judge(&Ok(good.clone()), 40, None).expect("a correct result passes");
        assert_eq!(judge(&Ok(good.clone()), 40, Some(digest)), Ok(digest));

        // Wrong answer: the check fails.
        assert!(judge(&Ok(udp1_run(120.0, &policy)), 40, None).is_err());
        // Right answer but different from the untraced campaign's.
        let drifted = udp1_run(90.25, &policy);
        assert!(drifted.check.is_ok());
        assert!(judge(&Ok(drifted), 40, Some(digest)).is_err());
        // Bring-up that differs from the set-up pass.
        assert!(judge(&Ok(good), 41, None).is_err());
        // A panicked probe.
        assert!(judge(&Err("boom".to_string()), 40, None).is_err());
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let line =
            result_line(true, 34, 0, &[metric("wall_s", 1.25, "s"), metric("x", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 34, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
