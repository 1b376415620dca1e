//! The `decide` and `tick` workloads: an in-process audited fleet
//! server under closed-loop keep-alive load.
//!
//! * `decide` — 64 tenants; two connections, each sending
//!   `POST /decide/{tenant}` round-robin over its own 32 tenants, the
//!   next request only after the previous response.
//! * `tick` — 256 tenants; one connection sending `POST /tick` with
//!   every tenant's observation in one body.
//!
//! Set-up builds the fleet the way a manifest load does (each tenant's
//! policy text parsed, compiled and proven, its audit chain created)
//! and binds the server; it runs several times and the last fleet
//! serves. The load runs in 0.5-s segments; between segments the
//! clients wait while the host speed is probed, and every time the run
//! reports is scaled by the factor around it (see [`host`]). Every
//! served decision is then checked bit-identical against an in-process
//! `GuardedPolicy` replay, and every sealed chain must pass the
//! `Auditor`.

use crate::gen::{self, TenantDay};
use crate::host::{self, Probe};
use crate::report::Report;
use crate::stats::{mean, median, peak_rss_mb, process_cpu_ns, thread_cpu_ns};
use crate::trace::{write_overhead, Tracer};
use crate::Args;
use hvac_telemetry::http::{blocking_request, BlockingClient, HttpServer};
use hvac_telemetry::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use veri_hvac::audit::{AuditChain, Auditor, ChainConfig};
use veri_hvac::control::{DtPolicy, GuardState};
use veri_hvac::env::{Observation, Policy as _, SetpointAction};
use veri_hvac::serve::{decide_json_traced, observation_from_value};
use veri_hvac::sim::STEPS_PER_DAY;
use veri_hvac::{serve_fleet, Fleet, FleetOptions};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Per-tenant `POST /decide/{tenant}` from two connections.
    Decide,
    /// Whole-fleet `POST /tick` from one connection.
    Tick,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Decide => "decide",
            Mode::Tick => "tick",
        }
    }

    fn tenants(self) -> usize {
        match self {
            Mode::Decide => 64,
            Mode::Tick => 256,
        }
    }

    /// Client threads, each with one keep-alive connection.
    fn clients(self) -> usize {
        match self {
            Mode::Decide => 2,
            Mode::Tick => 1,
        }
    }

    /// Decisions one request carries.
    fn batch(self) -> usize {
        match self {
            Mode::Decide => 1,
            Mode::Tick => self.tenants(),
        }
    }

    /// The host-speed probe between load segments. Both keep two vCPUs
    /// busy (server and clients) and move requests over loopback TCP
    /// between threads; a `/tick` round trip is mostly JSON parsing
    /// besides.
    fn probe(self) -> Probe {
        Probe {
            threads: 2,
            transport: true,
            scan: self == Mode::Tick,
        }
    }

    /// The server's own latency histogram for this route.
    fn server_histogram(self) -> &'static str {
        match self {
            Mode::Decide => "serve.decide.ns",
            Mode::Tick => "fleet.tick.ns",
        }
    }
}

/// Fleet set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Length of one load segment. The host-speed probe runs between
/// segments, with the clients idle, so each segment's times are scaled
/// by the host speed around it (see [`host`]).
const SEGMENT: Duration = Duration::from_millis(500);

/// Set-up builds the fleet on one thread.
const SETUP_PROBE: Probe = Probe::SINGLE_THREAD;

/// Most requests the traced run replays in-process for the layer split.
const REPLAY_CAP: usize = 20_000;

/// Everything generated before any clock starts.
struct Inputs {
    /// Fixture policy texts, by fixture index.
    texts: Vec<String>,
    /// Fixture policies, by fixture index.
    policies: Vec<DtPolicy>,
    /// Each tenant's generated day.
    days: Vec<TenantDay>,
    /// `bodies[t][s]`: tenant `t`'s step-`s` `/decide` body (decide)
    /// or `bodies[0][s]`: the step-`s` `/tick` body (tick).
    bodies: Vec<Vec<String>>,
    /// `/decide/{tenant}` paths.
    paths: Vec<String>,
}

fn inputs(mode: Mode, seed: u64) -> Result<Inputs, String> {
    let texts: Vec<String> = (0..gen::FIXTURES.len())
        .map(gen::read_fixture)
        .collect::<Result<_, _>>()?;
    let policies: Vec<DtPolicy> = texts
        .iter()
        .map(|t| DtPolicy::from_compact_string(t).map_err(|e| format!("fixture: {e}")))
        .collect::<Result<_, _>>()?;
    let days: Vec<TenantDay> = (0..mode.tenants())
        .map(|i| gen::tenant_day(seed, i, &policies[gen::tenant_fixture(i)]))
        .collect::<Result<_, _>>()?;
    let bodies = match mode {
        Mode::Decide => days
            .iter()
            .map(|d| d.observations.iter().map(gen::observation_json).collect())
            .collect(),
        Mode::Tick => vec![(0..STEPS_PER_DAY)
            .map(|s| {
                let step: Vec<Observation> = days.iter().map(|d| d.observations[s]).collect();
                gen::tick_body(&step)
            })
            .collect()],
    };
    let paths = (0..mode.tenants())
        .map(|i| format!("/decide/{}", gen::tenant_id(i)))
        .collect();
    Ok(Inputs {
        texts,
        policies,
        days,
        bodies,
        paths,
    })
}

/// Builds and binds a fleet over a fresh audit directory, returning the
/// server once `/healthz` answers, and the wall time that took.
fn set_up(mode: Mode, inputs: &Inputs, dir: &Path) -> Result<(HttpServer, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let fleet = Fleet::new(FleetOptions {
        audit_dir: Some(dir.to_path_buf()),
        ..FleetOptions::default()
    });
    for i in 0..mode.tenants() {
        let policy = DtPolicy::from_compact_string(&inputs.texts[gen::tenant_fixture(i)])
            .map_err(|e| format!("tenant {i} policy: {e}"))?;
        fleet.add_tenant(&gen::tenant_id(i), policy, None)?;
    }
    let server = serve_fleet(fleet, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    loop {
        match blocking_request(addr, "GET", "/healthz", "") {
            Ok((200, _)) => break,
            _ if started.elapsed() > Duration::from_secs(30) => {
                return Err("server never became healthy".into())
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// One decision as the server returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Served {
    heating: u64,
    cooling: u64,
    state: GuardState,
}

impl Served {
    fn from_decision(action: SetpointAction, state: GuardState) -> Self {
        Self {
            heating: action.heating() as u64,
            cooling: action.cooling() as u64,
            state,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WarmUp,
    Untraced,
    Traced,
}

/// What one tenant was served, kept in constant memory: the count, a
/// running FNV-1a digest of every decision in order, and its first day.
#[derive(Debug, Clone)]
struct TenantLog {
    served: u64,
    digest: u64,
    first_day: Vec<Served>,
}

impl TenantLog {
    fn new() -> Self {
        Self {
            served: 0,
            digest: FNV_OFFSET,
            first_day: Vec::with_capacity(STEPS_PER_DAY),
        }
    }

    fn push(&mut self, d: Served) {
        self.served += 1;
        self.digest = fnv(
            self.digest,
            &[d.heating as u8, d.cooling as u8, d.state.as_gauge() as u8],
        );
        if self.first_day.len() < STEPS_PER_DAY {
            self.first_day.push(d);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A fixed-size uniform sample of a stream (Algorithm R), so the
/// client's memory does not grow with throughput and `peak_rss_mb`
/// measures the server, not the load generator.
#[derive(Debug, Clone)]
struct Reservoir {
    /// `(value, segment)` pairs.
    kept: Vec<(f64, u32)>,
    seen: u64,
    rng: u64,
    /// The load segment the next samples belong to.
    segment: u32,
}

/// Latency samples kept per client and phase.
const RESERVOIR: usize = 1 << 17;

impl Reservoir {
    fn new(seed: u64) -> Self {
        Self {
            kept: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: seed | 1,
            segment: 0,
        }
    }

    fn push(&mut self, value: f64) {
        let value = (value, self.segment);
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(value);
        } else {
            // xorshift64*
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            let j = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.seen;
            if (j as usize) < RESERVOIR {
                self.kept[j as usize] = value;
            }
        }
    }

    /// Each kept sample times its segment's `scale`, with the share of
    /// the stream it stands for.
    fn weighted<'a>(&'a self, scale: &'a [f64]) -> impl Iterator<Item = (f64, f64)> + 'a {
        let weight = self.seen as f64 / self.kept.len().max(1) as f64;
        self.kept
            .iter()
            .map(move |&(v, segment)| (v * scale[segment as usize], weight))
    }
}

/// The `q`-quantile of weighted samples: the smallest value whose
/// cumulative weight reaches `q` of the total.
fn weighted_percentile(samples: &mut [(f64, f64)], q: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = samples.iter().map(|s| s.1).sum();
    let mut cumulative = 0.0;
    for &(value, weight) in samples.iter() {
        cumulative += weight;
        if cumulative >= q * total {
            return value;
        }
    }
    samples.last().map_or(0.0, |s| s.0)
}

/// A traced-phase request kept for the in-process replay.
#[derive(Debug, Clone, Copy)]
struct Replayable {
    tenant: usize,
    step: usize,
    /// Client round trip, ns.
    rtt_ns: u64,
    /// The handler time the server reported in the response, ns.
    server_ns: u64,
}

/// What one client thread sent and saw.
struct ClientLog {
    /// Requests completed in each load segment.
    requests: Vec<u64>,
    /// Requests that failed or were refused, with the first reason.
    failed: u64,
    first_failure: Option<String>,
    /// `(tenant, log)` for every tenant this client drove.
    tenants: Vec<(usize, TenantLog)>,
    /// Round trips of the untraced and traced phases, µs.
    latency: [Reservoir; 2],
    /// Decisions per guard rung (gauge order).
    states: [u64; 4],
    /// The first traced-phase requests, for the in-process replay.
    replay: Vec<Replayable>,
    tracer: Tracer,
}

/// A closed loop on one keep-alive connection through every load
/// segment. Each segment runs for its length, then the client meets the
/// other clients and the main thread at `barrier` twice: once when all
/// are idle (the main thread then probes the host speed) and once to
/// start the next segment.
fn client_loop(
    mode: Mode,
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    client: usize,
    segments: &[(Phase, Duration)],
    barrier: &Barrier,
    epoch: Instant,
) -> Result<ClientLog, String> {
    let mut conn = BlockingClient::connect(addr).map_err(|e| format!("connect: {e}"));
    // Decide: this client's own tenants, round-robin. Tick: every
    // tenant in each request.
    let slots: Vec<usize> = match mode {
        Mode::Decide => {
            let per = mode.tenants() / mode.clients();
            (client * per..(client + 1) * per).collect()
        }
        Mode::Tick => vec![0],
    };
    let mut next_step = vec![0usize; slots.len()];
    let mut log = ClientLog {
        requests: vec![0; segments.len()],
        failed: 0,
        first_failure: None,
        tenants: match mode {
            Mode::Decide => slots.iter().map(|&t| (t, TenantLog::new())).collect(),
            Mode::Tick => (0..mode.tenants()).map(|t| (t, TenantLog::new())).collect(),
        },
        latency: [
            Reservoir::new(client as u64 + 1),
            Reservoir::new(client as u64 + 101),
        ],
        states: [0; 4],
        replay: Vec::new(),
        tracer: Tracer::new(epoch),
    };
    let replay_cap = REPLAY_CAP / mode.batch() / mode.clients();
    let mut decisions = Vec::with_capacity(mode.batch());
    let mut k = 0usize;
    let mut broken = None;
    for (segment, &(phase, length)) in segments.iter().enumerate() {
        log.latency
            .iter_mut()
            .for_each(|r| r.segment = segment as u32);
        let end = Instant::now() + length;
        while broken.is_none() && Instant::now() < end {
            let Ok(conn) = conn.as_mut() else { break };
            let slot = k % slots.len();
            k += 1;
            let step = next_step[slot];
            next_step[slot] = (step + 1) % STEPS_PER_DAY;
            let (path, body) = match mode {
                Mode::Decide => (
                    inputs.paths[slots[slot]].as_str(),
                    &inputs.bodies[slots[slot]][step],
                ),
                Mode::Tick => ("/tick", &inputs.bodies[0][step]),
            };
            let span = (phase == Phase::Traced && log.replay.len() < replay_cap).then(|| {
                log.tracer
                    .enter("http.request", log.replay.len() as u64 + 1)
            });
            let started = Instant::now();
            let response = conn.request("POST", path, &[], body);
            let rtt_ns = started.elapsed().as_nanos() as u64;
            log.requests[segment] += 1;
            if phase != Phase::WarmUp {
                log.latency[phase as usize - 1].push(rtt_ns as f64 / 1e3);
            }
            if let Some(span) = span {
                log.tracer.exit(span);
                if let Ok((200, _, text)) = &response {
                    log.replay.push(Replayable {
                        tenant: slots[slot],
                        step,
                        rtt_ns,
                        server_ns: number_after(&mut text.as_str(), "\"latency_ns\":").unwrap_or(0),
                    });
                }
            }
            let outcome = match response {
                Ok((200, _, text)) => scan_decisions(&text, mode.batch(), &mut decisions),
                Ok((status, _, text)) => Err(format!("HTTP {status}: {text}")),
                Err(e) => {
                    broken = Some(format!("request failed: {e}"));
                    break;
                }
            };
            match outcome {
                Ok(()) => {
                    let owners = match mode {
                        Mode::Decide => slot..slot + 1,
                        Mode::Tick => 0..mode.tenants(),
                    };
                    for (owner, &d) in owners.zip(&decisions) {
                        log.tenants[owner].1.push(d);
                        log.states[d.state.as_gauge() as usize] += 1;
                    }
                }
                Err(why) => {
                    log.failed += 1;
                    log.first_failure.get_or_insert(why);
                }
            }
        }
        // A failed client still meets the barrier, or the others wait
        // forever.
        barrier.wait();
        barrier.wait();
    }
    match (conn, broken) {
        (Err(e), _) | (Ok(_), Some(e)) => Err(e),
        (Ok(_), None) => Ok(log),
    }
}

/// Reads the setpoints and guard rung of each decision in a response
/// body into `out`, in order, without building a JSON tree (the client
/// must not compete with the server for CPU more than it has to).
fn scan_decisions(body: &str, expected: usize, out: &mut Vec<Served>) -> Result<(), String> {
    out.clear();
    let mut rest = body;
    while out.len() < expected {
        let heating = number_after(&mut rest, "\"heating_setpoint\":")?;
        let cooling = number_after(&mut rest, "\"cooling_setpoint\":")?;
        let name = text_after(&mut rest, "\"guard_state\":\"")?;
        let state =
            GuardState::from_name(name).ok_or_else(|| format!("unknown guard state {name:?}"))?;
        out.push(Served {
            heating,
            cooling,
            state,
        });
    }
    Ok(())
}

fn number_after(rest: &mut &str, key: &str) -> Result<u64, String> {
    let at = rest
        .find(key)
        .ok_or_else(|| format!("response lacks {key}"))?;
    let tail = &rest[at + key.len()..];
    let end = tail
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(tail.len());
    *rest = &tail[end..];
    tail[..end]
        .parse()
        .map_err(|_| format!("bad number after {key}"))
}

fn text_after<'a>(rest: &mut &'a str, key: &str) -> Result<&'a str, String> {
    let at = rest
        .find(key)
        .ok_or_else(|| format!("response lacks {key}"))?;
    let tail = &rest[at + key.len()..];
    let end = tail.find('"').ok_or("unterminated string")?;
    *rest = &tail[end..];
    Ok(&tail[..end])
}

/// `/summary.json` as parsed JSON.
fn summary(addr: std::net::SocketAddr) -> Result<JsonValue, String> {
    let (status, body) = blocking_request(addr, "GET", "/summary.json", "")
        .map_err(|e| format!("/summary.json: {e}"))?;
    if status != 200 {
        return Err(format!("/summary.json answered {status}"));
    }
    parse(&body).map_err(|e| format!("/summary.json: {e}"))
}

fn counter(summary: &JsonValue, name: &str) -> f64 {
    summary
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

fn histogram(summary: &JsonValue, name: &str, field: &str) -> f64 {
    summary
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

pub fn run(mode: Mode, args: &Args, out_dir: &Path) -> Result<Report, String> {
    let scratch = out_dir.join(format!(
        "{}-seed{}-{}",
        mode.name(),
        args.seed,
        std::process::id()
    ));
    let result = run_in(mode, args, out_dir, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(mode: Mode, args: &Args, out_dir: &Path, scratch: &Path) -> Result<Report, String> {
    let inputs = inputs(mode, args.seed)?;
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut audit_dir = PathBuf::new();
    // One probe before the set-ups and one after each; each set-up is
    // scaled by the factor either side of it.
    let mut setup_factors = vec![SETUP_PROBE.measure()];
    for k in 0..SETUPS {
        if let Some(previous) = server.take() {
            HttpServer::shutdown(previous);
        }
        audit_dir = scratch.join(format!("audit-{k}"));
        let (s, secs) = set_up(mode, &inputs, &audit_dir)?;
        setups.push(secs);
        setup_factors.push(SETUP_PROBE.measure());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();

    // Warm-up, then the measured phase(s), in load segments: a traced
    // run splits its time between an untraced and a traced half, so
    // their difference is the tracing overhead.
    let warm_up = Duration::from_secs_f64((args.seconds * 0.1).min(1.0));
    let measured = |share: f64| {
        let n = (args.seconds * share / SEGMENT.as_secs_f64())
            .ceil()
            .max(1.0) as usize;
        vec![SEGMENT; n]
    };
    let mut segments = vec![(Phase::WarmUp, warm_up)];
    if args.trace {
        segments.extend(measured(0.5).into_iter().map(|d| (Phase::Untraced, d)));
        segments.extend(measured(0.5).into_iter().map(|d| (Phase::Traced, d)));
    } else {
        segments.extend(measured(1.0).into_iter().map(|d| (Phase::Untraced, d)));
    }
    let before = summary(addr)?;
    let main_cpu = thread_cpu_ns();
    let cpu = process_cpu_ns();
    let barrier = Barrier::new(mode.clients() + 1);
    let epoch = Instant::now();
    // Each segment's wall, and the host factor before the first segment
    // and after each.
    let mut walls = Vec::with_capacity(segments.len());
    let mut probes = vec![mode.probe().measure()];
    let results: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mode.clients())
            .map(|c| {
                let (inputs, segments, barrier) = (&inputs, &segments, &barrier);
                scope.spawn(move || client_loop(mode, inputs, addr, c, segments, barrier, epoch))
            })
            .collect();
        for _ in &segments {
            let started = Instant::now();
            barrier.wait();
            walls.push(started.elapsed().as_secs_f64());
            probes.push(mode.probe().measure());
            barrier.wait();
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    // Per segment: the host factor around it, and what scales its times
    // to the reference host.
    let factor: Vec<f64> = probes.windows(2).map(|p| (p[0] + p[1]) / 2.0).collect();
    let scale: Vec<f64> = factor.iter().map(|&f| host::scaled(1.0, f)).collect();
    // Client threads have exited, so the live threads' CPU is the
    // server's plus this (blocked) thread's.
    let server_cpu_ns = process_cpu_ns()
        .saturating_sub(cpu)
        .saturating_sub(thread_cpu_ns() - main_cpu);
    let after = summary(addr)?;
    // Graceful shutdown drains the workers, then seals every chain.
    server.shutdown();
    // The high-water mark of serving; the checks below read whole
    // chains and would otherwise add memory that grows with throughput.
    let peak_rss_mb = peak_rss_mb()?;
    let logs: Vec<ClientLog> = results.into_iter().collect::<Result<_, _>>()?;

    // Correctness: every request answered, every tenant's served
    // sequence bit-identical to an in-process replay, every sealed
    // chain green.
    for log in &logs {
        if let Some(why) = &log.first_failure {
            report.check_many(log.failed * mode.batch() as u64, Err(why.clone()));
        }
    }
    let tenant_logs: Vec<&(usize, TenantLog)> = logs.iter().flat_map(|l| &l.tenants).collect();
    check_sequences(&inputs, &tenant_logs, &mut report);
    let chain_bytes = audit_chains(mode, &inputs, &audit_dir, &mut report)?;
    let decisions: u64 = tenant_logs.iter().map(|(_, l)| l.served).sum();

    // Quality: each building's day under the setpoints it was served.
    let (mut energy, mut occupied, mut violating) = (0.0, 0usize, 0usize);
    for (tenant, log) in &tenant_logs {
        if log.first_day.len() < STEPS_PER_DAY {
            return Err(format!(
                "tenant {tenant} was served {} decisions, fewer than one day; run longer",
                log.first_day.len()
            ));
        }
        let actions: Vec<SetpointAction> = log
            .first_day
            .iter()
            .map(|s| SetpointAction::new(s.heating as i32, s.cooling as i32))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("served setpoints: {e}"))?;
        let (kwh, occ, viol) = gen::day_quality(&inputs.days[*tenant].env, &actions)?;
        energy += kwh;
        occupied += occ;
        violating += viol;
    }

    let phase_latency = |phase: usize| -> Vec<(f64, f64)> {
        logs.iter()
            .flat_map(|l| l.latency[phase].weighted(&scale))
            .collect()
    };
    let mut untraced = phase_latency(0);
    if untraced.is_empty() {
        return Err("no request completed in the measured phase".into());
    }
    // Untraced segments: requests, and wall scaled to the reference.
    let untraced_segments: Vec<usize> = (0..segments.len())
        .filter(|&i| segments[i].0 == Phase::Untraced)
        .collect();
    let measured_requests: u64 = untraced_segments
        .iter()
        .map(|&i| logs.iter().map(|l| l.requests[i]).sum::<u64>())
        .sum();
    let phase_s: f64 = untraced_segments.iter().map(|&i| walls[i] * scale[i]).sum();
    let raw_phase_s: f64 = untraced_segments.iter().map(|&i| walls[i]).sum();
    let decisions_per_s = (measured_requests as usize * mode.batch()) as f64 / phase_s;
    let p50 = weighted_percentile(&mut untraced, 0.50);
    let p90 = weighted_percentile(&mut untraced, 0.90);

    let scaled_setups: Vec<f64> = setups
        .iter()
        .zip(setup_factors.windows(2))
        .map(|(&secs, f)| host::scaled(secs, (f[0] + f[1]) / 2.0))
        .collect();
    let setup_s = median(&scaled_setups);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb);
    report.set("pipeline_s", mode.tenants() as f64 / decisions_per_s);
    report.set("energy_kwh", energy / mode.tenants() as f64);
    report.set(
        "comfort_rate",
        1.0 - violating as f64 / occupied.max(1) as f64,
    );
    report.set("decisions_per_s", decisions_per_s);
    report.set("latency_p50_us", p50);
    report.set("latency_p90_us", p90);
    report.set("latency_p99_us", weighted_percentile(&mut untraced, 0.99));

    let states: [u64; 4] = logs.iter().fold([0; 4], |mut acc, l| {
        acc.iter_mut().zip(l.states).for_each(|(a, s)| *a += s);
        acc
    });
    let total = states.iter().sum::<u64>().max(1) as f64;
    report.set("guard.policy_share", (states[0] + states[1]) as f64 / total);
    report.set(
        "guard.fallback_share",
        (states[2] + states[3]) as f64 / total,
    );
    report.set(
        "audit.bytes_per_decision",
        chain_bytes as f64 / decisions.max(1) as f64,
    );
    let hist = mode.server_histogram();
    report.set("server.decide_p50_us", histogram(&after, hist, "p50") / 1e3);
    report.set("server.decide_p99_us", histogram(&after, hist, "p99") / 1e3);
    for name in ["http.connections", "http.shed", "serve.audit.errors"] {
        report.set(name, counter(&after, name) - counter(&before, name));
    }
    report.set(
        "server.cpu_us_per_decision",
        server_cpu_ns as f64 / 1e3 / decisions.max(1) as f64,
    );
    report.set(
        "fleet.setup_per_tenant_ms",
        setup_s * 1e3 / mode.tenants() as f64,
    );
    report.set("host.factor", median(&factor));

    if args.trace {
        let mut traced = phase_latency(1);
        let mut tracer = Tracer::new(epoch);
        let mut replay = Vec::new();
        for log in logs {
            tracer.absorb(log.tracer);
            replay.extend(log.replay);
        }
        traced_layers(mode, &inputs, &replay, scratch, &mut tracer, &mut report)?;
        if traced.is_empty() {
            return Err("no request completed in the traced phase".into());
        }
        let traced_p50 = weighted_percentile(&mut traced, 0.50);
        report.set("trace.overhead_pct", (traced_p50 - p50) / p50 * 100.0);
        report.set("trace.spans", tracer.spans().len() as f64);
        let stem = out_dir.join(format!("{}-seed{}", mode.name(), args.seed));
        tracer.write_jsonl(&stem.with_extension("spans.jsonl"))?;
        write_overhead(
            &stem.with_extension("overhead.json"),
            &[
                ("latency_p50_us", p50, traced_p50),
                (
                    "latency_p90_us",
                    p90,
                    weighted_percentile(&mut traced, 0.90),
                ),
            ],
        )?;
    }
    report.set("ok_rate", report.ok_rate());
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", weighted_percentile(&mut untraced, d as f64 / 10.0)))
        .collect();
    eprintln!(
        "{}: {measured_requests} measured requests, {decisions_per_s:.0} decisions/s \
         ({:.0} unscaled), host factor median {:.3}, scaled latency deciles [{}] us, \
         set-ups {setups:?} s unscaled, set-up factors {setup_factors:?}",
        mode.name(),
        (measured_requests as usize * mode.batch()) as f64 / raw_phase_s,
        median(&factor),
        deciles.join(", "),
    );
    Ok(report)
}

/// Replays every tenant's served sequence (its day's steps in order,
/// cycling) through a fresh guard over its fixture policy and checks
/// the digest of what was served against the replay's. A tenant whose
/// sequence differs counts every one of its decisions as failed.
fn check_sequences(inputs: &Inputs, tenants: &[&(usize, TenantLog)], report: &mut Report) {
    for (tenant, log) in tenants {
        let mut guard = gen::guard(inputs.policies[gen::tenant_fixture(*tenant)].clone());
        let mut replay = TenantLog::new();
        let day = &inputs.days[*tenant].observations;
        for n in 0..log.served as usize {
            let action = guard.decide(&day[n % STEPS_PER_DAY]);
            replay.push(Served::from_decision(action, guard.state()));
        }
        report.check_many(
            log.served,
            if replay.digest == log.digest {
                Ok(())
            } else {
                Err(format!(
                    "tenant {tenant}: the {} served decisions differ from the in-process replay",
                    log.served
                ))
            },
        );
    }
}

/// Audits every sealed chain of the serving fleet, two at a time;
/// returns their total size in bytes.
fn audit_chains(
    mode: Mode,
    inputs: &Inputs,
    dir: &Path,
    report: &mut Report,
) -> Result<u64, String> {
    let audit = |i: usize| -> Result<(u64, Result<(), String>), String> {
        let path = dir.join(format!("{}.jsonl", gen::tenant_id(i)));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let audit = Auditor::new(&text)
            .with_policy(&inputs.policies[gen::tenant_fixture(i)])
            .run();
        let verdict = if audit.passed() {
            Ok(())
        } else {
            Err(format!(
                "chain {} fails its audit: {}",
                path.display(),
                audit.failure_class()
            ))
        };
        Ok((text.len() as u64, verdict))
    };
    type Verdicts = Result<Vec<(u64, Result<(), String>)>, String>;
    let halves: Vec<Verdicts> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let audit = &audit;
                scope.spawn(move || (w..mode.tenants()).step_by(2).map(audit).collect())
            })
            .collect();
        workers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("audit thread panicked".into()))
            })
            .collect()
    });
    let mut bytes = 0;
    for half in halves {
        for (size, verdict) in half? {
            bytes += size;
            report.check(verdict);
        }
    }
    Ok(bytes)
}

/// The traced run's layer split: the traced-phase requests replayed
/// in-process through the handler's public building blocks, with spans
/// around each call.
fn traced_layers(
    mode: Mode,
    inputs: &Inputs,
    traced: &[Replayable],
    scratch: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let dir = scratch.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| format!("replay dir: {e}"))?;
    // The in-process split of the handler: each layer's mean time, and
    // what the replayed handler spent outside them.
    match mode {
        Mode::Decide => {
            let pairs: Vec<(Mutex<_>, AuditChain)> = (0..mode.tenants())
                .map(|i| {
                    let policy = &inputs.policies[gen::tenant_fixture(i)];
                    let chain = AuditChain::create(
                        &dir.join(format!("{}.jsonl", gen::tenant_id(i))),
                        &veri_hvac::audit::policy_hash(policy),
                        "",
                        ChainConfig::default(),
                    )
                    .map_err(|e| format!("replay chain: {e}"))?;
                    Ok((Mutex::new(gen::guard(policy.clone())), chain))
                })
                .collect::<Result<_, String>>()?;
            let (mut parse, mut decide, mut audit, mut handler) = (0u64, 0u64, 0u64, 0u64);
            for (n, sent) in traced.iter().enumerate() {
                let (guard, chain) = &pairs[sent.tenant];
                let trace_id = format!("replay-{n}");
                let span = tracer.enter("serve.handler", n as u64 + 1);
                let outcome = decide_json_traced(
                    guard,
                    Some(chain),
                    &inputs.bodies[sent.tenant][sent.step],
                    Some(&trace_id),
                )?;
                tracer.exit(span);
                tracer.record_child(span, "serve.parse", 0, outcome.parse_ns);
                tracer.record_child(span, "guard.decide", outcome.parse_ns, outcome.decide_ns);
                tracer.record_child(
                    span,
                    "audit.append",
                    outcome.parse_ns + outcome.decide_ns,
                    outcome.audit_ns,
                );
                parse += outcome.parse_ns;
                decide += outcome.decide_ns;
                audit += outcome.audit_ns;
                handler += tracer.spans()[span].duration_ns();
            }
            let n = traced.len().max(1) as f64;
            report.set("serve.parse_us", parse as f64 / 1e3 / n);
            report.set("guard.decide_us", decide as f64 / 1e3 / n);
            report.set("audit.append_us", audit as f64 / 1e3 / n);
            report.set(
                "serve.handler_self_us",
                (handler - parse - decide - audit) as f64 / 1e3 / n,
            );
        }
        Mode::Tick => {
            let fleet = Fleet::new(FleetOptions {
                audit_dir: Some(dir.clone()),
                ..FleetOptions::default()
            });
            for i in 0..mode.tenants() {
                fleet.add_tenant(
                    &gen::tenant_id(i),
                    inputs.policies[gen::tenant_fixture(i)].clone(),
                    None,
                )?;
            }
            let (mut json, mut obs, mut tick, mut handler) = (0u64, 0u64, 0u64, 0u64);
            for (n, sent) in traced.iter().enumerate() {
                let body = &inputs.bodies[0][sent.step];
                let span = tracer.enter("tick.handler", n as u64 + 1);
                let child = tracer.enter("json.parse", n as u64 + 1);
                let value = parse(body).map_err(|e| format!("tick body: {e}"))?;
                tracer.exit(child);
                let child = tracer.enter("serve.obs", n as u64 + 1);
                let requests = tick_requests(&value)?;
                tracer.exit(child);
                let child = tracer.enter("fleet.tick", n as u64 + 1);
                fleet.tick(&requests)?;
                tracer.exit(child);
                tracer.exit(span);
                let spans = tracer.spans();
                let len = spans.len();
                json += spans[len - 3].duration_ns();
                obs += spans[len - 2].duration_ns();
                tick += spans[len - 1].duration_ns();
                handler += spans[span].duration_ns();
            }
            fleet.seal_all();
            let n = traced.len().max(1) as f64;
            report.set("json.parse_us", json as f64 / 1e3 / n);
            report.set("serve.obs_us", obs as f64 / 1e3 / n);
            report.set("fleet.tick_us", tick as f64 / 1e3 / n);
            report.set(
                "serve.handler_self_us",
                (handler - json - obs - tick) as f64 / 1e3 / n,
            );
        }
    }
    // Round trip = the handler time the server reported for the same
    // requests + everything outside the handler.
    let mean_us = |f: fn(&Replayable) -> u64| {
        mean(&traced.iter().map(|r| f(r) as f64 / 1e3).collect::<Vec<_>>())
    };
    let (rtt_us, handler_us) = (mean_us(|r| r.rtt_ns), mean_us(|r| r.server_ns));
    report.set("serve.handler_us", handler_us);
    report.set("http.rtt_us", rtt_us);
    report.set("http.transport_us", rtt_us - handler_us);
    report.set("dtree.kernel_ns", kernel_ns(mode, inputs, tracer));
    Ok(())
}

/// `(tenant, observation)` pairs of a parsed `/tick` body, built with
/// the serve path's public `observation_from_value`.
fn tick_requests(value: &JsonValue) -> Result<Vec<(String, Observation)>, String> {
    value
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or("tick body lacks requests")?
        .iter()
        .map(|r| {
            let tenant = r
                .get("tenant")
                .and_then(JsonValue::as_str)
                .ok_or("no tenant")?;
            let obs = observation_from_value(r.get("observation").ok_or("no observation")?)?;
            Ok((tenant.to_string(), obs))
        })
        .collect()
}

/// Tree-kernel time per decision over every generated observation:
/// single-row `decide_shared` for `decide`, the batch kernel
/// `decide_batch_into` (one batch per city and step) for `tick`.
fn kernel_ns(mode: Mode, inputs: &Inputs, tracer: &mut Tracer) -> f64 {
    const ROUNDS: usize = 20;
    let span = tracer.enter("dtree.kernel", 0);
    let started = Instant::now();
    let mut count = 0usize;
    let mut out: Vec<SetpointAction> = Vec::with_capacity(mode.tenants());
    for _ in 0..ROUNDS {
        match mode {
            Mode::Decide => {
                for (i, day) in inputs.days.iter().enumerate() {
                    let policy = &inputs.policies[gen::tenant_fixture(i)];
                    for obs in &day.observations {
                        std::hint::black_box(policy.decide_shared(std::hint::black_box(obs)));
                        count += 1;
                    }
                }
            }
            Mode::Tick => {
                for step in 0..STEPS_PER_DAY {
                    for (f, policy) in inputs.policies.iter().enumerate() {
                        let batch: Vec<Observation> = (f..mode.tenants())
                            .step_by(inputs.policies.len())
                            .map(|i| inputs.days[i].observations[step])
                            .collect();
                        out.clear();
                        policy.decide_batch_into(std::hint::black_box(&batch), &mut out);
                        std::hint::black_box(&out);
                        count += batch.len();
                    }
                }
            }
        }
    }
    let ns = started.elapsed().as_nanos() as f64 / count.max(1) as f64;
    tracer.exit(span);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_decide_and_tick_responses() {
        let mut out = Vec::new();
        let one = r#"{"tenant":"b001","heating_setpoint":20,"cooling_setpoint":24,"action_index":3,"action":"(20, 24)","guard_state":"normal","latency_ns":1200}"#;
        scan_decisions(one, 1, &mut out).unwrap();
        assert_eq!(
            out,
            vec![Served {
                heating: 20,
                cooling: 24,
                state: GuardState::Normal
            }]
        );
        let tick = r#"{"count":2,"decisions":[{"tenant":"b000","heating_setpoint":15,"cooling_setpoint":30,"guard_state":"hold"},{"tenant":"b001","heating_setpoint":21,"cooling_setpoint":25,"guard_state":"fail_safe"}]}"#;
        scan_decisions(tick, 2, &mut out).unwrap();
        assert_eq!(out[1].heating, 21);
        assert_eq!(out[0].state, GuardState::Hold);
        assert_eq!(out[1].state, GuardState::FailSafe);
        assert!(scan_decisions(tick, 3, &mut out).is_err());
        assert!(scan_decisions(r#"{"guard_state":"normal"}"#, 1, &mut out).is_err());
    }

    #[test]
    fn weighted_percentile_takes_the_first_value_reaching_the_share() {
        let mut s = vec![(3.0, 1.0), (1.0, 1.0), (2.0, 1.0), (4.0, 1.0)];
        assert_eq!(weighted_percentile(&mut s, 0.5), 2.0);
        assert_eq!(weighted_percentile(&mut s, 0.75), 3.0);
        assert_eq!(weighted_percentile(&mut s, 1.0), 4.0);
        // A heavier sample stands for more of the stream.
        let mut w = vec![(10.0, 3.0), (20.0, 1.0)];
        assert_eq!(weighted_percentile(&mut w, 0.7), 10.0);
        assert_eq!(weighted_percentile(&mut w, 0.8), 20.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(9);
        let n = 3 * RESERVOIR as u64;
        for v in 0..n {
            r.push(v as f64);
        }
        assert_eq!(r.kept.len(), RESERVOIR);
        assert_eq!(r.seen, n);
        let mut samples: Vec<(f64, f64)> = r.weighted(&[1.0]).collect();
        let median = weighted_percentile(&mut samples, 0.5);
        assert!(
            (median / n as f64 - 0.5).abs() < 0.01,
            "median {median} of 0..{n}"
        );
        let total: f64 = samples.iter().map(|s| s.1).sum();
        assert!((total - n as f64).abs() < 1e-6);
    }

    #[test]
    fn sequence_digest_depends_on_order() {
        let a = Served {
            heating: 20,
            cooling: 24,
            state: GuardState::Normal,
        };
        let b = Served {
            heating: 21,
            cooling: 24,
            state: GuardState::Normal,
        };
        let (mut x, mut y) = (TenantLog::new(), TenantLog::new());
        x.push(a);
        x.push(b);
        y.push(b);
        y.push(a);
        assert_ne!(x.digest, y.digest);
        assert_eq!(x.served, 2);
        assert_eq!(x.first_day, vec![a, b]);
    }
}
