//! The `tcp_burst` workload: three `run_node` daemons (as threads of the
//! ledger) over 127.0.0.1 — the only end-to-end surface the socket
//! backend ships; `urb cluster --local` does exactly this.
//!
//! `run_node` is a black box from outside: it broadcasts its whole
//! workload at start-up, exits `linger` after it has delivered everything
//! expected, and reports delivery *sets* and socket counters — no
//! per-message times. So the timed window runs from the first spawn to
//! each node's report (minus the linger): dial-in, engine build, burst and
//! drain are all inside it, and per-message latency does not exist from
//! outside (the latency names carry burst completion times, marked not
//! applicable — see [`crate::workloads::Workload::not_applicable`]).

use std::net::TcpListener;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_runtime::{expected_payloads, run_node, NetError, NetStats, NodeConfig, NodeReport};
use urb_types::TopicId;

use crate::N;

/// How long a daemon keeps serving after it has everything.
const LINGER: Duration = Duration::from_millis(200);
/// A daemon that has not finished by then reports `complete = false`: the
/// 10 s every workload gives a broadcast to be delivered everywhere.
const RUN_LIMIT: Duration = Duration::from_secs(10);
/// A repetition that lost a reserved port to somebody else is run again,
/// at most this many times.
const PORT_RETRIES: u32 = 2;

/// Reserves `n` loopback ports by binding port 0 and letting go. (A
/// daemon's config names every peer's address up front, so the ports must
/// be known before anything listens.) Between the release and the daemon's
/// own bind another process — or a peer's outgoing dial drawing the same
/// ephemeral source port — can take one; [`run_rep`] then runs again.
fn free_loopback_addrs(n: usize) -> Vec<String> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral loopback port"))
        .collect();
    held.iter()
        .map(|l| {
            l.local_addr()
                .expect("bound listener has an address")
                .to_string()
        })
        .collect()
}

/// Everything one repetition measured.
pub struct TcpRep {
    /// The workload's own set-up — reserving ports, the three configs, the
    /// expected delivery set — up to the first spawn, seconds. `run_node`
    /// dials in and builds its engine inside the timed window.
    pub setup_s: f64,
    /// First spawn → last node's report, minus the linger, seconds.
    pub window_s: f64,
    /// Each node's spawn → report time minus the linger, µs, ascending.
    pub node_complete_us: Vec<f64>,
    /// Broadcasts attempted (all nodes).
    pub attempted: u64,
    /// Broadcasts failed: every broadcast of a node that reported
    /// incomplete or a delivery set other than the expected one.
    pub failed: u64,
    /// What went wrong, if anything.
    pub violations: Vec<String>,
    /// Each reporting node's socket counters.
    pub nets: Vec<NetStats>,
    /// Times the repetition was run again because a daemon found its
    /// reserved port taken (a harness race, not a failed broadcast).
    pub port_retries: u32,
}

impl TcpRep {
    /// One socket counter summed over the nodes.
    pub fn net(&self, field: impl Fn(&NetStats) -> u64) -> u64 {
        self.nets.iter().map(field).sum()
    }
}

/// Runs one repetition, again if a reserved port was taken meanwhile.
pub fn run_rep(msgs: usize, seed: u64, sabotage: bool) -> TcpRep {
    let mut port_retries = 0;
    loop {
        match try_rep(msgs, seed, sabotage) {
            Some(mut rep) => {
                rep.port_retries = port_retries;
                return rep;
            }
            None if port_retries < PORT_RETRIES => port_retries += 1,
            None => panic!(
                "loopback ports were taken {} times in a row",
                port_retries + 1
            ),
        }
    }
}

/// One burst; `None` when a daemon could not bind its reserved port.
fn try_rep(msgs: usize, seed: u64, sabotage: bool) -> Option<TcpRep> {
    let setup_start = Instant::now();
    let addrs = free_loopback_addrs(N);
    let cfgs: Vec<NodeConfig> = (0..N)
        .map(|id| {
            let mut cfg = NodeConfig::new(id, N, Algorithm::Quiescent, addrs.clone());
            cfg.seed = seed;
            cfg.msgs = msgs;
            cfg.expect = Some(N * msgs);
            cfg.linger = LINGER;
            cfg.run_for = RUN_LIMIT;
            cfg
        })
        .collect();
    let expected: Vec<String> = expected_payloads(N, TopicId::ZERO, msgs)
        .into_iter()
        .collect();
    let setup_s = setup_start.elapsed().as_secs_f64();

    let start = Instant::now();
    let handles: Vec<_> = cfgs
        .into_iter()
        .map(|cfg| {
            std::thread::Builder::new()
                .name(format!("ledger-node-{}", cfg.id))
                .spawn(move || {
                    let report = run_node(&cfg);
                    (report, start.elapsed())
                })
                .expect("spawn daemon thread")
        })
        .collect();
    let results: Vec<(Result<NodeReport, NetError>, Duration)> = handles
        .into_iter()
        .map(|h| h.join().expect("daemon thread panicked"))
        .collect();
    if results
        .iter()
        .any(|(r, _)| matches!(r, Err(NetError::Bind { .. })))
    {
        return None;
    }

    let mut rep = TcpRep {
        setup_s,
        window_s: 0.0,
        node_complete_us: Vec::new(),
        attempted: (N * msgs) as u64,
        failed: 0,
        violations: Vec::new(),
        nets: Vec::new(),
        port_retries: 0,
    };
    for (id, (report, took)) in results.into_iter().enumerate() {
        let took = took.saturating_sub(LINGER);
        rep.node_complete_us.push(took.as_secs_f64() * 1e6);
        rep.window_s = rep.window_s.max(took.as_secs_f64());
        let mut report = match report {
            Ok(r) => r,
            Err(e) => {
                rep.failed += msgs as u64;
                rep.violations.push(format!("node {id} failed to run: {e}"));
                continue;
            }
        };
        if sabotage && id == 0 {
            report.per_topic[0].payloads.pop();
        }
        let got = report.per_topic.first().map(|t| t.payloads.as_slice());
        if !report.complete || got != Some(expected.as_slice()) {
            rep.failed += msgs as u64;
            rep.violations.push(format!(
                "agreement: node {id} complete={} delivered {} of {} expected payloads",
                report.complete,
                got.map_or(0, <[String]>::len),
                expected.len()
            ));
        }
        rep.nets.push(report.net);
    }
    crate::stats::sort(&mut rep.node_complete_us);
    Some(rep)
}
