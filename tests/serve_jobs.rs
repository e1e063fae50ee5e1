//! Integration tests of the `facilec serve` job daemon.
//!
//! The service contract (ISSUE 10, `docs/SERVING.md`): concurrent
//! clients get per-job results bit-identical to `facilec batch` on the
//! same job list; malformed frames produce structured errors without
//! taking the daemon down; a client that disconnects mid-job does not
//! wedge its worker; a full queue rejects with honest backpressure;
//! and shutdown drains every accepted job before exiting.

use facile::batch::{run_batch, BatchConfig, BatchJob};
use facile::hosts::initial_args;
use facile::serve::{sim_request, ServeClient, ServeConfig, Server};
use facile::{compile_source, CompiledStep, CompilerOptions, RunDoc, SimOptions};
use facile_obs::json::Value;
use std::sync::Arc;

fn functional_step() -> Arc<CompiledStep> {
    let src = facile::sims::functional_source();
    Arc::new(compile_source(&src, &CompilerOptions::default()).expect("builtin compiles"))
}

/// Eight distinct programs with stores (so memory digests are
/// meaningful witnesses), from the synthetic SPEC suite at a tiny
/// scale.
fn suite_asms(n: usize) -> Vec<String> {
    facile_workloads::suite()
        .iter()
        .take(n)
        .map(|w| facile_workloads::generate(w, 0.01))
        .collect()
}

/// A self-bounded busy loop of roughly `iters` iterations — the "slow
/// job" used to hold a worker while other requests arrive.
fn busy_asm(iters_hi16: i64) -> String {
    format!(
        "addi r1, r0, 0\n\
         lui r2, {iters_hi16}\n\
         loop: addi r1, r1, 1\n\
         bne r1, r2, loop\n\
         out r1\n\
         halt\n"
    )
}

/// The per-job document with run-variant fields pinned — the label,
/// the wall-clock total, and the two nanosecond latency histograms
/// (wall-clock measurements, the documented "modulo wall-clock
/// fields" caveat of batch determinism) — so equality is equality of
/// every architectural counter, step histogram and per-action vector.
fn normalized(doc: &RunDoc) -> String {
    let mut d = doc.clone();
    d.label = "normalized".to_owned();
    d.wall_ns = 0;
    if let Some(m) = d.metrics.as_mut() {
        m.slow_step_ns = facile_obs::LogHistogram::default();
        m.fast_burst_ns = facile_obs::LogHistogram::default();
    }
    d.to_json()
}

#[test]
fn eight_concurrent_clients_match_facilec_batch_bit_for_bit() {
    let step = functional_step();
    let asms = suite_asms(8);

    // The reference: the same eight jobs through the batch driver.
    let jobs: Vec<BatchJob> = asms
        .iter()
        .enumerate()
        .map(|(i, asm)| {
            let image = facile_isa::assemble_image(asm, 0x1_0000, vec![]).expect("assembles");
            BatchJob {
                label: format!("job{i}"),
                args: initial_args::functional(image.entry),
                image,
                options: SimOptions::default(),
                max_steps: u64::MAX >> 1,
            }
        })
        .collect();
    let batch = run_batch(
        step.clone(),
        jobs,
        &BatchConfig {
            threads: 4,
            ..BatchConfig::default()
        },
    )
    .expect("batch runs");

    // The same jobs through the daemon, one concurrent client each.
    let server = Server::start(
        step,
        ServeConfig {
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .expect("binds");
    let addr = server.addr();
    let results: Vec<Value> = std::thread::scope(|scope| {
        let handles: Vec<_> = asms
            .iter()
            .enumerate()
            .map(|(i, asm)| {
                scope.spawn(move || {
                    let mut c = ServeClient::connect(addr).expect("connects");
                    c.submit_and_wait(&sim_request(
                        i as u64,
                        &format!("job{i}"),
                        asm,
                        &["metrics"],
                        false,
                    ))
                    .expect("result frame")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut serve_docs = Vec::new();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.get("op").and_then(Value::as_str), Some("result"), "job {i}");
        assert_eq!(r.get("id").and_then(Value::as_u64), Some(i as u64));
        let b = &batch.jobs[i];
        assert_eq!(
            r.get("digest").and_then(Value::as_str),
            Some(format!("{:016x}", b.digest).as_str()),
            "job {i}: serve and batch agree on the final memory digest"
        );
        // `out` values are decimal strings on the wire — full 64-bit
        // range, exact through any JSON parser.
        let out: Vec<i64> = r
            .get("out")
            .and_then(Value::as_arr)
            .expect("out array")
            .iter()
            .map(|v| v.as_str().expect("out string").parse().expect("out value"))
            .collect();
        assert_eq!(out, b.out, "job {i}: identical out traces");
        let doc = RunDoc::from_value(r.get("obs").expect("document embedded"))
            .expect("embedded document parses");
        assert!(doc.metrics.is_some(), "job {i}: the wanted section is there");
        assert_eq!(
            normalized(&doc),
            normalized(&b.doc),
            "job {i}: per-job documents are bit-identical"
        );
        serve_docs.push(doc);
    }

    // Folding the client-fetched documents in submission order
    // reproduces the batch driver's merged document exactly.
    let mut merged = serve_docs[0].clone();
    for d in &serve_docs[1..] {
        merged.merge(d).expect("same program");
    }
    assert_eq!(
        normalized(&merged),
        normalized(&batch.merged),
        "merged documents are bit-identical across drivers"
    );

    server.shutdown_trigger().trigger();
    let counters = server.join();
    assert_eq!(counters.completed, 8);
    assert_eq!(counters.connections, 8);
    assert_eq!(counters.failed, 0);
}

#[test]
fn bad_frame_closes_the_connection_but_not_the_daemon() {
    use std::io::{Read, Write};
    let server = Server::start(functional_step(), ServeConfig::default()).expect("binds");
    let addr = server.addr();

    // A connection that cannot frame: non-decimal length header.
    let mut raw = std::net::TcpStream::connect(addr).expect("connects");
    raw.write_all(b"not-a-length\n").expect("writes");
    let mut response = Vec::new();
    raw.read_to_end(&mut response).expect("daemon answers then closes");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.contains("\"error\":\"bad_frame\""),
        "structured error before the close: {text}"
    );

    // The daemon survives: a fresh connection serves normally, and a
    // well-framed-but-garbage body keeps ITS connection usable.
    let mut c = ServeClient::connect(addr).expect("reconnects");
    let err = c.request("{ not json }").expect("error frame");
    assert_eq!(err.get("error").and_then(Value::as_str), Some("bad_request"));
    let pong = c.request("{\"op\":\"ping\"}").expect("pong");
    assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));

    server.shutdown_trigger().trigger();
    let counters = server.join();
    assert_eq!(counters.bad_frames, 1);
    assert_eq!(counters.bad_requests, 1);
}

#[test]
fn disconnect_mid_job_does_not_wedge_the_worker() {
    let server = Server::start(
        functional_step(),
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .expect("binds");
    let addr = server.addr();

    // Client A submits a long job and vanishes the moment it is
    // accepted.
    {
        let mut a = ServeClient::connect(addr).expect("connects");
        a.send(&sim_request(1, "doomed", &busy_asm(40), &[], false))
            .expect("submits");
        let ack = a.recv().expect("ack");
        assert_eq!(ack.get("op").and_then(Value::as_str), Some("accepted"));
        // Dropping the client closes the socket mid-job.
    }

    // Client B's job queues behind the doomed one on the single
    // worker; getting its result proves the worker survived the
    // disconnect.
    let mut b = ServeClient::connect(addr).expect("connects");
    let result = b
        .submit_and_wait(&sim_request(2, "after", &busy_asm(1), &[], false))
        .expect("result frame");
    assert_eq!(result.get("op").and_then(Value::as_str), Some("result"));
    assert_eq!(result.get("id").and_then(Value::as_u64), Some(2));

    server.shutdown_trigger().trigger();
    let counters = server.join();
    assert_eq!(counters.completed, 2, "the doomed job completed too");
    assert!(
        counters.disconnects >= 1,
        "the dropped result was counted: {counters:?}"
    );
}

#[test]
fn full_queue_rejects_with_honest_backpressure() {
    let server = Server::start(
        functional_step(),
        ServeConfig {
            threads: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        },
    )
    .expect("binds");
    let mut c = ServeClient::connect(server.addr()).expect("connects");

    // Occupy the single worker, then flood the depth-1 queue. The
    // worker drains at simulation speed while the floods arrive at
    // frame-parse speed, so at least one must bounce.
    let total = 24u64;
    c.send(&sim_request(0, "long", &busy_asm(40), &[], false))
        .expect("submits");
    let ack = c.recv().expect("ack");
    assert_eq!(ack.get("op").and_then(Value::as_str), Some("accepted"));
    for id in 1..total {
        c.send(&sim_request(id, "flood", &busy_asm(1), &[], false))
            .expect("submits");
    }

    // Collect every remaining frame: per-job acks/rejections plus one
    // result per accepted job.
    let mut accepted = 1u64; // the long job
    let mut rejected = 0u64;
    let mut completed = 0u64;
    while completed < accepted {
        let frame = c.recv().expect("frame");
        match frame.get("op").and_then(Value::as_str) {
            Some("accepted") => accepted += 1,
            Some("result") => completed += 1,
            Some("error") => {
                assert_eq!(
                    frame.get("error").and_then(Value::as_str),
                    Some("queue_full"),
                    "the only expected failure is backpressure"
                );
                rejected += 1;
            }
            other => panic!("unexpected frame op {other:?}"),
        }
    }
    assert_eq!(accepted + rejected, total, "every submission was answered");
    assert!(rejected >= 1, "a depth-1 queue under flood must bounce");

    server.shutdown_trigger().trigger();
    let counters = server.join();
    assert_eq!(counters.accepted, accepted);
    assert_eq!(counters.rejected, rejected);
    assert_eq!(counters.completed, accepted, "every accepted job ran");
    assert!(counters.queue_peak <= 1, "the bound held: {counters:?}");
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let server = Server::start(
        functional_step(),
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .expect("binds");
    let addr = server.addr();

    // Queue four jobs on one connection; wait for all four acks so
    // the jobs are in the queue before shutdown is requested.
    let mut a = ServeClient::connect(addr).expect("connects");
    for id in 0..4u64 {
        a.send(&sim_request(id, &format!("drain{id}"), &busy_asm(2), &[], false))
            .expect("submits");
    }
    for _ in 0..4 {
        let ack = a.recv().expect("ack");
        assert_eq!(ack.get("op").and_then(Value::as_str), Some("accepted"));
    }

    // A second client asks for shutdown while (at most) the first job
    // has started.
    let mut b = ServeClient::connect(addr).expect("connects");
    let bye = b.request("{\"op\":\"shutdown\"}").expect("ack");
    assert_eq!(bye.get("op").and_then(Value::as_str), Some("shutdown"));

    // The drain contract: all four queued jobs still produce results,
    // in submission order on this single-worker daemon.
    for id in 0..4u64 {
        let result = a.recv().expect("result during drain");
        assert_eq!(result.get("op").and_then(Value::as_str), Some("result"));
        assert_eq!(result.get("id").and_then(Value::as_u64), Some(id));
    }

    let counters = server.join();
    assert_eq!(counters.completed, 4, "nothing queued was abandoned");
    assert_eq!(counters.failed, 0);

    // New jobs after the drain find no listener at all.
    assert!(
        ServeClient::connect(addr).is_err() || {
            let mut c = ServeClient::connect(addr).expect("connects");
            c.request("{\"op\":\"ping\"}").is_err()
        },
        "the daemon is gone after the drain"
    );
}
