//! Wire-level concurrency hammers for the fixed-pool HTTP server:
//! many clients, both connection-per-request and keep-alive, must all
//! complete promptly — no stalls, no lost responses, no slot leaks.

use hvac_telemetry::http::{blocking_request, BlockingClient, HttpServer, Response};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn echo_server() -> HttpServer {
    HttpServer::builder()
        .route("POST", "/echo", |req| Response::text(200, req.body.clone()))
        .bind("127.0.0.1:0")
        .expect("bind")
}

#[test]
fn concurrent_connection_per_request_clients_never_stall() {
    let server = echo_server();
    let addr = server.addr();
    const THREADS: usize = 16;
    const ITERS: usize = 100;
    let started = Instant::now();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    let body = format!("t{t}i{i}");
                    let (status, text) =
                        blocking_request(addr, "POST", "/echo", &body).expect("request");
                    assert_eq!(status, 200);
                    assert_eq!(text, body);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // 1600 echo round trips over loopback: sub-second when healthy,
    // tens of seconds when a connection stalls out a worker.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "hammer took {:?} — a connection stalled",
        started.elapsed()
    );
    server.shutdown();
}

#[test]
fn concurrent_keep_alive_clients_never_stall() {
    let server = echo_server();
    let addr = server.addr();
    const THREADS: usize = 16;
    const ITERS: usize = 200;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = BlockingClient::connect(addr).expect("connect");
                for i in 0..ITERS {
                    let body = format!("t{t}i{i}");
                    let (status, _, text) = client
                        .request("POST", "/echo", &[], &body)
                        .expect("request");
                    assert_eq!(status, 200);
                    assert_eq!(text, body);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// A server whose one route answers with the id of the worker thread
/// that ran the handler.
fn whoami_server(workers: usize) -> HttpServer {
    HttpServer::builder()
        .workers(workers)
        .route("GET", "/whoami", |_req| {
            Response::text(200, format!("{:?}", std::thread::current().id()))
        })
        .bind("127.0.0.1:0")
        .expect("bind")
}

#[test]
fn lone_keep_alive_connection_stays_on_one_worker() {
    let server = whoami_server(8);
    let mut client = BlockingClient::connect(server.addr()).expect("connect");
    // Several times the server's 64-request turn budget: with nobody
    // else waiting, every turn after the first continues on the same
    // worker instead of handing the connection to another.
    let workers: std::collections::BTreeSet<String> = (0..200)
        .map(|_| {
            let (status, _, who) = client.request("GET", "/whoami", &[], "").expect("request");
            assert_eq!(status, 200);
            who
        })
        .collect();
    assert_eq!(
        workers.len(),
        1,
        "connection moved across workers: {workers:?}"
    );
    server.shutdown();
}

#[test]
fn busy_connection_still_yields_its_worker_to_a_waiting_one() {
    // One worker. Connection `a` pipelines its whole backlog in one
    // write, so a request is always buffered and `a` never idles; only
    // the end of a 64-request turn, seen while `b` waits, can hand the
    // worker to `b` before that backlog drains.
    const PIPELINED: usize = 10_000;
    let served = Arc::new(AtomicUsize::new(0));
    let server = {
        let served = Arc::clone(&served);
        HttpServer::builder()
            .workers(1)
            .route("GET", "/seq", move |_req| {
                Response::text(200, served.fetch_add(1, Ordering::SeqCst).to_string())
            })
            .bind("127.0.0.1:0")
            .expect("bind")
    };
    let addr = server.addr();
    let mut a = TcpStream::connect(addr).expect("connect a");
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Drain `a`'s responses so the worker never blocks writing them.
    let drain = {
        let mut a = a.try_clone().expect("clone a");
        std::thread::spawn(move || {
            let mut sink = [0u8; 64 * 1024];
            while matches!(a.read(&mut sink), Ok(n) if n > 0) {}
        })
    };
    a.write_all(
        "GET /seq HTTP/1.1\r\nHost: t\r\n\r\n"
            .repeat(PIPELINED)
            .as_bytes(),
    )
    .expect("pipeline a");

    let mut b = BlockingClient::connect(addr).expect("connect b");
    let (status, _, seq) = b.request("GET", "/seq", &[], "").expect("request b");
    assert_eq!(status, 200);
    let seq: usize = seq.parse().expect("sequence number");
    assert!(
        seq < PIPELINED,
        "b was served only after a's whole backlog (request #{seq})"
    );
    a.shutdown(Shutdown::Write).expect("close a");
    drain.join().expect("drain a");
    server.shutdown();
}
