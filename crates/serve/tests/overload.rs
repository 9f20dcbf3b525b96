//! Overload-path integration tests: the network front end under more
//! demand than the scheduler is allowed to hold.
//!
//! What is asserted here is the serving contract under stress, end to end
//! over real TCP: load is shed with a structured retry-after instead of
//! queueing unboundedly, quota rejections happen *before* the scheduler
//! sees the request, graceful drain resolves every in-flight ticket, and a
//! client vanishing mid-request harms nobody else.

use lobster::{FactSet, Program, ProvenanceKind, Value};
use lobster_serve::{
    AdmissionConfig, Client, KeyStore, Quota, SchedulerConfig, Server, ServerConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

fn program() -> Arc<Program> {
    Arc::new(Program::compile(TC, ProvenanceKind::AddMultProb).expect("compiles"))
}

fn edge_request(a: u32, b: u32) -> FactSet {
    let mut facts = FactSet::new();
    facts.add("edge", &[Value::U32(a), Value::U32(b)], Some(0.5));
    facts
}

fn server_with(max_pending: usize, queue_delay: Duration, quota: Quota) -> Server {
    let keys = KeyStore::new();
    keys.add_key("k", quota);
    Server::bind(
        ("127.0.0.1", 0),
        program(),
        keys,
        ServerConfig {
            scheduler: SchedulerConfig::default()
                .with_max_batch_size(64)
                .with_max_queue_delay(queue_delay),
            admission: AdmissionConfig::default().with_max_pending(max_pending),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

#[test]
fn overload_is_shed_with_a_retry_after_and_admitted_requests_still_serve() {
    // Cap the scheduler at 2 pending requests and hold the flush timer at
    // 300ms: a burst of 6 concurrent clients lands while the first requests
    // are still queued, so at least one must be shed.
    let server = server_with(2, Duration::from_millis(300), Quota::unlimited());
    let addr = server.local_addr();
    let replies: Vec<_> = (0..6u32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, "k").expect("connect");
                client.run(&edge_request(i, i + 1)).expect("transport ok")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let (ok, shed): (Vec<_>, Vec<_>) = replies.iter().partition(|r| r.ok());
    assert!(!ok.is_empty(), "nothing was admitted");
    assert!(
        !shed.is_empty(),
        "6 clients against a cap of 2 and nothing shed"
    );
    for reply in &shed {
        assert_eq!(
            reply.code(),
            Some("shed"),
            "{:?}",
            reply.json().to_compact()
        );
        let retry = reply.retry_after().expect("shed replies carry retry-after");
        assert!(retry > Duration::ZERO);
    }
    let stats = server.admission_stats();
    assert_eq!(stats.admitted as usize, ok.len());
    assert_eq!(stats.shed as usize, shed.len());
    server.shutdown();
}

#[test]
fn quota_exhaustion_rejects_before_the_scheduler_sees_the_request() {
    // Burst of 2, effectively no refill within the test.
    let server = server_with(
        256,
        Duration::from_millis(1),
        Quota::per_second(1.0 / 3600.0, 2),
    );
    let mut client = Client::connect(server.local_addr(), "k").expect("connect");
    assert!(client.run(&edge_request(0, 1)).unwrap().ok());
    assert!(client.run(&edge_request(1, 2)).unwrap().ok());
    let third = client.run(&edge_request(2, 3)).unwrap();
    assert_eq!(third.code(), Some("quota"));
    assert!(third.retry_after().expect("quota carries retry-after") > Duration::ZERO);
    // "Before enqueue": the scheduler served exactly the two admitted
    // requests; the rejected one never became a sample, and admission
    // control never even voted on it.
    assert_eq!(server.scheduler().stats().samples, 2);
    assert_eq!(server.admission_stats().admitted, 2);
    assert_eq!(server.auth_stats().quota_rejected, 1);
    server.shutdown();
}

#[test]
fn graceful_drain_resolves_every_in_flight_ticket() {
    // A 200ms flush timer guarantees requests are still pending (queued,
    // unflushed) when shutdown lands mid-burst.
    let server = server_with(256, Duration::from_millis(200), Quota::unlimited());
    let addr = server.local_addr();
    let clients: Vec<_> = (0..4u32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, "k").expect("connect");
                client.run(&edge_request(i, i + 1))
            })
        })
        .collect();
    // Let the burst reach the queue, then drain under it.
    std::thread::sleep(Duration::from_millis(50));
    let pending_before = server.scheduler().pending();
    server.shutdown();
    let mut served = 0usize;
    for handle in clients {
        // No client may hang or see a transport error: a request accepted
        // into the scheduler resolves with its result (the drop-drain runs
        // the queue), and one that raced the drain gets a structured
        // `shutdown` rejection — either way the connection completes.
        let reply = handle
            .join()
            .expect("client thread")
            .expect("no transport errors during drain");
        if reply.ok() {
            served += 1;
        } else {
            assert_eq!(
                reply.code(),
                Some("shutdown"),
                "{:?}",
                reply.json().to_compact()
            );
        }
    }
    assert!(
        served >= pending_before,
        "{pending_before} tickets were in flight at drain but only {served} resolved with results"
    );
}

#[test]
fn new_connections_are_refused_while_draining_and_after() {
    let server = server_with(256, Duration::from_millis(1), Quota::unlimited());
    let addr = server.local_addr();
    let mut client = Client::connect(addr, "k").expect("connect");
    assert!(client.run(&edge_request(0, 1)).unwrap().ok());
    server.shutdown();
    // After shutdown the listener is gone entirely; a connect (or a request
    // on a racing connection) fails instead of queueing work nowhere.
    match Client::connect(addr, "k") {
        Err(_) => {}
        Ok(mut late) => assert!(late.run(&edge_request(1, 2)).is_err()),
    }
}

#[test]
fn a_client_vanishing_mid_request_leaves_the_scheduler_serving() {
    let server = server_with(256, Duration::from_millis(100), Quota::unlimited());
    let addr = server.local_addr();
    // Hand-frame a valid run request, send it, and slam the connection shut
    // before the response can be written.
    let body = br#"{"op":"run","key":"k","facts":[{"rel":"edge","values":[{"u32":7},{"u32":8}],"prob":0.5}]}"#;
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&(body.len() as u32).to_be_bytes())
            .expect("header");
        stream.write_all(body).expect("body");
        stream.flush().expect("flush");
        // Dropped here: the server's response write fails on a dead socket.
    }
    // Also slam a connection mid-frame (header promising more than is sent).
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&(64u32).to_be_bytes()).expect("header");
        stream.write_all(b"partial").expect("partial body");
    }
    // The scheduler (and the whole front end) keeps serving other clients.
    let mut client = Client::connect(addr, "k").expect("connect");
    for i in 0..3u32 {
        let reply = client.run(&edge_request(i, i + 1)).expect("transport ok");
        assert!(reply.ok(), "{:?}", reply.json().to_compact());
    }
    server.shutdown();
}
