//! The `serve --listen` accept path over real loopback TCP: accepted
//! sockets have Nagle off and the read deadline set, a reply costs a
//! round trip rather than a delayed-ACK stall, and a full session over
//! the socket bills exactly what the batch decider measures.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_algo::SortRoute;
use st_core::{BillingKey, ResourceBill, TenantBudget};
use st_problems::generate::{no_checksort_sorted_but_wrong, yes_checksort};
use st_problems::predicates::is_check_sorted;
use st_serve::{
    configure_accepted, read_frame, serve_listener, write_frame, DeciderKind, Request, Response,
    Service,
};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const KEY: u64 = 0x7c9;
const TENANT: &str = "t";

/// Run `client` against `serve_listener` on an ephemeral loopback port.
/// The listener serves that one connection and returns once the client
/// has hung up.
fn with_server(client: impl FnOnce(&mut TcpStream)) {
    let service = Service::new(KEY, 3);
    service.register_tenant(TENANT, TenantBudget::unlimited());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let service = &service;
        scope.spawn(move || {
            serve_listener(
                service,
                listener.incoming().take(1),
                Some(Duration::from_secs(30)),
            );
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        // The client's own Nagle delay is not what this file measures.
        stream.set_nodelay(true).unwrap();
        client(&mut stream);
    });
}

fn call(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, &request.encode().unwrap()).unwrap();
    let body = read_frame(stream).unwrap().expect("a reply frame");
    Response::decode(&body).unwrap()
}

#[test]
fn accepted_streams_get_nodelay_and_the_read_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    configure_accepted(&accepted, Some(Duration::from_secs(7))).unwrap();
    assert!(accepted.nodelay().unwrap());
    assert_eq!(
        accepted.read_timeout().unwrap(),
        Some(Duration::from_secs(7))
    );
    configure_accepted(&accepted, None).unwrap();
    assert!(accepted.nodelay().unwrap());
    assert_eq!(accepted.read_timeout().unwrap(), None);
}

#[test]
fn a_hundred_round_trips_take_no_delayed_ack_stall() {
    // A reply held back by Nagle until the client's delayed ACK costs
    // ≈ 40–44 ms, so 100 of them would take ≥ 4 s.
    with_server(|stream| {
        let started = Instant::now();
        for session in 0..100 {
            let reply = call(stream, &Request::Close { session });
            assert!(
                matches!(reply, Response::Error { session: s, .. } if s == session),
                "{reply:?}"
            );
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "100 round trips took {elapsed:?}"
        );
    });
}

#[test]
fn check_sort_sessions_over_tcp_bill_the_batch_usage() {
    let mut rng = StdRng::seed_from_u64(13);
    let (m, n) = (48, 6);
    let instances = [
        yes_checksort(m, n, &mut rng),
        no_checksort_sorted_but_wrong(m, n, &mut rng),
    ];
    let decider = DeciderKind::Sort(SortRoute::CheckSort).id();
    with_server(|stream| {
        for (session, inst) in (1u64..).zip(&instances) {
            let opened = call(
                stream,
                &Request::Open {
                    session,
                    tenant: TENANT.into(),
                    decider: decider.into(),
                    m: m as u64,
                    n: n as u64,
                },
            );
            assert_eq!(opened, Response::OpenOk { session });
            for chunk in inst.encode().as_bytes().chunks(40) {
                let fed = call(
                    stream,
                    &Request::Feed {
                        session,
                        bytes: chunk.to_vec(),
                    },
                );
                assert_eq!(fed, Response::Ack { session });
            }
            assert_eq!(
                call(stream, &Request::Finish { session }),
                Response::Ack { session }
            );
            let (accepted, bill) = loop {
                match call(
                    stream,
                    &Request::Step {
                        session,
                        budget: 512,
                    },
                ) {
                    Response::Yielded { .. } => continue,
                    Response::Done { accepted, bill, .. } => break (accepted, bill),
                    other => panic!("step answered {other:?}"),
                }
            };
            assert_eq!(accepted, is_check_sorted(inst), "session {session}");
            assert!(BillingKey::new(KEY).verify(&bill), "session {session}");
            let batch = st_algo::sortcheck::decide_check_sort(inst).unwrap();
            assert_eq!(batch.accepted, accepted);
            assert_eq!(
                bill.bill,
                ResourceBill::from_usage(TENANT, session, decider, &batch.usage, accepted)
            );
        }
    });
}
