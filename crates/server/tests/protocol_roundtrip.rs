//! Wire-protocol invariants: every schema variant survives a serde
//! round trip, framing failures are typed, and a malformed frame gets a
//! typed error without killing the connection.

use strober_server::frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use strober_server::protocol::{
    ErrorKind, EstimateOutcome, EstimateSpec, Event, FuzzJobOutcome, FuzzSpec, JobResult, JobSpec,
    JobState, JobSummary, Priority, ReplayOutcome, Request, Response, ServerMsg, WireError,
};
use strober_server::{Server, ServerConfig};
use strober_store::{JobProvenance, RunManifest};

fn round_trip<T>(value: &T)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(&back, value, "through {json}");
}

fn sample_summary() -> JobSummary {
    JobSummary {
        id: 42,
        kind: "estimate".to_owned(),
        state: JobState::Running,
        priority: Priority::High,
        client: "test-client".to_owned(),
        queue_wait_ms: 12.25,
    }
}

fn sample_manifest() -> RunManifest {
    let mut m = RunManifest::new("rok-tiny".to_owned(), "vvadd".to_owned());
    m.fingerprint = "deadbeef".to_owned();
    m.set_prepare("warm");
    m.job = Some(JobProvenance {
        id: 42,
        client: "test-client".to_owned(),
        queue_wait_ms: 12.25,
        worker: "1".to_owned(),
    });
    m.record("prepare", std::time::Duration::from_millis(3));
    m
}

fn sample_estimate_outcome() -> EstimateOutcome {
    EstimateOutcome {
        core: "rok-tiny".to_owned(),
        workload: "vvadd".to_owned(),
        cycles: 120_000,
        instret: 40_000,
        windows: 937,
        records: 30,
        samples: 30,
        core_power_mw: 12.75,
        half_width_mw: 0.5,
        confidence: 0.99,
        dram_power_mw: 3.25,
        epi_nj: 1.125,
        provenance: "warm".to_owned(),
        snapshot_fingerprint: "cafe1234".to_owned(),
        stop_reason: "converged".to_owned(),
        achieved_epsilon: Some(0.042),
        manifest: sample_manifest(),
    }
}

#[test]
fn every_request_variant_round_trips() {
    let requests = [
        Request::Hello {
            client: "cli".to_owned(),
        },
        Request::Submit {
            spec: JobSpec::Estimate(EstimateSpec::default()),
            priority: Priority::Normal,
            follow: true,
        },
        Request::Submit {
            spec: JobSpec::Replay(EstimateSpec {
                asm: Some("addi x1, x0, 1\nebreak 0".to_owned()),
                parallel: 3,
                batch_lanes: 8,
                hub_engine: "jit".to_owned(),
                ..EstimateSpec::default()
            }),
            priority: Priority::Low,
            follow: false,
        },
        Request::Submit {
            spec: JobSpec::Fuzz(FuzzSpec::default()),
            priority: Priority::High,
            follow: true,
        },
        Request::Jobs,
        Request::Status { job: 7 },
        Request::Cancel { job: 7 },
        Request::Metrics,
        Request::Shutdown { drain: true },
        Request::Ping,
    ];
    for req in &requests {
        round_trip(req);
    }
}

/// Revisions 6 and 8 dropped fields from `EstimateSpec`. Decoding
/// ignores fields it does not know, so a spec shaped like revision 5's
/// or 7's still parses; a spec that lacks a field this revision needs
/// does not.
#[test]
fn older_spec_shapes_decode_or_fail_typed() {
    let current = serde_json::to_string(&EstimateSpec::default()).unwrap();
    let older = current.replacen('{', "{\"retired_knob\":4,", 1);
    let back: EstimateSpec = serde_json::from_str(&older).expect("unknown fields are ignored");
    assert_eq!(back, EstimateSpec::default());

    // Revision 7 carried `tape_opt` next to `batch_lanes`; a v7 client
    // turning the optimizer off still gets the one tape there is.
    let v7 = current.replace("\"hub_engine\":", "\"tape_opt\":false,\"hub_engine\":");
    assert!(v7.contains("\"tape_opt\":false"), "{v7}");
    let back: EstimateSpec = serde_json::from_str(&v7).expect("the retired field is ignored");
    assert_eq!(back, EstimateSpec::default());
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        current,
        "and not re-encoded"
    );

    let without_engine = current.replace("\"hub_engine\":\"auto\",", "");
    assert_ne!(without_engine, current, "the field must have been cut");
    let err = serde_json::from_str::<EstimateSpec>(&without_engine).unwrap_err();
    assert!(
        err.to_string().contains("missing field `hub_engine`"),
        "{err}"
    );

    // An engine name off the ladder parses (it is a string on the wire)
    // and is then rejected by the one validator, naming the legal set.
    let spec = EstimateSpec {
        hub_engine: "turbo".to_owned(),
        ..EstimateSpec::default()
    };
    for message in [
        spec.validate().unwrap_err(),
        spec.session_config().unwrap_err(),
    ] {
        assert!(message.contains("auto|interp|jit"), "{message}");
    }
}

#[test]
fn every_response_variant_round_trips() {
    let responses = [
        Response::Hello {
            server: "strober-serve/0.1.0".to_owned(),
            protocol: 1,
            workers: 2,
        },
        Response::Submitted { job: 42 },
        Response::Jobs {
            jobs: vec![sample_summary()],
        },
        Response::Status {
            job: sample_summary(),
        },
        Response::Cancelled {
            job: 42,
            state: JobState::Cancelled,
        },
        Response::Metrics {
            metrics: strober_probe::snapshot(),
        },
        Response::ShuttingDown { drain: false },
        Response::Pong,
        Response::Error {
            error: WireError::new(ErrorKind::BadSpec, "unknown core `rocket`"),
        },
    ];
    for resp in &responses {
        round_trip(resp);
        round_trip(&ServerMsg::Response(resp.clone()));
    }
}

#[test]
fn every_event_and_result_variant_round_trips() {
    let events = [
        Event::Started {
            job: 1,
            queue_wait_ms: 0.5,
        },
        Event::Stage {
            job: 1,
            stage: "prepare".to_owned(),
            millis: 21.5,
        },
        Event::Progress {
            job: 1,
            phase: "replay".to_owned(),
            done: 3,
            total: 8,
        },
        Event::Log {
            job: 1,
            message: "divergence at seed 9".to_owned(),
        },
        Event::Done {
            job: 1,
            result: JobResult::Estimate(sample_estimate_outcome()),
        },
        Event::Done {
            job: 2,
            result: JobResult::Replay(ReplayOutcome {
                samples: 8,
                mean_power_mw: 11.5,
                outputs_checked: 4096,
                snapshot_fingerprint: "0123abcd".to_owned(),
                provenance: "store".to_owned(),
            }),
        },
        Event::Done {
            job: 3,
            result: JobResult::Fuzz(FuzzJobOutcome {
                designs: 50,
                diverged: true,
                failure_seed: Some(13),
                cancelled: false,
            }),
        },
        Event::Failed {
            job: 1,
            error: WireError::new(ErrorKind::Internal, "workload did not halt"),
        },
        Event::Cancelled { job: 1 },
    ];
    for ev in &events {
        assert!(ev.job() >= 1);
        round_trip(ev);
        round_trip(&ServerMsg::Event(ev.clone()));
    }
}

#[test]
fn truncating_a_frame_at_every_point_is_a_typed_error() {
    let mut buf = Vec::new();
    write_frame(
        &mut buf,
        &Request::Submit {
            spec: JobSpec::Estimate(EstimateSpec::default()),
            priority: Priority::Normal,
            follow: true,
        },
    )
    .unwrap();
    assert!(buf.len() > 4);
    for cut in 0..buf.len() {
        let mut r = std::io::Cursor::new(&buf[..cut]);
        let got = read_frame::<Request>(&mut r);
        if cut == 0 {
            assert_eq!(got, Err(FrameError::Closed), "empty stream is a clean EOF");
        } else {
            assert!(
                matches!(got, Err(FrameError::Truncated { .. })),
                "cut at {cut}: {got:?}"
            );
        }
    }
    // The untouched frame still parses.
    let mut r = std::io::Cursor::new(&buf);
    assert!(read_frame::<Request>(&mut r).is_ok());
}

#[test]
fn oversized_headers_and_garbage_payloads_are_survivable() {
    // A header over the cap is rejected before any allocation.
    let mut buf = ((MAX_FRAME_LEN as u32) + 1).to_be_bytes().to_vec();
    buf.extend_from_slice(b"x");
    let mut r = std::io::Cursor::new(buf);
    assert!(matches!(
        read_frame::<Request>(&mut r),
        Err(FrameError::Oversized { .. })
    ));

    // A well-framed garbage payload is Malformed, and because the frame
    // was fully consumed the *next* frame on the stream still parses.
    let mut buf = Vec::new();
    let garbage: &[u8] = b"\x00\xffnot json at all";
    buf.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
    buf.extend_from_slice(garbage);
    write_frame(&mut buf, &Request::Ping).unwrap();
    let mut r = std::io::Cursor::new(buf);
    assert!(matches!(
        read_frame::<Request>(&mut r),
        Err(FrameError::Malformed(_))
    ));
    assert_eq!(read_frame::<Request>(&mut r).unwrap(), Request::Ping);
}

#[test]
fn malformed_frame_gets_a_typed_error_without_killing_the_connection() {
    let server = Server::bind(ServerConfig {
        workers: 1,
        store_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let mut conn = std::net::TcpStream::connect(addr).unwrap();

    // A framed payload that is not valid JSON for `Request`.
    let garbage: &[u8] = b"{\"Bogus\":true}";
    let mut frame = (garbage.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(garbage);
    std::io::Write::write_all(&mut conn, &frame).unwrap();

    let msg: ServerMsg = read_frame(&mut conn).unwrap();
    let ServerMsg::Response(Response::Error { error }) = msg else {
        panic!("expected a protocol error, got {msg:?}");
    };
    assert_eq!(error.kind, ErrorKind::Protocol);

    // Same connection, next frame: still alive and well.
    write_frame(&mut conn, &Request::Ping).unwrap();
    let msg: ServerMsg = read_frame(&mut conn).unwrap();
    assert_eq!(msg, ServerMsg::Response(Response::Pong));

    handle.shutdown(false);
    join.join().unwrap().unwrap();
}
