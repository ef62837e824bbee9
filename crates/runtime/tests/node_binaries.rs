//! Process-level tests of the node binaries: the real executable, its
//! real stdin and exit status, and real datagrams on a loopback socket.

use std::io::Write;
use std::net::UdpSocket;
use std::process::{Command, Stdio};
use std::time::Duration;

use rcm_transport::wire::{self, Message};

/// Runs `rcm-dm --period-us 0` against a socket this test
/// owns, feeding it `stdin`; returns whether it exited successfully,
/// the seqnos of the updates that arrived (in arrival order) and the
/// number of `Fin` markers.
fn run_dm(stdin: &str) -> (bool, Vec<u64>, usize) {
    let ce = UdpSocket::bind("127.0.0.1:0").expect("bind the stand-in CE socket");
    ce.set_read_timeout(Some(Duration::from_millis(100))).expect("set read timeout");
    let addr = ce.local_addr().expect("local addr").to_string();

    let mut dm = Command::new(env!("CARGO_BIN_EXE_rcm-dm"))
        .args(["--ce", &addr, "--period-us", "0"])
        .stdin(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rcm-dm");
    dm.stdin.take().expect("piped stdin").write_all(stdin.as_bytes()).expect("feed stdin");
    let status = dm.wait().expect("rcm-dm exits");

    // Everything the node sent is already queued on the loopback
    // socket; read until it runs dry.
    let (mut seqnos, mut fins) = (Vec::new(), 0);
    let mut buf = [0u8; 2048];
    while let Ok(n) = ce.recv(&mut buf) {
        match wire::decode_datagram(&buf[..n]).expect("rcm-dm sends well-formed frames") {
            Message::Update(u) => seqnos.push(u64::from(u.seqno)),
            Message::UpdateBatch(us) => seqnos.extend(us.iter().map(|u| u64::from(u.seqno))),
            Message::Fin { .. } => fins += 1,
            other => panic!("unexpected message on a front link: {other:?}"),
        }
    }
    (status.success(), seqnos, fins)
}

/// A bad line ends the stream but not the link contract: the readings
/// accepted before it — the round it interrupted — reach the CE, a
/// `Fin` follows so the CE need not wait out its idle backstop, nothing
/// after the bad line is sent, and the exit status reports the failure.
/// Non-finite readings are bad lines too. The first case is the same
/// stream without a bad line; the last has more readings than one
/// datagram holds.
#[test]
fn dm_flushes_and_finishes_even_when_a_bad_line_fails_it() {
    let many: String = (1..=300).map(|i| format!("{i}\n")).collect();
    let all: Vec<u64> = (1..=300).collect();
    let cases: [(&str, bool, &[u64]); 6] = [
        ("1\n2\n# comment\n\n3\n", true, &[1, 2, 3]),
        ("1\n2\nbad\n3\n", false, &[1, 2]),
        ("1\n2\nNaN\n3\n", false, &[1, 2]),
        ("1\n2\ninf\n3\n", false, &[1, 2]),
        ("1\n2\n-inf\n3\n", false, &[1, 2]),
        (&many, true, &all),
    ];
    for (stdin, want_ok, want_seqnos) in cases {
        let (ok, seqnos, fins) = run_dm(stdin);
        assert_eq!(ok, want_ok, "exit status for {stdin:?}");
        assert_eq!(seqnos, want_seqnos, "updates sent for {stdin:?}");
        assert!(fins >= 1, "no Fin for {stdin:?}");
    }
}

/// A round ends when the input read so far runs out: a reading goes out
/// while stdin is still open, not once 64 have gathered or the stream
/// ends.
#[test]
fn dm_sends_a_reading_before_more_input_arrives() {
    let ce = UdpSocket::bind("127.0.0.1:0").expect("bind the stand-in CE socket");
    ce.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    let addr = ce.local_addr().expect("local addr").to_string();

    let mut dm = Command::new(env!("CARGO_BIN_EXE_rcm-dm"))
        .args(["--ce", &addr, "--period-us", "0"])
        .stdin(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rcm-dm");
    let mut stdin = dm.stdin.take().expect("piped stdin");
    stdin.write_all(b"1\n").expect("feed stdin");
    stdin.flush().expect("flush stdin");
    let mut buf = [0u8; 2048];
    let n = ce.recv(&mut buf).expect("the reading arrives while stdin is open");
    let first = wire::decode_datagram(&buf[..n]).expect("rcm-dm sends well-formed frames");
    drop(stdin);
    assert!(dm.wait().expect("rcm-dm exits").success());
    match first {
        Message::Update(u) => assert_eq!(u64::from(u.seqno), 1),
        other => panic!("expected the first reading, got {other:?}"),
    }
}
