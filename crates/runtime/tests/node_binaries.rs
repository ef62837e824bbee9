//! Process-level tests of the node binaries: the real executable, its
//! real stdin and exit status, and real datagrams on a loopback socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::process::{Command, Stdio};
use std::time::Duration;

use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
use rcm_transport::wire::{self, FrameBuf, Message};

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

/// `rcm-ce` end to end, with the test playing both of its peers: the DM
/// over UDP (three rounds, one datagram each; a stale datagram, which
/// the ingress gate drops; then the Fin, repeated until echoed) and, on
/// a `TcpListener`, the AD. The back link must carry exactly the Hello,
/// the three alerts in order with their ids, and the Fin; the node must
/// name its address and receive buffer on its start line, exit 0 and
/// count what it did on its exit line.
#[test]
fn ce_evaluates_each_round_and_ends_its_back_link_with_a_fin() {
    // A port nothing listens on: bind, read it, drop the socket.
    let ce_addr = UdpSocket::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
    let ad = TcpListener::bind("127.0.0.1:0").expect("bind the stand-in AD");
    let ad_addr = ad.local_addr().expect("AD addr");

    let ce = Command::new(env!("CARGO_BIN_EXE_rcm-ce"))
        .args(["--bind", &ce_addr.to_string(), "--ad", &ad_addr.to_string()])
        .args(["--node", "3", "--condition", "x[0].value > 50", "--idle-ms", "20000"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcm-ce");
    // The node binds its UDP socket before it connects its back link, so
    // once the connection is in, datagrams sent to it queue.
    let (mut back, _) = ad.accept().expect("rcm-ce connects its back link");
    back.set_read_timeout(Some(Duration::from_secs(20))).expect("set read timeout");

    let x = |seqno: u64, value: f64| Update::new(VarId::new(0), seqno, value);
    let dm = UdpSocket::bind("127.0.0.1:0").expect("bind the DM socket");
    dm.set_read_timeout(Some(Duration::from_millis(200))).expect("set read timeout");
    let script = [
        Message::UpdateBatch(vec![x(1, 40.0), x(2, 60.0)]),
        Message::Update(x(3, 70.0)),
        Message::UpdateBatch(vec![x(4, 45.0), x(5, 80.0)]),
        Message::Update(x(3, 99.0)), // stale: would alert if admitted
    ];
    for msg in &script {
        dm.send_to(&wire::encode(msg).expect("encodes"), ce_addr).expect("send_to");
    }
    let fin = wire::encode(&Message::Fin { node: 0 }).expect("encodes");
    let mut echo = [0u8; 64];
    let echoed = (0..50).any(|_| {
        dm.send_to(&fin, ce_addr).expect("send_to");
        dm.recv(&mut echo).is_ok_and(|n| echo[..n] == fin[..])
    });
    assert!(echoed, "rcm-ce never echoed the Fin");

    let mut bytes = Vec::new();
    back.read_to_end(&mut bytes).expect("the back link closes after its Fin");
    let mut frames = FrameBuf::new();
    frames.push(&bytes);
    let heard: Vec<Message> =
        std::iter::from_fn(|| wire::decode(&mut frames).expect("well-formed frames")).collect();

    let alert = |index: u64, seqno: u64, value: f64| {
        Message::Alert(Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(seqno)]),
            vec![x(seqno, value)],
            AlertId { ce: CeId::new(3), index },
        ))
    };
    let want = vec![
        Message::Hello { node: 3 },
        alert(0, 2, 60.0),
        alert(1, 3, 70.0),
        alert(2, 5, 80.0),
        Message::Fin { node: 3 },
    ];
    assert_eq!(heard, want);

    let out = ce.wait_with_output().expect("rcm-ce exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit status {:?}; stderr: {stderr}", out.status);
    let start = stderr.lines().next().unwrap_or_default();
    let granted = start
        .strip_prefix(&format!("listening on {ce_addr}; receive buffer "))
        .and_then(|rest| rest.strip_suffix(" B"))
        .and_then(|bytes| bytes.parse::<u64>().ok());
    assert!(granted.is_some_and(|b| b > 0), "start line: {start:?}");
    let done = stderr.lines().last().unwrap_or_default();
    assert_eq!(
        done, "done: 5 update(s) evaluated (1 stale dropped, 0 decode error(s)); 3 alert(s) sent",
        "stderr: {stderr}"
    );
}

/// `rcm-ad` end to end, with the test playing both CE replicas over
/// TCP: each connects, sends its Hello, its alert frames and its Fin.
/// CE 1 repeats one of CE 0's alerts (the same fingerprint, under its
/// own id), which AD-1 must suppress. The node binds an ephemeral port
/// and names it on stderr's first line; it prints each displayed alert
/// once, as it reads it, counts what it heard on its exit line and
/// exits 0 once both Fins are in.
#[test]
fn ad_displays_each_alert_once_and_suppresses_a_replicas_duplicate() {
    let mut ad = Command::new(env!("CARGO_BIN_EXE_rcm-ad"))
        .args(["--bind", "127.0.0.1:0", "--replicas", "2", "--filter", "ad1"])
        .args(["--idle-ms", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcm-ad");
    let mut stderr = BufReader::new(ad.stderr.take().expect("piped stderr"));
    let mut first = String::new();
    stderr.read_line(&mut first).expect("rcm-ad reports its address");
    let addr: SocketAddr = first
        .trim_end()
        .strip_prefix("listening on ")
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("first stderr line names the bound address: {first:?}"));
    assert_ne!(addr.port(), 0, "the bound port, not the requested one");
    let mut shown = BufReader::new(ad.stdout.take().expect("piped stdout")).lines();
    let mut next_shown = || shown.next().map(|line| line.expect("utf-8 line"));

    let alert = |ce: u32, index: u64, seqno: u64, value: f64| {
        Message::Alert(Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(seqno)]),
            vec![Update::new(VarId::new(0), seqno, value)],
            AlertId { ce: CeId::new(ce), index },
        ))
    };
    let replica = |node: u32, alerts: Vec<Message>| {
        let mut bytes = wire::encode(&Message::Hello { node }).expect("encodes");
        for msg in alerts.iter().chain([&Message::Fin { node }]) {
            bytes.extend(wire::encode(msg).expect("encodes"));
        }
        let mut stream = TcpStream::connect(addr).expect("connect to rcm-ad");
        stream.write_all(&bytes).expect("write the replica's stream");
    };

    // CE 0's two alerts are displayed before CE 1 connects, so the
    // display order is fixed.
    replica(0, vec![alert(0, 0, 2, 60.0), alert(0, 1, 3, 70.0)]);
    let mut lines: Vec<String> = (0..2).map_while(|_| next_shown()).collect();
    replica(1, vec![alert(1, 0, 3, 70.0), alert(1, 1, 5, 80.0)]);
    lines.extend(std::iter::from_fn(next_shown));
    assert_eq!(
        lines,
        [
            "ALERT a(c0, {v0:[2]}) values [60.0] [from CE0]",
            "ALERT a(c0, {v0:[3]}) values [70.0] [from CE0]",
            "ALERT a(c0, {v0:[5]}) values [80.0] [from CE1]",
        ]
    );

    let status = ad.wait().expect("rcm-ad exits");
    let rest: Vec<String> = stderr.lines().map(|line| line.expect("utf-8 line")).collect();
    assert!(status.success(), "exit status {status:?}; stderr: {rest:?}");
    assert_eq!(
        rest,
        ["done: 3 alert(s) displayed of 4 arriving over 2 connection(s); 0 decode error(s)"]
    );
}

/// Reads a node's first stderr line, `listening on HOST:PORT` plus
/// anything after a `;`, and returns the bound address.
fn bound_address(node: &mut std::process::Child) -> SocketAddr {
    let stderr = node.stderr.as_mut().expect("piped stderr");
    let mut first = Vec::new();
    let mut byte = [0u8; 1];
    // Byte by byte, so nothing past the first line is taken from the pipe.
    while stderr.read(&mut byte).expect("read stderr") == 1 && byte[0] != b'\n' {
        first.push(byte[0]);
    }
    let first = String::from_utf8_lossy(&first);
    first
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split(';').next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("first stderr line names the bound address: {first:?}"))
}

/// Displayed lines without their ` [from CEn]` suffix: which replica's
/// copy of an alert arrives first is timing.
fn without_origin(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|line| line.rsplit_once(" [from CE").map_or(line, |(shown, _)| shown).to_owned())
        .collect()
}

/// Every node's idle backstop in the triangle. A CE that ends on its
/// DMs' Fins ends well inside it.
const IDLE: Duration = Duration::from_secs(20);

/// Runs the deployed triangle: `rcm-ad`, `replicas` × `rcm-ce` hosting
/// `conditions` and one `rcm-dm` per variable, each its own process on
/// loopback sockets. `readings[v]` is variable `v`'s DM's stdin (`--var
/// v`); the DMs run one after another. No node is told how many DMs,
/// variables or conditions there are: the CEs expect one Fin per
/// variable of their conditions, and the AD learns each condition's
/// variables from its alerts. Returns what the AD printed and its exit
/// status. When the AD succeeded, every CE must have exited 0 on its
/// DMs' Fins, well before its idle backstop; otherwise the CEs, whose
/// AD is gone, are killed.
fn deployed_triangle(
    filter: &str,
    replicas: usize,
    workers: usize,
    conditions: &[&str],
    readings: &[&str],
) -> std::process::Output {
    let idle_ms = IDLE.as_millis().to_string();
    let mut ad = Command::new(env!("CARGO_BIN_EXE_rcm-ad"))
        .args(["--bind", "127.0.0.1:0", "--replicas", &replicas.to_string()])
        .args(["--filter", filter, "--idle-ms", &idle_ms])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcm-ad");
    let ad_addr = bound_address(&mut ad).to_string();
    let mut ces: Vec<_> = (0..replicas)
        .map(|i| {
            let mut ce = Command::new(env!("CARGO_BIN_EXE_rcm-ce"));
            ce.args(["--bind", "127.0.0.1:0", "--ad", &ad_addr, "--node", &i.to_string()]);
            for condition in conditions {
                ce.args(["--condition", condition]);
            }
            let ce = ce
                .args(["--workers", &workers.to_string(), "--idle-ms", &idle_ms])
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn rcm-ce");
            (std::time::Instant::now(), ce)
        })
        .collect();
    let ce_addrs: Vec<String> =
        ces.iter_mut().map(|(_, ce)| bound_address(ce).to_string()).collect();
    for (var, stdin) in readings.iter().enumerate() {
        let mut dm = Command::new(env!("CARGO_BIN_EXE_rcm-dm"));
        dm.args(["--var", &var.to_string(), "--period-us", "0"]);
        for addr in &ce_addrs {
            dm.args(["--ce", addr]);
        }
        let mut dm = dm.stdin(Stdio::piped()).stderr(Stdio::null()).spawn().expect("spawn rcm-dm");
        dm.stdin.take().expect("piped stdin").write_all(stdin.as_bytes()).expect("feed stdin");
        assert!(dm.wait().expect("rcm-dm exits").success());
    }
    let deployed = ad.wait_with_output().expect("rcm-ad exits");
    for (started, mut ce) in ces {
        if !deployed.status.success() {
            ce.kill().expect("kill rcm-ce");
        }
        let out = ce.wait_with_output().expect("rcm-ce exits");
        let (took, stderr) = (started.elapsed(), String::from_utf8_lossy(&out.stderr));
        if deployed.status.success() {
            assert!(out.status.success(), "rcm-ce: {:?}; stderr: {stderr}", out.status);
            assert!(took < IDLE / 2, "rcm-ce took {took:?}, so it did not end on its Fins");
        }
    }
    deployed
}

/// Runs `rcm-monitor` over `conditions` with `stdin` as its readings.
fn monitor(
    filter: &str,
    replicas: usize,
    conditions: &[&str],
    stdin: &str,
) -> std::process::Output {
    let mut monitor = Command::new(env!("CARGO_BIN_EXE_rcm-monitor"));
    for condition in conditions {
        monitor.args(["--condition", condition]);
    }
    let mut monitor = monitor
        .args(["--replicas", &replicas.to_string(), "--filter", filter])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcm-monitor");
    // A monitor that refuses its conditions exits without reading stdin.
    let _ = monitor.stdin.take().expect("piped stdin").write_all(stdin.as_bytes());
    monitor.wait_with_output().expect("rcm-monitor exits")
}

/// The deployed triangle against `rcm-monitor`, over one variable: it
/// must display what the in-process system displays for the same
/// readings and filter, line for line. Returns the lines displayed.
fn deployed_triangle_matches_the_monitor(
    filter: &str,
    replicas: usize,
    workers: usize,
    conditions: &[&str],
    readings: &str,
) -> Vec<String> {
    let deployed = deployed_triangle(filter, replicas, workers, conditions, &[readings]);
    assert!(deployed.status.success(), "rcm-ad: {:?}", deployed.status);
    let in_process = monitor(filter, replicas, conditions, readings);
    assert!(in_process.status.success(), "rcm-monitor: {:?}", in_process.status);

    let want = without_origin(&in_process.stdout);
    assert!(!want.is_empty(), "{filter}: the readings raise alerts");
    let shown = without_origin(&deployed.stdout);
    assert_eq!(
        shown, want,
        "{filter} over {replicas} replica(s), {workers} worker(s), {conditions:?}"
    );
    shown
}

/// The node binaries deployed as processes display exactly what
/// `rcm-monitor` displays, for every AD filter and one to three
/// replicas, and with sharded evaluation in the CEs. Both print ids, not
/// names, so a variable named `temp` prints as the `v0` it is.
#[test]
fn deployed_nodes_display_what_the_monitor_displays() {
    let readings: String = (0..100).map(|i| format!("{}\n", (i * 37) % 101)).collect();
    for filter in ["ad1", "ad2", "ad3", "ad4", "ad5", "ad6"] {
        for replicas in 1..=3 {
            deployed_triangle_matches_the_monitor(
                filter,
                replicas,
                0,
                &["v0[0].value > 50"],
                &readings,
            );
        }
    }
    deployed_triangle_matches_the_monitor("ad6", 3, 2, &["v0[0].value > 50"], &readings);
    deployed_triangle_matches_the_monitor("ad4", 2, 0, &["temp[0].value > 50"], &readings);
}

/// Two conditions on one CE share its back link, and `rcm-ad` filters
/// each condition's alerts on its own (paper Appendix D). Readings 70,
/// 40 and 80 against `> 50` and `> 60` raise four alerts, two per
/// condition on the same two updates; one filter run across both
/// conditions would take each of the second's for a copy of the
/// first's (AD-2 and AD-5 display 2 of the 4). Every filter, over one
/// to three replicas, displays all four, as the monitor does.
#[test]
fn ad_filters_each_condition_of_a_shared_ce_on_its_own() {
    const CONDITIONS: [&str; 2] = ["v0[0].value > 50", "v0[0].value > 60"];
    let want = [
        "ALERT a(c0, {v0:[1]}) values [70.0]",
        "ALERT a(c0, {v0:[3]}) values [80.0]",
        "ALERT a(c1, {v0:[1]}) values [70.0]",
        "ALERT a(c1, {v0:[3]}) values [80.0]",
    ];
    for filter in ["ad1", "ad2", "ad3", "ad4", "ad5", "ad6"] {
        for replicas in 1..=3 {
            let mut shown = deployed_triangle_matches_the_monitor(
                filter,
                replicas,
                0,
                &CONDITIONS,
                "70\n40\n80\n",
            );
            shown.sort();
            assert_eq!(shown, want, "{filter} over {replicas} replica(s)");
        }
    }
}

/// One condition per variable on one CE, each variable fed by its own
/// DM: the CE waits for both DMs' Fins (which end under their distinct
/// `--var` ids) and ends on them, and every filter, each condition's
/// made over its own variable, displays all four alerts, as the monitor
/// does.
#[test]
fn two_dms_feed_two_conditions_and_each_ce_ends_on_their_fins() {
    const CONDITIONS: [&str; 2] = ["a[0].value > 50", "b[0].value > 50"];
    let want = [
        "ALERT a(c0, {v0:[1]}) values [70.0]",
        "ALERT a(c0, {v0:[3]}) values [80.0]",
        "ALERT a(c1, {v1:[1]}) values [70.0]",
        "ALERT a(c1, {v1:[3]}) values [80.0]",
    ];
    let readings = ["70\n40\n80\n", "70\n40\n80\n"];
    let tagged = "a 70\na 40\na 80\nb 70\nb 40\nb 80\n";
    for filter in ["ad1", "ad2", "ad3", "ad4", "ad5", "ad6"] {
        for replicas in 1..=2 {
            let deployed = deployed_triangle(filter, replicas, 0, &CONDITIONS, &readings);
            assert!(deployed.status.success(), "rcm-ad: {:?}", deployed.status);
            let mut shown = without_origin(&deployed.stdout);
            shown.sort();
            assert_eq!(shown, want, "{filter} over {replicas} replica(s)");
            let in_process = monitor(filter, replicas, &CONDITIONS, tagged);
            assert!(in_process.status.success(), "rcm-monitor: {:?}", in_process.status);
            let mut want_monitor = without_origin(&in_process.stdout);
            want_monitor.sort();
            assert_eq!(shown, want_monitor, "{filter} over {replicas} replica(s)");
        }
    }
}

/// `ad3` runs on one variable only. The monitor refuses a condition over
/// two before it starts; the AD at that condition's first alert, the
/// only way it learns the condition's variables. Both print the same one
/// `error:` line, naming the filter and the condition, and exit
/// nonzero with nothing displayed. An unknown filter is refused alike,
/// by both before they start.
#[test]
fn both_binaries_refuse_ad3_on_two_variables_and_an_unknown_filter_alike() {
    const CONDITIONS: [&str; 1] = ["a[0].value > b[0].value"];
    let ad3 = "error: filter 'ad3' unavailable for this variable count (condition c0 reads 2)";
    let ad7 = "error: unknown filter 'ad7'";
    let unknown = Command::new(env!("CARGO_BIN_EXE_rcm-ad"))
        .args(["--bind", "127.0.0.1:0", "--filter", "ad7"])
        .output()
        .expect("run rcm-ad");
    let runs = [
        ("rcm-ad", ad3, deployed_triangle("ad3", 1, 0, &CONDITIONS, &["70\n", "40\n"])),
        ("rcm-monitor", ad3, monitor("ad3", 1, &CONDITIONS, "a 70\nb 40\n")),
        ("rcm-ad", ad7, unknown),
        ("rcm-monitor", ad7, monitor("ad7", 1, &CONDITIONS, "a 70\nb 40\n")),
    ];
    for (node, want, out) in runs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{node} exited 0; stderr: {stderr}");
        assert_eq!(stderr.lines().collect::<Vec<_>>(), [want], "{node}");
        assert!(
            out.stdout.is_empty(),
            "{node} displayed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// The flags that restated what the nodes now derive are gone: `rcm-ad
/// --var`, `rcm-ce --dms` and `rcm-dm --node` are usage errors.
#[test]
fn deleted_flags_are_usage_errors() {
    let ce = ["--bind", "127.0.0.1:0", "--ad", "127.0.0.1:9", "--condition", "x[0].value > 1"];
    let runs = [
        (env!("CARGO_BIN_EXE_rcm-ad"), vec!["--bind", "127.0.0.1:0", "--var", "0"]),
        (env!("CARGO_BIN_EXE_rcm-ce"), [&ce[..], &["--dms", "2"]].concat()),
        (env!("CARGO_BIN_EXE_rcm-dm"), vec!["--ce", "127.0.0.1:9", "--node", "1"]),
    ];
    for (exe, args) in runs {
        let out = Command::new(exe).args(&args).stdin(Stdio::null()).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{exe} {args:?} exited 0");
        assert!(stderr.starts_with("usage: "), "{exe} {args:?}: {stderr}");
    }
}

/// Reads one displayed line from `node`'s stdout, then closes the read
/// end, as `| head -1` does. The node must print more than a pipe
/// holds, so its later writes fail.
fn hang_up_after_one_line(node: &mut std::process::Child) {
    let stdout = node.stdout.take().expect("piped stdout");
    let mut first = String::new();
    BufReader::new(stdout).read_line(&mut first).expect("read the first line");
    assert!(first.starts_with("ALERT "), "first line: {first:?}");
}

/// A node whose reader hung up finishes its run, prints its `done:`
/// line on stderr and exits 0, without a panic.
fn assert_ended_quietly(node: std::process::Child) {
    let out = node.wait_with_output().expect("the node exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit status {:?}; stderr: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.lines().any(|line| line.starts_with("done: ")), "stderr: {stderr}");
}

/// `rcm-monitor ... | head -1`: 20,000 alerting readings print far more
/// than a pipe holds, so the monitor writes on after its reader left.
#[test]
fn monitor_ends_quietly_when_its_reader_hangs_up() {
    let readings: String = (0..20_000).map(|i| format!("{}\n", 100 + i)).collect();
    let mut monitor = Command::new(env!("CARGO_BIN_EXE_rcm-monitor"))
        .args(["--condition", "v0[0].value > 50", "--replicas", "2", "--filter", "ad4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcm-monitor");
    monitor.stdin.take().expect("piped stdin").write_all(readings.as_bytes()).expect("feed");
    hang_up_after_one_line(&mut monitor);
    assert_ended_quietly(monitor);
}

/// `rcm-ad ... | head -1`, with a stand-in CE sending 5,000 distinct
/// alerts, far more lines than a pipe holds. The CE writes from a
/// thread of its own: the AD stops reading while its stdout is full.
#[test]
fn ad_ends_quietly_when_its_reader_hangs_up() {
    let mut ad = Command::new(env!("CARGO_BIN_EXE_rcm-ad"))
        .args(["--bind", "127.0.0.1:0", "--replicas", "1", "--filter", "ad1"])
        .args(["--idle-ms", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcm-ad");
    let addr = bound_address(&mut ad);
    let ce = std::thread::spawn(move || {
        let mut bytes = wire::encode(&Message::Hello { node: 0 }).expect("encodes");
        for seqno in 1..=5_000 {
            let alert = Alert::new(
                CondId::SINGLE,
                HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(seqno)]),
                vec![Update::new(VarId::new(0), seqno, 60.0)],
                AlertId { ce: CeId::new(0), index: seqno - 1 },
            );
            bytes.extend(wire::encode(&Message::Alert(alert)).expect("encodes"));
        }
        bytes.extend(wire::encode(&Message::Fin { node: 0 }).expect("encodes"));
        TcpStream::connect(addr).expect("connect").write_all(&bytes).expect("write the stream");
    });
    hang_up_after_one_line(&mut ad);
    ce.join().expect("the stand-in CE wrote its stream");
    assert_ended_quietly(ad);
}
