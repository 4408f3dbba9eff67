//! The `serve --listen` subprocess and a framed-protocol client for it.
//!
//! The server is the repository's real `serve` binary, started on an
//! ephemeral loopback port and killed and reaped when its guard drops,
//! on every exit path. The client sends each frame with one write on a
//! `TCP_NODELAY` socket, so what it measures is the server's latency,
//! not the client's own Nagle delay.

use st_core::SignedBill;
use st_serve::{read_frame, Request, Response};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `serve --listen` process; dropping it kills and reaps it.
pub struct Server {
    child: Child,
    /// The loopback port it listens on.
    pub port: u16,
}

impl Server {
    /// Start `bin` serving the tenants of `script` on a free loopback
    /// port, and wait until it accepts connections.
    pub fn spawn(bin: &Path, script: &Path) -> Result<Server, String> {
        let mut last = String::new();
        // The port is free when chosen but could be taken before the
        // server binds it; a server that exits early is retried.
        for _ in 0..5 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("choosing a port: {e}"))?
                .port();
            let child = Command::new(bin)
                .arg("--script")
                .arg(script)
                .args(["--listen", &format!("127.0.0.1:{port}")])
                .args(["--seed", "0", "--read-timeout", "0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("starting {}: {e}", bin.display()))?;
            let mut server = Server { child, port };
            match server.wait_ready() {
                Ok(()) => return Ok(server),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("serve exited during startup: {status}"));
            }
            if TcpStream::connect(("127.0.0.1", self.port)).is_ok() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("serve did not accept connections within 20 s".into())
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the process whose status file is `path`, in MiB.
pub fn peak_rss_mb(path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl Conn {
    /// Connect to the server on `port` with Nagle off.
    pub fn connect(port: u16) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        Ok(Conn {
            stream,
            frame: Vec::new(),
        })
    }

    /// Send one request as a single write and read its response.
    pub fn call(&mut self, request: Request) -> Result<Response, String> {
        let body = request.encode().map_err(|e| format!("encode: {e}"))?;
        let len = u32::try_from(body.len()).map_err(|_| "frame over 4 GiB".to_string())?;
        self.frame.clear();
        self.frame.extend_from_slice(&len.to_le_bytes());
        self.frame.extend_from_slice(&body);
        self.stream
            .write_all(&self.frame)
            .map_err(|e| format!("send: {e}"))?;
        let reply = read_frame(&mut self.stream)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        Response::decode(&reply)
    }
}

/// Which protocol request a timed call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Open`.
    Open,
    /// `Feed`.
    Feed,
    /// `Finish`.
    Finish,
    /// A `Step` answered `Yielded`.
    Step,
    /// The `Step` answered `Done`.
    Done,
}

/// One session's shape: Open → Feed* → Finish → Step* → Done.
pub struct SessionPlan<'a> {
    /// Session id, unique per connection.
    pub id: u64,
    /// `st-serve` decider id.
    pub decider: &'static str,
    /// Declared values per list.
    pub m: u64,
    /// Declared bits per value.
    pub n: u64,
    /// The word to feed.
    pub word: &'a [u8],
    /// Bytes per `Feed`.
    pub chunk: usize,
    /// Head operations per `Step`.
    pub budget: u64,
}

/// What a completed session returned.
pub struct SessionOutcome {
    /// The verdict carried by `Done`.
    pub accepted: bool,
    /// The signed bill carried by `Done`.
    pub bill: SignedBill,
    /// Every call with its latency in ms, in order.
    pub calls: Vec<(Call, f64)>,
}

/// The tenant every benchmark session bills, with an unlimited budget.
pub const TENANT: &str = "bench";

/// Drive one session through `send`, which performs a request and
/// returns the response with its latency in ms. Any reply other than
/// the expected one (a refused Open, a throttled Feed, a typed Error)
/// fails the session.
pub fn run_session(
    plan: &SessionPlan<'_>,
    mut send: impl FnMut(Request) -> Result<(Response, f64), String>,
) -> Result<SessionOutcome, String> {
    let id = plan.id;
    let mut calls = Vec::new();
    let mut expect_ack = |request: Request, call: Call, calls: &mut Vec<(Call, f64)>| {
        let (response, ms) = send(request)?;
        calls.push((call, ms));
        match response {
            Response::OpenOk { .. } if call == Call::Open => Ok(()),
            Response::Ack { .. } if call != Call::Open => Ok(()),
            other => Err(format!("session {id}: {call:?} answered {other:?}")),
        }
    };
    expect_ack(
        Request::Open {
            session: id,
            tenant: TENANT.into(),
            decider: plan.decider.into(),
            m: plan.m,
            n: plan.n,
        },
        Call::Open,
        &mut calls,
    )?;
    for chunk in plan.word.chunks(plan.chunk) {
        expect_ack(
            Request::Feed {
                session: id,
                bytes: chunk.to_vec(),
            },
            Call::Feed,
            &mut calls,
        )?;
    }
    expect_ack(Request::Finish { session: id }, Call::Finish, &mut calls)?;
    loop {
        let (response, ms) = send(Request::Step {
            session: id,
            budget: plan.budget,
        })?;
        match response {
            Response::Yielded { .. } => calls.push((Call::Step, ms)),
            Response::Done { accepted, bill, .. } => {
                calls.push((Call::Done, ms));
                return Ok(SessionOutcome {
                    accepted,
                    bill,
                    calls,
                });
            }
            other => return Err(format!("session {id}: Step answered {other:?}")),
        }
    }
}
