//! The `neatd` process and the load generator that drives it over one
//! framed-TCP connection.

use crate::inputs::Batch;
use crate::replay::{STATUS_EVERY, TENANT};
use crate::util::ms;
use neat_svc::frame::{frame, FrameReader, Poll, DEFAULT_MAX_FRAME};
use neat_svc::{Reply, Request, StatusReport};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long any single reply may take before it counts as timed out
/// (and, for a push, as failed).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `neatd --listen`, stopped (and waited for) on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub state_root: PathBuf,
}

impl Daemon {
    /// Starts `neatd` on an ephemeral port with fresh directories under
    /// `dir` and waits until it listens.
    pub fn start(neatd: &Path, dir: &Path, network: &Path, window: f64) -> Result<Self, String> {
        let sub = |name: &str| -> Result<PathBuf, String> {
            let p = dir.join(name);
            std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
            Ok(p)
        };
        let (spool, state, quarantine) = (sub("spool")?, sub("state")?, sub("quarantine")?);
        let log_path = dir.join("neatd.log");
        let log = std::fs::File::create(&log_path).map_err(|e| format!("create log: {e}"))?;
        let mut cmd = Command::new(neatd);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--network")
            .arg(network)
            .arg("--spool")
            .arg(&spool)
            .arg("--state")
            .arg(&state)
            .arg("--quarantine")
            .arg(&quarantine)
            .arg("--window")
            .arg(format!("{window}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        kill_with_parent(&mut cmd);
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", neatd.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            state_root: state,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            // The daemon's stderr is unbuffered, so the line may be read
            // half written: take the address only once its newline is in.
            if let Some(rest) = text.split("neatd: listening on ").nth(1) {
                if let Some((addr, _)) = rest.split_once('\n') {
                    let addr = addr.trim();
                    addr.parse::<std::net::SocketAddr>()
                        .map_err(|e| format!("neatd announced a bad address `{addr}`: {e}"))?;
                    daemon.addr = addr.to_string();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("neatd exited at startup ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("neatd did not start listening within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to drain over `conn` and waits for it to exit;
    /// `Ok` only for an acknowledged drain and a clean exit.
    pub fn stop(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.request(&Request::Drain)?;
        if !matches!(reply, Reply::Ack { .. }) {
            return Err(format!("drain answered {reply:?}"));
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("neatd exited with {status}")),
                Ok(None) if Instant::now() > deadline => {
                    return Err("neatd did not exit after draining".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for neatd: {e}")),
            }
        }
    }
}

/// Has the kernel kill the child if this process dies first, so even a
/// benchmark killed mid-run leaves no daemon behind.
#[cfg(target_os = "linux")]
fn kill_with_parent(cmd: &mut Command) {
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;
    // SAFETY: the hook runs in the child between fork and exec, where
    // only async-signal-safe calls are allowed; it makes one system call
    // through its C wrapper and allocates nothing.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn kill_with_parent(_cmd: &mut Command) {}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection: requests may be pipelined; replies come back
/// in request order.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_millis(200))))
            .map_err(|e| format!("configure socket: {e}"))?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
        })
    }

    fn send(&mut self, wire: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(wire)
            .map_err(|e| format!("send failed: {e}"))
    }

    /// The next reply, waiting at most until `deadline`.
    fn recv(&mut self, deadline: Instant) -> Result<Reply, String> {
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(Poll::Frame(body)) => {
                    return Reply::decode_body(&body).map_err(|e| format!("bad reply: {e}"))
                }
                Ok(Poll::Pending | Poll::TimedOut) => {
                    if Instant::now() > deadline {
                        return Err("reply timed out".to_string());
                    }
                }
                Ok(Poll::Eof { .. }) => return Err("connection closed".to_string()),
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }

    /// One request, waiting for its reply.
    pub fn request(&mut self, req: &Request) -> Result<Reply, String> {
        self.send(&frame(&req.encode_body()))?;
        self.recv(Instant::now() + REPLY_TIMEOUT)
    }

    pub fn status(&mut self) -> Result<StatusReport, String> {
        match self.request(&Request::Status {
            tenant: TENANT.to_string(),
        })? {
            Reply::Report(r) => Ok(*r),
            other => Err(format!("status answered {other:?}")),
        }
    }
}

fn push_wire(b: &Batch) -> Vec<u8> {
    frame(
        &Request::Push {
            tenant: TENANT.to_string(),
            batch_id: b.id.clone(),
            payload: b.payload.clone(),
        }
        .encode_body(),
    )
}

/// What a load phase observed.
#[derive(Default)]
pub struct Load {
    /// Per push: milliseconds from falling due (open loop) or from being
    /// sent (closed loop) to its reply. A push that failed counts as
    /// [`REPLY_TIMEOUT`]: it missed any latency limit.
    pub ack_ms: Vec<f64>,
    /// Per push: how late the generator sent it, in milliseconds.
    pub late_ms: Vec<f64>,
    /// Most pushes outstanding at once.
    pub backlog_max: usize,
    /// Requests attempted (pushes and Status).
    pub attempted: usize,
    /// Requests that did not succeed.
    pub failed: usize,
    pub failures: Vec<String>,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

impl Load {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Adds a later block of the same phase to this one.
    pub fn absorb(&mut self, block: Load) {
        self.ack_ms.extend(block.ack_ms);
        self.late_ms.extend(block.late_ms);
        self.backlog_max = self.backlog_max.max(block.backlog_max);
        self.attempted += block.attempted;
        self.failed += block.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(block.failures.into_iter().take(room));
        self.elapsed += block.elapsed;
    }
}

/// Closed loop: one outstanding push at a time, back to back. The next
/// frame is built while the daemon works on the current push.
pub fn closed_loop(conn: &mut Conn, batches: &[Batch]) -> Load {
    let mut load = Load::default();
    let start = Instant::now();
    let mut wire = batches.first().map(push_wire);
    for (i, b) in batches.iter().enumerate() {
        let Some(w) = wire.take() else { break };
        load.attempted += 1;
        let sent = Instant::now();
        if let Err(e) = conn.send(&w) {
            load.fail(format!("push {}: {e}", b.id));
            load.failed += batches.len() - i - 1;
            load.attempted += batches.len() - i - 1;
            break;
        }
        wire = batches.get(i + 1).map(push_wire);
        match conn.recv(sent + REPLY_TIMEOUT) {
            Ok(Reply::Ack { .. }) => load.ack_ms.push(ms(sent.elapsed())),
            Ok(other) => {
                load.ack_ms.push(ms(REPLY_TIMEOUT));
                load.fail(format!("push {} answered {other:?}", b.id));
            }
            Err(e) => {
                load.fail(format!("push {}: {e}", b.id));
                load.failed += batches.len() - i - 1;
                load.attempted += batches.len() - i - 1;
                break;
            }
        }
    }
    load.elapsed = start.elapsed();
    load.backlog_max = usize::from(!batches.is_empty());
    load
}

enum Sent {
    Push { id: String, due: Instant },
    Status,
}

/// Open loop at `rate` pushes per second on one connection: a sender
/// thread writes each push when it falls due, whatever the replies, and
/// a Status request after every [`STATUS_EVERY`] pushes (counting the
/// `pushed_before` open-loop pushes of earlier blocks); a receiver
/// thread matches the in-order replies. Latency counts from when each
/// push was due.
pub fn open_loop(conn: &mut Conn, batches: &[Batch], rate: f64, pushed_before: usize) -> Load {
    let mut load = Load::default();
    let mut writer = match conn.stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            load.attempted = batches.len();
            load.failed = batches.len();
            load.failures.push(format!("clone socket: {e}"));
            return load;
        }
    };
    let status_wire = frame(
        &Request::Status {
            tenant: TENANT.to_string(),
        }
        .encode_body(),
    );
    let answered = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let t0 = start + Duration::from_millis(20);
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut send_load = Load::default();
    let recv_load = std::thread::scope(|s| {
        let answered = &answered;
        let receiver = s.spawn(move || {
            let mut r = Load::default();
            let mut broken = false;
            for sent in rx {
                let (id, due) = match &sent {
                    Sent::Push { id, due } => (Some(id.as_str()), *due),
                    Sent::Status => (None, Instant::now()),
                };
                if broken {
                    r.fail(format!("{id:?}: not answered"));
                    continue;
                }
                let reply = conn.recv(Instant::now().max(due) + REPLY_TIMEOUT);
                match (id, reply) {
                    (Some(_), Ok(Reply::Ack { .. })) => r.ack_ms.push(ms(due.elapsed())),
                    (None, Ok(Reply::Report(rep))) if rep.status == "running" => {}
                    (id, Ok(other)) => {
                        if id.is_some() {
                            r.ack_ms.push(ms(REPLY_TIMEOUT));
                        }
                        r.fail(format!("{id:?} answered {other:?}"));
                    }
                    (id, Err(e)) => {
                        r.fail(format!("{id:?}: {e}"));
                        broken = true;
                    }
                }
                if id.is_some() {
                    answered.fetch_add(1, Ordering::SeqCst);
                }
            }
            r
        });

        let mut wire = batches.first().map(push_wire);
        for (i, b) in batches.iter().enumerate() {
            let Some(w) = wire.take() else { break };
            let due = t0 + period * u32::try_from(i).unwrap_or(u32::MAX);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            send_load
                .late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            let outstanding = i + 1 - answered.load(Ordering::SeqCst);
            send_load.backlog_max = send_load.backlog_max.max(outstanding);
            send_load.attempted += 1;
            if tx
                .send(Sent::Push {
                    id: b.id.clone(),
                    due,
                })
                .is_err()
            {
                break;
            }
            if let Err(e) = writer.write_all(&w) {
                send_load.fail(format!("push {}: {e}", b.id));
                break;
            }
            if (pushed_before + i + 1).is_multiple_of(STATUS_EVERY) {
                send_load.attempted += 1;
                if tx.send(Sent::Status).is_err() || writer.write_all(&status_wire).is_err() {
                    break;
                }
            }
            wire = batches.get(i + 1).map(push_wire);
        }
        drop(tx);
        receiver.join().unwrap_or_else(|_| {
            let mut lost = Load::default();
            lost.fail("reply reader panicked; every push counts as failed".to_string());
            lost.failed = batches.len();
            lost
        })
    });
    load.elapsed = start.elapsed();
    load.ack_ms = recv_load.ack_ms;
    load.late_ms = send_load.late_ms;
    load.backlog_max = send_load.backlog_max;
    load.attempted = send_load.attempted;
    // Pushes never sent count as failed too.
    let unsent = batches.len().saturating_sub(load.late_ms.len());
    load.attempted += unsent;
    load.failed = send_load.failed + recv_load.failed + unsent;
    load.failures = send_load.failures;
    load.failures.extend(recv_load.failures);
    load
}
