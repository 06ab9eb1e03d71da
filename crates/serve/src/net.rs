//! TCP transport: a localhost accept loop around [`Server`], plus a tiny
//! blocking client.
//!
//! The wire format is one request line → one response line (see
//! [`crate::protocol`]). The listener is nonblocking and polled so the
//! accept thread can notice shutdown promptly; each accepted connection
//! gets its own thread (connections are long-lived and few — this is a
//! research daemon, not a C10K server). `shutdown` drains: in-flight
//! requests finish, the accept loop closes, and [`ServerHandle::join`]
//! returns.
//!
//! Every line — request or response — goes out as one write of the line
//! plus its `\n` on a `TCP_NODELAY` socket, so a warm request costs its
//! compute and a loopback round trip instead of a Nagle / delayed-ACK
//! stall (~40 ms per request on Linux).
//!
//! Request-line buffering is **bounded**: a peer that streams more than
//! [`crate::server::ServeConfig::max_request_bytes`] without a newline
//! gets one typed `bad_request` reply and the rest of that line is
//! discarded — the connection survives, the daemon's memory does not
//! grow with hostile input. The client side offers
//! [`request_with_retry`]: deterministic jittered exponential backoff
//! honoring the server's `retry`/`retry_after_ms` backpressure hints.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpuflow_chaos::rng::{mix, mix_f64};
use gpuflow_minijson::Value;

use crate::protocol::error_response;
use crate::server::{ServeConfig, Server};

/// A running daemon: the bound address, the shared server state, and the
/// accept thread.
pub struct ServerHandle {
    /// The actual bound address (`127.0.0.1:<ephemeral>` by default).
    pub addr: SocketAddr,
    /// The shared serving core (for in-process inspection in tests).
    pub server: Arc<Server>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Block until the accept loop exits (after a `shutdown` request).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Unsupervised drop: force shutdown so the accept thread exits.
        self.server.handle_line(r#"{"op":"shutdown"}"#);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
/// requests until a `shutdown` request arrives.
pub fn serve_tcp(addr: &str, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let server = Arc::new(Server::new(cfg));
    let accept_server = Arc::clone(&server);
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || accept_loop(listener, accept_server))?;
    Ok(ServerHandle {
        addr,
        server,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: TcpListener, server: Arc<Server>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if server.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_server = Arc::clone(&server);
                if let Ok(t) = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, conn_server))
                {
                    workers.push(t);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        workers.retain(|t| !t.is_finished());
    }
    for t in workers {
        let _ = t.join();
    }
}

/// Send `line` and its `\n` terminator as one segment. Both ends of the
/// protocol frame through here: written in two pieces, the terminator
/// would wait behind Nagle for the peer's delayed ACK (~40 ms) on every
/// request and every response. Sockets also set `TCP_NODELAY`, so the
/// framed line leaves at once.
fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    writer.write_all(&framed)?;
    writer.flush()
}

fn handle_connection(stream: TcpStream, server: Arc<Server>) {
    // Short read timeout so the thread can notice shutdown even while a
    // client holds the connection open without sending anything.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = stream;
    let max = server.config().max_request_bytes.max(1);
    let oversize_reject = || {
        server.with_metrics(|m| m.add("serve.bad_requests", 1));
        error_response(
            "bad_request",
            format!("request line exceeds max_request_bytes ({max})"),
        )
        .to_string_compact()
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Oversized-line mode: the reply was already sent, the rest of the
    // line is dropped on the floor until its newline arrives.
    let mut discarding = false;
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => break, // client closed
            Ok(n) => {
                let mut rest = &chunk[..n];
                while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
                    let head = &rest[..pos];
                    // The bound applies even when the terminator arrived
                    // in the same chunk as the overflowing bytes — an
                    // oversized line is rejected, never processed.
                    let oversized = !discarding && buf.len() + head.len() > max;
                    let line = if discarding || oversized {
                        discarding = false;
                        buf.clear();
                        None
                    } else {
                        buf.extend_from_slice(head);
                        Some(std::mem::take(&mut buf))
                    };
                    rest = &rest[pos + 1..];
                    if oversized {
                        if write_line(&mut writer, &oversize_reject()).is_err() {
                            return;
                        }
                        continue;
                    }
                    if let Some(line) = line {
                        let response = match std::str::from_utf8(&line) {
                            Ok(s) if s.trim().is_empty() => continue,
                            Ok(s) => server.handle_line(s.trim()),
                            Err(_) => {
                                server.with_metrics(|m| m.add("serve.bad_requests", 1));
                                error_response("bad_request", "request line is not valid UTF-8")
                                    .to_string_compact()
                            }
                        };
                        if write_line(&mut writer, &response).is_err() {
                            return;
                        }
                    }
                }
                if discarding || rest.is_empty() {
                    continue;
                }
                if buf.len() + rest.len() > max {
                    // The line outgrew the budget mid-stream: answer
                    // once, then discard the remainder of the line.
                    buf.clear();
                    discarding = true;
                    if write_line(&mut writer, &oversize_reject()).is_err() {
                        return;
                    }
                } else {
                    buf.extend_from_slice(rest);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A timeout may leave a partial line in `buf`; keep it and
                // let the next read append the rest.
                if server.is_shutting_down() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// A blocking line-protocol client over one persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one raw request line, return the raw response line.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        write_line(&mut self.writer, line)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Send one request line and parse the response JSON.
    pub fn request(&mut self, line: &str) -> std::io::Result<Value> {
        let raw = self.request_line(line)?;
        gpuflow_minijson::parse(&raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Write raw bytes without framing (chaos clients: trickled and
    /// garbage frames).
    pub fn write_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read one response line and parse it (pairs with [`Client::write_raw`]).
    pub fn read_response(&mut self) -> std::io::Result<Value> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        gpuflow_minijson::parse(response.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// One-shot convenience: connect, send one request, return the parsed
/// response.
pub fn request_once(addr: &str, line: &str) -> std::io::Result<Value> {
    Client::connect(addr)?.request(line)
}

/// Deterministic jittered exponential backoff before retry `attempt`
/// (0-based), in milliseconds. A server `retry_after_ms` hint replaces
/// the exponential base (25 ms doubling, capped at 1.6 s); jitter is
/// 50–150% of the base, derived from `(seed, attempt)` alone so a
/// replayed client backs off identically.
pub fn backoff_ms(seed: u64, attempt: u32, hint_ms: Option<u64>) -> u64 {
    let base = hint_ms.unwrap_or(25u64 << attempt.min(6));
    let jitter = mix_f64(mix(seed ^ 0x0042_4143_4B4F_4646) ^ mix(attempt as u64 + 1)); // "BACKOFF"
    ((base as f64) * (0.5 + jitter)).round().max(1.0) as u64
}

/// Send `line`, retrying typed retryable errors (`backpressure` with
/// `"retry": true`, including breaker sheds) and transport errors with
/// jittered exponential backoff honoring the server's `retry_after_ms`
/// hint. Stops after `retries` retries or once `budget_ms` of wall time
/// is spent, returning the last outcome either way. Terminal typed
/// errors (`infeasible`, `deadline_exceeded`, …) return immediately.
pub fn request_with_retry(
    addr: &str,
    line: &str,
    retries: u32,
    budget_ms: u64,
    seed: u64,
) -> std::io::Result<Value> {
    let start = Instant::now();
    let mut attempt = 0u32;
    loop {
        let outcome = request_once(addr, line);
        let hint_ms = match &outcome {
            Ok(v) => {
                let err = v.get("error");
                let retryable = err
                    .and_then(|e| e.get("retry"))
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false);
                if !retryable {
                    return outcome;
                }
                err.and_then(|e| e.get("retry_after_ms"))
                    .and_then(|v| v.as_u64())
            }
            // Transport errors (refused, reset, EOF) are retryable: the
            // daemon may be restarting.
            Err(_) => None,
        };
        let elapsed_ms = start.elapsed().as_millis() as u64;
        if attempt >= retries || elapsed_ms >= budget_ms {
            return outcome;
        }
        let delay = backoff_ms(seed, attempt, hint_ms).min(budget_ms - elapsed_ms);
        std::thread::sleep(Duration::from_millis(delay));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr.to_string();
        let mut client = Client::connect(&addr).unwrap();
        let r = client
            .request(r#"{"op":"compile","template":"fig3"}"#)
            .unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(r.get("cache").and_then(|v| v.as_str()), Some("miss"));
        let r = client
            .request(r#"{"op":"compile","template":"fig3"}"#)
            .unwrap();
        assert_eq!(r.get("cache").and_then(|v| v.as_str()), Some("hit"));
        let r = client.request(r#"{"op":"shutdown"}"#).unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(true));
        handle.join();
    }

    #[test]
    fn warm_hits_are_not_held_behind_delayed_acks() {
        // A line written as body then `\n` waits for the peer's delayed
        // ACK (≥ 40 ms) before the terminator leaves; 40 such hits take
        // over 1.6 s. Framed in one write, they take a few milliseconds.
        let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = Client::connect(&handle.addr.to_string()).unwrap();
        let line = r#"{"op":"compile","template":"fig3"}"#;
        client.request(line).unwrap();
        let t0 = Instant::now();
        for _ in 0..40 {
            let r = client.request(line).unwrap();
            assert_eq!(r.get("cache").and_then(|v| v.as_str()), Some("hit"));
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "40 warm hits took {elapsed:?}"
        );
    }

    #[test]
    fn malformed_lines_get_bad_request_not_disconnect() {
        let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr.to_string();
        let mut client = Client::connect(&addr).unwrap();
        let r = client.request("this is not json").unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|v| v.as_str()),
            Some("bad_request")
        );
        // Connection survives the error.
        let r = client.request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn oversized_lines_get_one_typed_reject_and_the_connection_survives() {
        let handle = serve_tcp(
            "127.0.0.1:0",
            ServeConfig {
                max_request_bytes: 256,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr.to_string();
        let mut client = Client::connect(&addr).unwrap();
        // A 4 KiB line: crosses the 256-byte budget mid-stream.
        let huge = format!(
            "{{\"op\":\"compile\",\"template\":\"{}\"}}",
            "x".repeat(4096)
        );
        let r = client.request(&huge).unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(false));
        let detail = r
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(|v| v.as_str())
            .unwrap();
        assert!(detail.contains("max_request_bytes"), "{detail}");
        // The remainder of the oversized line was discarded; the next
        // request works.
        let r = client.request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(true));
        server_bad_requests_at_least(&handle, 1);
    }

    #[test]
    fn oversized_line_with_terminator_in_the_same_chunk_is_rejected() {
        // Regression: a line over the budget whose newline arrives in
        // the same 4 KiB read used to slip through the mid-stream check
        // and get processed anyway.
        let handle = serve_tcp(
            "127.0.0.1:0",
            ServeConfig {
                max_request_bytes: 256,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr.to_string();
        let mut client = Client::connect(&addr).unwrap();
        // ~300 bytes incl. terminator: over 256, well under one chunk.
        let line = format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}", "y".repeat(270));
        let r = client.request(&line).unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(false));
        let detail = r
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(|v| v.as_str())
            .unwrap();
        assert!(detail.contains("max_request_bytes"), "{detail}");
        // The connection and the next (fitting) request both survive.
        let r = client.request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(true));
        server_bad_requests_at_least(&handle, 1);
    }

    fn server_bad_requests_at_least(handle: &ServerHandle, n: u64) {
        handle
            .server
            .with_metrics(|m| assert!(m.counter("serve.bad_requests") >= n));
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_honors_hints() {
        // Same (seed, attempt, hint) → same delay; replay identity.
        assert_eq!(backoff_ms(7, 0, None), backoff_ms(7, 0, None));
        assert_eq!(backoff_ms(7, 3, Some(40)), backoff_ms(7, 3, Some(40)));
        // Different seeds jitter differently (overwhelmingly likely).
        assert_ne!(backoff_ms(1, 0, None), backoff_ms(2, 0, None));
        // Jitter stays within 50–150% of the base.
        for attempt in 0..10 {
            let base = 25u64 << attempt.min(6);
            let d = backoff_ms(99, attempt, None);
            assert!(d >= base / 2 && d <= base * 3 / 2 + 1, "{attempt}: {d}");
            let h = backoff_ms(99, attempt, Some(100));
            assert!((50..=151).contains(&h), "{attempt}: {h}");
        }
    }

    #[test]
    fn retry_refuses_terminal_errors_and_retries_backpressure() {
        // Terminal: infeasible returns immediately, no retries burned.
        let handle = serve_tcp(
            "127.0.0.1:0",
            ServeConfig {
                capacity_override: Some(vec![1024]),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr.to_string();
        let t0 = Instant::now();
        let r =
            request_with_retry(&addr, r#"{"op":"run","template":"fig3"}"#, 5, 10_000, 3).unwrap();
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|v| v.as_str()),
            Some("infeasible")
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "terminal error retried"
        );
    }
}
