//! The wire load generator's own socket code: `TCP_NODELAY`, one
//! `write_all` per request line, blocking read to `\n`. It does not use
//! the repository's client library, so it measures the daemon and nothing
//! of the repo's client.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::corpus::{Class, Sequence};

/// One connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read past the last newline.
    pending: Vec<u8>,
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a read timeout that turns a hung
    /// daemon into a transport error.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    /// Send one request line and block for the response line. Returns the
    /// response and the instant the request had been handed to the kernel.
    pub fn request(&mut self, line: &str) -> io::Result<(String, Instant)> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.stream.write_all(&framed)?;
        let sent = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(end + 1);
                self.pending.pop();
                let response = String::from_utf8(std::mem::replace(&mut self.pending, rest))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                return Ok((response, sent));
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.pending.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

/// What one response said, reduced on receipt so that a long window does
/// not hold every response text.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `ok:true`, with the fields the invariants need.
    Ok {
        /// `graph_hash`, parsed from hex.
        graph_hash: u64,
        /// `sim_time_s` of a `run` response, as its bit pattern.
        sim_time_bits: Option<u64>,
    },
    /// Transport error, unparsable JSON, or `ok:false`.
    Failed(String),
}

/// Reduce a response line to an [`Answer`].
pub fn parse_answer(response: &str) -> Answer {
    let doc = match gpuflow_minijson::parse(response) {
        Ok(doc) => doc,
        Err(e) => return Answer::Failed(format!("unparsable response: {e}")),
    };
    if doc["ok"].as_bool() != Some(true) {
        return Answer::Failed(format!("not ok: {response}"));
    }
    match doc["graph_hash"]
        .as_str()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
    {
        Some(graph_hash) => Answer::Ok {
            graph_hash,
            sim_time_bits: doc["sim_time_s"].as_f64().map(f64::to_bits),
        },
        None => Answer::Failed(format!("no graph_hash: {response}")),
    }
}

/// One request as the load generator saw it. Times are offsets from the
/// start of the drive.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Latency class, fixed by the sequence.
    pub class: Class,
    /// Template spec of the request.
    pub spec: String,
    /// When the request was taken from the sequence (closed loop: when
    /// the connection became free).
    pub due: Duration,
    /// When `write_all` returned.
    pub sent: Duration,
    /// When the response line was complete.
    pub received: Duration,
    /// What came back.
    pub answer: Answer,
}

impl Sample {
    /// Client-observed latency in milliseconds, from due to received.
    pub fn latency_ms(&self) -> f64 {
        (self.received - self.due).as_secs_f64() * 1e3
    }
}

/// Closed loop: `connections` connections each pull the next request from
/// the shared sequence as soon as their previous one completes, until
/// `duration` has passed. Returns every request in completion order per
/// connection.
pub fn drive(
    addr: &str,
    sequence: &Mutex<Sequence>,
    connections: u32,
    duration: Duration,
) -> io::Result<Vec<Sample>> {
    let mut conns = Vec::new();
    for _ in 0..connections {
        conns.push(Conn::connect(addr)?);
    }
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let due = start.elapsed();
                        if due >= duration {
                            return mine;
                        }
                        let req = sequence
                            .lock()
                            .expect("sequence lock not poisoned")
                            .next_req();
                        let outcome = conn.request(&req.line());
                        let received = start.elapsed();
                        let (answer, sent, broken) = match outcome {
                            Ok((text, sent)) => (parse_answer(&text), sent - start, false),
                            Err(e) => (Answer::Failed(format!("transport: {e}")), received, true),
                        };
                        mine.push(Sample {
                            class: req.class,
                            spec: req.spec,
                            due,
                            sent,
                            received,
                            answer,
                        });
                        if broken {
                            // The framing of this connection can no longer
                            // be trusted; its worker stops.
                            return mine;
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load worker does not panic"))
            .collect::<Vec<_>>()
    });
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn answers_are_reduced() {
        let ok = parse_answer(r#"{"ok":true,"result":"ran","graph_hash":"00ff","sim_time_s":0.5}"#);
        assert_eq!(
            ok,
            Answer::Ok {
                graph_hash: 255,
                sim_time_bits: Some(0.5f64.to_bits())
            }
        );
        assert!(matches!(
            parse_answer(r#"{"ok":false,"error":{}}"#),
            Answer::Failed(_)
        ));
        assert!(matches!(parse_answer("garbage"), Answer::Failed(_)));
        assert!(matches!(parse_answer(r#"{"ok":true}"#), Answer::Failed(_)));
    }

    #[test]
    fn conn_frames_one_line_per_request_and_reads_to_newline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                // Answer in two writes, as the daemon does.
                writer
                    .write_all(format!("echo {}", line.trim_end()).as_bytes())
                    .unwrap();
                writer.write_all(b"\n").unwrap();
            }
        });
        let mut conn = Conn::connect(&addr).unwrap();
        assert_eq!(conn.request("one").unwrap().0, "echo one");
        assert_eq!(conn.request("two").unwrap().0, "echo two");
        server.join().unwrap();
        assert!(conn.request("three").is_err());
    }
}
