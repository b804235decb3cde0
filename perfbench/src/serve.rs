//! `serve_mixed`: a child `actuary serve --workers 1 --threads 1` on
//! loopback, driven in a closed loop by one keep-alive connection that
//! sends its next request once the last byte of the previous answer has
//! arrived.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use actuary_scenario::toml::parse;
use actuary_scenario::Scenario;

use crate::docs::{Class, Mix, Request, EXAMPLES};
use crate::{
    answer, fnv64, layer_metrics, median, peak_rss_mib, quantile, reset_peak_rss, trace, Args,
    Probe, Report, Yardstick,
};

/// Load between two yardstick runs; every latency in a slice, and the
/// slice's load time, is scaled by the yardstick runs on either side.
const SLICE: Duration = Duration::from_secs(1);
/// Set-up repetitions (server spawn + reference renders + warm-up);
/// `setup_s` is their median and the last server carries the load.
const SETUP_ROUNDS: usize = 3;
/// Result-cache capacity: room for every example plus the fresh answers
/// of a run's last stretch, so an example is never evicted mid-run and
/// the hit ratio is fixed by the mix.
const RESULT_CACHE_ENTRIES: &str = "64";
/// How long the server may take to count the last answered request.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Cold documents the traced run replays in process for the engine and
/// artifact layers (every checked answer is replayed untraced anyway).
const REPLAY_SAMPLE: usize = 240;

/// A running `actuary serve` child, killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--threads", "1", "--cache-entries", RESULT_CACHE_ENTRIES])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the server printed no address: {line:?}"))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One answer as the client received it.
struct Response {
    status: u16,
    body: Vec<u8>,
    close: bool,
    ttfb_s: f64,
    total_s: f64,
}

/// One keep-alive connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn post(&mut self, path: &str, body: &str, json: bool) -> io::Result<Response> {
        let accept = if json {
            "Accept: application/json\r\n"
        } else {
            ""
        };
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\n{accept}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let start = Instant::now();
        self.stream.write_all(request.as_bytes())?;
        self.read_response(start)
    }

    fn get(&mut self, path: &str) -> io::Result<Response> {
        let start = Instant::now();
        self.stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        self.read_response(start)
    }

    fn read_response(&mut self, start: Instant) -> io::Result<Response> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let ttfb_s = start.elapsed().as_secs_f64();
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut chunked, mut close) = (None, false, false);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| bad("Content-Length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                line.clear();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("chunk size"))?;
                let at = body.len();
                body.resize(at + size, 0);
                self.reader.read_exact(&mut body[at..])?;
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf)?;
                if size == 0 {
                    break;
                }
            }
        } else if let Some(length) = length {
            body.resize(length, 0);
            self.reader.read_exact(&mut body)?;
        }
        Ok(Response {
            status,
            body,
            close,
            ttfb_s,
            total_s: start.elapsed().as_secs_f64(),
        })
    }
}

/// `GET path` on a fresh connection (an idle keep-alive connection is
/// closed by the server after a few seconds).
fn fetch(addr: &str, path: &str) -> Result<String, String> {
    Conn::open(addr)
        .and_then(|mut c| c.get(path))
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .map_err(|e| format!("GET {path}: {e}"))
}

/// The sample lines of the `/metricsz` exposition: (series, value).
fn scrape(addr: &str) -> Result<Vec<(String, f64)>, String> {
    let text = fetch(addr, "/metricsz")?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

/// Sums the samples of metric `name` whose labels contain `label`.
fn total(samples: &[(String, f64)], name: &str, label: &str) -> f64 {
    samples
        .iter()
        .filter(|(series, _)| {
            let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
            metric == name && labels.contains(label)
        })
        .map(|(_, v)| v)
        .sum()
}

fn run_count(samples: &[(String, f64)]) -> f64 {
    total(
        samples,
        "actuary_http_request_seconds_count",
        "route=\"/run\"",
    )
}

/// `"key":N` in the `/statz` JSON, inside the `"section"` object if one
/// is named.
fn statz(json: &str, section: Option<&str>, key: &str) -> f64 {
    let object = section
        .and_then(|section| json.find(&format!("\"{section}\"")))
        .map_or(json, |at| &json[at..]);
    object
        .find(&format!("\"{key}\":"))
        .map(|at| &object[at + key.len() + 3..])
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(f64::NAN)
}

/// The in-process answers every example request is compared against.
struct Reference {
    csv: Vec<u8>,
    json: Vec<u8>,
    cells: usize,
}

fn references() -> Result<Vec<Reference>, String> {
    EXAMPLES
        .iter()
        .map(|(name, text)| {
            let csv = answer(text, 1, false).map_err(|r| format!("{name}: {}", r.body))?;
            let json = answer(text, 1, true).map_err(|r| format!("{name}: {}", r.body))?;
            Ok(Reference {
                cells: csv.cells(),
                csv: csv.body().into_bytes(),
                json: json.body().into_bytes(),
            })
        })
        .collect()
}

/// Spawns the server, waits for `/healthz`, renders the references and
/// sends every example once, so the run starts with every example cached.
fn set_up(args: &Args, report: &mut Report) -> Result<(Server, Vec<Reference>), String> {
    let server = Server::spawn(&args.actuary)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let healthy = Conn::open(&server.addr)
            .and_then(|mut c| c.get("/healthz"))
            .is_ok_and(|r| r.status == 200 && r.body == b"ok\n");
        if healthy {
            break;
        }
        if Instant::now() > deadline {
            return Err("the server never answered /healthz".to_string());
        }
        thread::sleep(Duration::from_millis(5));
    }
    let references = references()?;
    let mut conn = Conn::open(&server.addr).map_err(|e| format!("connect: {e}"))?;
    for ((name, text), reference) in EXAMPLES.iter().zip(&references) {
        let response = conn
            .post("/run", text, false)
            .map_err(|e| format!("warming {name}: {e}"))?;
        if response.status != 200 || response.body != reference.csv {
            report.problem(format!(
                "warm-up answer for {name} differs from the reference"
            ));
        }
    }
    Ok((server, references))
}

/// What the client keeps of one answer: its timings, its status and a
/// fingerprint of its body.
struct Seen {
    status: u16,
    /// Request write to status line.
    ttfb_s: f64,
    /// Request write to the last body byte.
    total_s: f64,
    digest: u64,
}

/// One request of the load. `verdict` is `None` until the answer is
/// checked.
struct Sample {
    request: Request,
    seen: Option<Seen>,
    verdict: Option<bool>,
    cells: usize,
    /// The yardstick scale of the slice the request was sent in.
    scale: f64,
}

/// A body fingerprint. A streamed refine body delivers the batch body's
/// rows in phase order, so refine bodies hash as a multiset of lines.
fn body_digest(class: Class, body: &[u8]) -> u64 {
    match class {
        Class::Refine => body
            .split(|&b| b == b'\n')
            .fold(0u64, |sum, line| sum.wrapping_add(fnv64(line))),
        _ => fnv64(body),
    }
}

/// The load's one keep-alive connection and its seeded request stream.
struct Client<'a> {
    addr: &'a str,
    mix: Mix,
    conn: Option<Conn>,
}

impl Client<'_> {
    /// The closed loop until `until`; returns the slice's samples, whose
    /// `scale` the caller fills in.
    fn drive(&mut self, until: Instant, references: &[Reference]) -> Vec<Sample> {
        let mut samples = Vec::new();
        while Instant::now() < until {
            let request = self.mix.next().expect("the mix never ends");
            samples.push(self.send(request, references));
        }
        samples
    }

    fn send(&mut self, request: Request, references: &[Reference]) -> Sample {
        let response = match self.conn.take() {
            Some(c) => Ok(c),
            None => Conn::open(self.addr),
        }
        .and_then(|mut c| {
            let response = c.post(request.path(), &request.body, request.json)?;
            if !response.close {
                self.conn = Some(c);
            }
            Ok(response)
        });
        let mut sample = Sample {
            request,
            seen: None,
            verdict: Some(false),
            cells: 0,
            scale: f64::NAN,
        };
        if let Ok(response) = response {
            // Example answers are compared on the spot; everything else
            // is checked against an in-process answer after the run.
            let class = sample.request.class;
            sample.verdict = match class {
                Class::Hot(i) => {
                    let reference = &references[i];
                    sample.cells = reference.cells;
                    let expected = if sample.request.json {
                        &reference.json
                    } else {
                        &reference.csv
                    };
                    Some(response.status == 200 && response.body == *expected)
                }
                _ => None,
            };
            sample.seen = Some(Seen {
                status: response.status,
                ttfb_s: response.ttfb_s,
                total_s: response.total_s,
                digest: body_digest(class, &response.body),
            });
        }
        sample
    }
}

/// Whether `text` names a position as `line N, column M`.
fn names_position(text: &str) -> bool {
    text.match_indices("line ").any(|(at, _)| {
        let rest = &text[at + 5..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        digits > 0 && {
            let rest = &rest[digits..];
            rest.strip_prefix(", column ")
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        }
    })
}

/// Checks one non-example answer against an in-process answer of the
/// same document.
fn verify(sample: &mut Sample) {
    let request = &sample.request;
    let seen = sample.seen.as_ref().expect("unanswered samples are failed");
    let expected = answer(&request.body, 1, request.json);
    let ok = match (request.class, expected) {
        (Class::Malformed, Err(refusal)) => {
            seen.status == 400
                && refusal.status == 400
                && seen.digest == fnv64(refusal.body.as_bytes())
                && names_position(&refusal.body)
        }
        (class @ (Class::Fresh | Class::Refine), Ok(expected)) => {
            sample.cells = expected.cells();
            seen.status == 200 && seen.digest == body_digest(class, expected.body().as_bytes())
        }
        _ => false,
    };
    sample.verdict = Some(ok);
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut yardstick = Yardstick::default();
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut ready = None;
    for _ in 0..SETUP_ROUNDS {
        // The previous round's server is stopped before the next spawns.
        drop(ready.take());
        let start = Instant::now();
        ready = Some(set_up(args, &mut report)?);
        setups.push(start.elapsed().as_secs_f64() * yardstick.scale());
    }
    let (server, references) = ready.expect("at least one set-up round");
    report.set("setup_s", median(&setups));

    reset_peak_rss(Some(server.child.id()));
    let before = scrape(&server.addr)?;
    let statz_before = fetch(&server.addr, "/statz")?;

    // --- the load, in slices, each followed by the yardstick -------------
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut client = Client {
        addr: &server.addr,
        mix: Mix::new(args.seed),
        conn: None,
    };
    let mut samples = Vec::new();
    // Each slice's samples and its load time, as measured and scaled.
    let mut slices: Vec<(Range<usize>, f64, f64)> = Vec::new();
    while Instant::now() < deadline {
        let start = Instant::now();
        let mut slice = client.drive((start + SLICE).min(deadline), &references);
        let wall = start.elapsed().as_secs_f64();
        let scale = yardstick.scale();
        slice.iter_mut().for_each(|s| s.scale = scale);
        slices.push((
            samples.len()..samples.len() + slice.len(),
            wall,
            wall * scale,
        ));
        samples.append(&mut slice);
    }
    drop(client);
    let sent = samples.len() as u64;
    report.attempted = sent;

    // The server counts a request after writing its last byte, so poll
    // until it has counted every request sent (bounded).
    let poll = Instant::now();
    let after = loop {
        let after = scrape(&server.addr)?;
        let counted = run_count(&after) - run_count(&before);
        if counted == sent as f64 {
            break after;
        }
        if poll.elapsed() > SCRAPE_DEADLINE {
            report.failed += 1;
            report.problem(format!(
                "the server counted {counted} /run requests, the client sent {sent}"
            ));
            break after;
        }
        thread::sleep(Duration::from_millis(10));
    };
    let statz_after = fetch(&server.addr, "/statz")?;
    let rss = peak_rss_mib(Some(server.child.id()));
    drop(server);

    // --- checks, outside the timed window -------------------------------
    let pending: Vec<usize> = (0..samples.len())
        .filter(|&i| samples[i].verdict.is_none())
        .collect();
    replay(&mut samples, &pending);
    let failed = samples.iter().filter(|s| s.verdict != Some(true)).count() as u64;
    report.failed += failed;
    if failed > 0 {
        report.problem(format!("{failed} of {sent} answers were wrong or missing"));
    }

    let latency = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| pick(s))
            .filter_map(|s| s.seen.as_ref().map(|r| r.total_s * s.scale * 1e3))
            .collect()
    };
    let all = latency(&|_| true);
    let cold = latency(&|s| s.request.class == Class::Fresh);
    // Rates are medians over the slices.
    let rate = |per_sample: &dyn Fn(&Sample) -> f64, scaled: bool| -> f64 {
        let rates: Vec<f64> = slices
            .iter()
            .map(|(range, wall, scaled_wall)| {
                let done: f64 = samples[range.clone()].iter().map(per_sample).sum();
                done / if scaled { *scaled_wall } else { *wall }
            })
            .collect();
        median(&rates)
    };
    let correct_cells = |s: &Sample| {
        if s.verdict == Some(true) {
            s.cells as f64
        } else {
            0.0
        }
    };

    if !args.trace {
        report.set("cells_per_s", rate(&correct_cells, true));
        report.set("requests_per_s", rate(&|_| 1.0, true));
        report.set("latency_p50_ms", median(&all));
        report.note("latency_p99_ms", quantile(&all, 0.99), "ms");
        report.set("cold_latency_p50_ms", median(&cold));
        report.set("peak_rss_mib", rss.unwrap_or(f64::NAN));
        report.note("requests", sent as f64, "count");
        report.note("fresh_requests", cold.len() as f64, "count");
        report.note("unscaled_requests_per_s", rate(&|_| 1.0, false), "1/s");
        return Ok(report);
    }

    // --- per-layer: server-side deltas, client split, in-process layers -
    let delta = |name: &str, label: &str| total(&after, name, label) - total(&before, name, label);
    let server_busy = delta("actuary_http_request_seconds_sum", "route=\"/run\"");
    // Per-layer times are as measured, not scaled.
    let answered = || samples.iter().filter_map(|s| s.seen.as_ref());
    let client_total: f64 = answered().map(|r| r.total_s).sum();
    report.set("http.server_busy_s", server_busy);
    report.set("http.outside_server_s", client_total - server_busy);
    let ttfb: Vec<f64> = answered().map(|r| r.ttfb_s * 1e3).collect();
    let body: Vec<f64> = answered().map(|r| (r.total_s - r.ttfb_s) * 1e3).collect();
    report.set("http.ttfb_p50_ms", median(&ttfb));
    report.set("http.body_p50_ms", median(&body));
    report.set(
        "http.response_bytes",
        delta("actuary_http_response_bytes_sum", "route=\"/run\""),
    );
    report.set(
        "serve.evaluate_s",
        delta("actuary_engine_phase_seconds_sum", "phase=\"dse.evaluate\""),
    );
    report.set(
        "serve.amortize_s",
        delta("actuary_engine_phase_seconds_sum", "phase=\"dse.amortize\""),
    );
    report.set("engine.steals", delta("actuary_engine_steals_total", ""));
    let stat = |section: Option<&str>, key: &str| {
        statz(&statz_after, section, key) - statz(&statz_before, section, key)
    };
    for (section, metric) in [
        ("result_cache", "cache.result_hit_ratio"),
        ("core_cache", "cache.core_hit_ratio"),
    ] {
        let (hits, misses) = (stat(Some(section), "hits"), stat(Some(section), "misses"));
        report.set(metric, hits / (hits + misses));
    }
    report.set("serve.rejected", stat(None, "rate_limited_total"));

    // The front-door steps on every body the load sent.
    let (mut parse_s, mut digest_s, mut lower_s) = (0.0, 0.0, 0.0);
    for sample in &samples {
        let start = Instant::now();
        let parsed = parse(&sample.request.body);
        parse_s += start.elapsed().as_secs_f64();
        if let Ok(table) = parsed {
            digest_s += crate::time_digest(&table);
            let start = Instant::now();
            std::hint::black_box(Scenario::from_doc(&table).is_ok());
            lower_s += start.elapsed().as_secs_f64();
        }
    }

    // Engine and artifact layers: a fixed-size sample of the cold
    // documents replayed in process, untraced and then traced.
    let stride = pending.len().div_ceil(REPLAY_SAMPLE).max(1);
    let cold_docs: Vec<&Request> = pending
        .iter()
        .step_by(stride)
        .map(|&i| &samples[i].request)
        .collect();
    let replay_wall = |traced: bool| {
        let start = Instant::now();
        let mut probe = Probe::default();
        for request in &cold_docs {
            let replayed = trace::timed("bench.rep", || answer(&request.body, 1, request.json));
            if let (true, Ok(replayed)) = (traced, replayed) {
                probe.add(&replayed);
            }
        }
        (start.elapsed().as_secs_f64(), probe)
    };
    let (untraced_wall, _) = replay_wall(false);
    trace::enable();
    trace::take();
    let (traced_wall, probe) = replay_wall(true);
    let mut layers = layer_metrics(&trace::take());
    probe.record(&mut layers);
    for (key, value) in layers {
        report.set(key, value);
    }
    report.set("scenario.parse_s", parse_s);
    report.set("scenario.digest_s", digest_s);
    report.set("scenario.lower_s", lower_s);
    report.set("trace.untraced_wall_s", untraced_wall);
    report.set("trace.overhead_ratio", traced_wall / untraced_wall);
    report.note("requests", sent as f64, "count");
    report.note("replayed_documents", cold_docs.len() as f64, "count");
    Ok(report)
}

/// Checks every pending answer against an in-process answer.
fn replay(samples: &mut [Sample], pending: &[usize]) {
    for &i in pending {
        verify(&mut samples[i]);
    }
}
