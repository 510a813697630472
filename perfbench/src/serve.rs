//! `serve-mix32`: `ft-serve` over loopback TCP with a seeded
//! train-smoke32-shaped model. One connection sends open-loop Poisson
//! predicts at a fixed offered rate; the other runs rollout sessions
//! (open, step k frames, close). A closed-loop saturation phase on both
//! connections follows.
//!
//! Predicts on one connection never overlap: the server reads a
//! connection's next frame only after it has answered the previous one. So
//! the mixed phase forms batches of one, and only the saturation phase, on
//! two connections, can batch two requests. With one predict connection and
//! at most `nproc` connections (two here), a batching change can move this
//! workload only through its saturation rate.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fno_core::{rollout, Fno, ForecastModel};
use ft_serve::proto::{self, Value};
use ft_serve::{ModelRegistry, ServeConfig, ServeEngine};
use ft_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    f32_exact, max_rel_diff, smoke_config, synthetic_frames, Headline, Report, ROUNDS, SMOKE_GRID,
};
use crate::layers::Shape;
use crate::stats::{median, ms_since, percentile, tail_line, trimmed_mean};
use crate::Workload;

const MODEL: &str = "default";
/// Offered open-loop predict rate, requests per second: under a third of
/// the closed-loop saturation rate of this set-up on the 2-vCPU host the
/// benchmark was tuned on (190–220 req/s), so that predicts queue briefly
/// behind sessions but no backlog builds.
pub const OFFERED_RPS: f64 = 60.0;
/// Frames per `session_step` call: two forwards of the 10 → 2 model, so
/// each step holds the session-store lock across more than one forward.
pub const SESSION_K: usize = 4;
/// Steps per session before it is closed: a 20-frame forecast from the
/// 10-frame history, with open and close under a third of the requests.
const STEPS_PER_SESSION: usize = 5;
/// Distinct inputs (and session histories) cycled through.
const POOL: usize = 16;
/// Generator lateness past which a run is invalid: the offered load was
/// not actually offered.
const MAX_LATENESS_MS: f64 = 50.0;
/// Served outputs may differ from a direct call by f32 rounding and by
/// batched-versus-single summation order.
const TOL: f64 = 1e-5;

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let s = TcpStream::connect(addr).expect("connect to loopback server");
        s.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            reader: BufReader::new(s.try_clone().expect("clone stream")),
            writer: BufWriter::new(s),
        }
    }

    fn predict(&mut self, x: &Tensor) -> Result<Tensor, String> {
        proto::write_predict(&mut self.writer, MODEL, x).map_err(|e| e.to_string())?;
        response(&mut self.reader)?
            .1
            .ok_or_else(|| "predict response without payload".into())
    }

    fn open_session(&mut self, history: &Tensor) -> Result<u64, String> {
        proto::write_session_open(&mut self.writer, MODEL, history).map_err(|e| e.to_string())?;
        let (h, _) = response(&mut self.reader)?;
        h.get("session")
            .and_then(Value::as_int)
            .ok_or_else(|| "no session id".into())
    }

    fn step(&mut self, id: u64) -> Result<Tensor, String> {
        proto::write_session_step(&mut self.writer, id, SESSION_K).map_err(|e| e.to_string())?;
        response(&mut self.reader)?
            .1
            .ok_or_else(|| "step response without payload".into())
    }

    fn close(&mut self, id: u64) -> Result<(), String> {
        proto::write_session_close(&mut self.writer, id).map_err(|e| e.to_string())?;
        response(&mut self.reader).map(|_| ())
    }
}

/// The engine, its accept loop and two client connections.
struct Server {
    engine: ServeEngine,
    accept: Option<JoinHandle<std::io::Result<()>>>,
    conns: Vec<Conn>,
}

impl Server {
    fn start(model: Fno) -> Server {
        let mut registry = ModelRegistry::new();
        registry.insert(MODEL, model).expect("fresh registry");
        let engine = ServeEngine::new(registry, ServeConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let handle = engine.handle();
        let accept = std::thread::spawn(move || ft_serve::server::serve_tcp(handle, listener));
        let conns = vec![Conn::open(addr), Conn::open(addr)];
        Server {
            engine,
            accept: Some(accept),
            conns,
        }
    }
}

impl Drop for Server {
    /// Closes one connection, sends `shutdown` on the other, then joins
    /// the accept loop (which joins its connection threads) and drains
    /// the engine.
    fn drop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        let mut last = self.conns.pop();
        self.conns.clear();
        if let Some(c) = last.as_mut() {
            if proto::write_bare(&mut c.writer, "shutdown").is_ok() {
                let _ = response(&mut c.reader);
            }
        }
        drop(last);
        let _ = accept.join();
        self.engine.shutdown();
    }
}

pub struct ServeMix {
    seed: u64,
    model: Fno,
    inputs: Vec<Tensor>,
    expected: Vec<Tensor>,
    server: Server,
    first_session: Option<(Tensor, Vec<Tensor>)>,
}

/// Operation counts of one client.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }
}

/// Raw samples and counts gathered across a run's rounds.
#[derive(Default)]
struct Samples {
    predict_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    session_ms: Vec<f64>,
    tally: Tally,
    sat_completed: u64,
    sat_s: f64,
    first_session: Option<(Tensor, Vec<Tensor>)>,
}

impl ServeMix {
    fn matches(&self, i: usize, out: &Tensor) -> bool {
        max_rel_diff(out, &self.expected[i % POOL]) <= TOL
    }

    /// Open-loop Poisson predicts on connection A while connection B runs
    /// sessions, for `secs`.
    fn mix(&self, conns: &mut [Conn], secs: f64, rng: &mut StdRng, acc: &mut Samples) {
        let mut schedule = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.gen::<f64>()).ln() / OFFERED_RPS;
            if t >= secs {
                break;
            }
            schedule.push(Duration::from_secs_f64(t));
        }
        let [conn_a, conn_b] = two(conns);
        let start = Instant::now();
        std::thread::scope(|s| {
            let (reader, writer) = (&mut conn_a.reader, &mut conn_a.writer);
            let schedule = &schedule;
            let sender = s.spawn(move || {
                let mut late = Vec::with_capacity(schedule.len());
                for (k, due) in schedule.iter().enumerate() {
                    let due = start + *due;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late.push(ms_since(due));
                    if proto::write_predict(writer, MODEL, &self.inputs[k % POOL]).is_err() {
                        break;
                    }
                }
                late
            });
            let receiver = s.spawn(move || {
                let mut lat = Vec::with_capacity(schedule.len());
                let mut tally = Tally::default();
                for (k, due) in schedule.iter().enumerate() {
                    tally.attempted += 1;
                    match response(reader) {
                        Ok((_, Some(out))) => {
                            lat.push(ms_since(start + *due));
                            tally.mismatched += u64::from(!self.matches(k, &out));
                        }
                        _ => {
                            tally.failed += 1;
                            break;
                        }
                    }
                }
                (lat, tally)
            });
            // Sessions, closed loop on the other connection.
            let mut j = 0;
            while start.elapsed().as_secs_f64() < secs {
                let history = &self.inputs[j % POOL];
                j += 1;
                acc.tally.attempted += 2 + STEPS_PER_SESSION as u64;
                let Ok(id) = conn_b.open_session(history) else {
                    acc.tally.failed += 1;
                    continue;
                };
                let mut frames = Vec::new();
                for _ in 0..STEPS_PER_SESSION {
                    let t0 = Instant::now();
                    match conn_b.step(id) {
                        Ok(f) => {
                            acc.session_ms.push(ms_since(t0));
                            frames.push(f);
                        }
                        Err(_) => acc.tally.failed += 1,
                    }
                }
                if conn_b.close(id).is_err() {
                    acc.tally.failed += 1;
                }
                acc.first_session
                    .get_or_insert_with(|| (history.clone(), frames));
            }
            acc.lateness_ms
                .extend(sender.join().expect("sender thread"));
            let (lat, tally) = receiver.join().expect("receiver thread");
            acc.predict_ms.extend(lat);
            acc.tally.add(&tally);
        });
    }

    /// Closed-loop predicts on both connections for `secs`.
    fn saturate(&self, conns: &mut [Conn], secs: f64, acc: &mut Samples) {
        let start = Instant::now();
        let results: Vec<(u64, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = two(conns)
                .into_iter()
                .enumerate()
                .map(|(c, conn)| {
                    s.spawn(move || {
                        let mut done = 0u64;
                        let mut tally = Tally::default();
                        let mut k = c;
                        while start.elapsed().as_secs_f64() < secs {
                            tally.attempted += 1;
                            match conn.predict(&self.inputs[k % POOL]) {
                                Ok(out) => {
                                    done += 1;
                                    tally.mismatched += u64::from(!self.matches(k, &out));
                                }
                                Err(_) => tally.failed += 1,
                            }
                            k += 2;
                        }
                        (done, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("saturation client"))
                .collect()
        });
        acc.sat_s += start.elapsed().as_secs_f64();
        for (done, tally) in &results {
            acc.sat_completed += done;
            acc.tally.add(tally);
        }
    }
}

impl Workload for ServeMix {
    fn setup(seed: u64) -> Self {
        let model = Fno::new(smoke_config(), seed);
        let inputs: Vec<Tensor> = (0..POOL)
            .map(|k| {
                f32_exact(&synthetic_frames(
                    seed.wrapping_add(k as u64),
                    10,
                    SMOKE_GRID,
                ))
            })
            .collect();
        let mut server = Server::start(model.clone());
        // Warm-up: a few predicts on each connection and one session.
        for c in &mut server.conns {
            for x in &inputs[..3] {
                c.predict(x).expect("warm-up predict");
            }
        }
        let c = &mut server.conns[1];
        let id = c.open_session(&inputs[0]).expect("warm-up session");
        c.step(id).expect("warm-up step");
        c.close(id).expect("warm-up close");
        ServeMix {
            seed,
            model,
            inputs,
            expected: Vec::new(),
            server,
            first_session: None,
        }
    }

    fn measure(&mut self, seconds: f64, rep: &mut Report) -> Headline {
        if self.expected.is_empty() {
            // Reference outputs for the response checks, by direct call.
            self.expected = self
                .inputs
                .iter()
                .map(|x| {
                    let y = self
                        .model
                        .forward_inference(&x.clone().reshape(&[1, 10, SMOKE_GRID, SMOKE_GRID]));
                    f32_exact(&y.reshape(&[2, SMOKE_GRID, SMOKE_GRID]))
                })
                .collect();
        }
        // The connections leave the server for the phases, so the rest of
        // `self` can be shared with the client threads.
        let mut conns = std::mem::take(&mut self.server.conns);
        let mut acc = Samples::default();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_5e4e);
        let round_s = seconds / ROUNDS as f64;
        for _ in 0..ROUNDS {
            rep.calibrate();
            self.mix(&mut conns, 0.7 * round_s, &mut rng, &mut acc);
            self.saturate(&mut conns, 0.3 * round_s, &mut acc);
        }
        rep.calibrate();
        self.server.conns = conns;
        if self.first_session.is_none() {
            self.first_session = acc.first_session.take();
        }

        let t = &acc.tally;
        rep.attempted += t.attempted;
        rep.failed += t.failed;
        rep.check(
            "serve-mix32: every served predict equals a direct forward_inference",
            t.mismatched == 0,
        );
        let late_p99 = percentile(&acc.lateness_ms, 99.0);
        rep.check(
            &format!("serve-mix32: open-loop generator lateness p99 < {MAX_LATENESS_MS} ms, nothing lost"),
            late_p99 < MAX_LATENESS_MS && t.failed == 0,
        );
        let saturation_rps = acc.sat_completed as f64 / acc.sat_s;
        let latency = trimmed_mean(&acc.predict_ms);
        rep.line(format!(
            "serve.predict_ms = {latency:.4} ms trimmed mean, serve.predict_p50_ms = {:.4} ms (open loop at {OFFERED_RPS} req/s offered, timed from the scheduled send, n={})",
            median(&acc.predict_ms),
            acc.predict_ms.len()
        ));
        tail_line(rep, "serve.predict", &acc.predict_ms);
        rep.line(format!(
            "serve.session_p50_ms = {:.4} ms (k={SESSION_K} frames per step, n={})",
            median(&acc.session_ms),
            acc.session_ms.len()
        ));
        tail_line(rep, "serve.session", &acc.session_ms);
        rep.line(format!(
            "serve.saturation_rps = {saturation_rps:.3} 1/s (closed loop, 2 connections, {} requests in {:.2} s)",
            acc.sat_completed, acc.sat_s
        ));
        rep.line(format!(
            "generator lateness: p50 {:.4} ms, p99 {late_p99:.4} ms, max {:.4} ms over {} sends",
            median(&acc.lateness_ms),
            acc.lateness_ms.iter().copied().fold(0.0, f64::max),
            acc.lateness_ms.len()
        ));
        Headline {
            throughput_per_s: saturation_rps,
            latency_ms: latency,
        }
    }

    fn verify(&mut self, rep: &mut Report) {
        let Some((history, frames)) = self.first_session.take() else {
            rep.check("serve-mix32: a session completed", false);
            return;
        };
        let served = Tensor::stack(&frames);
        let n = SMOKE_GRID;
        let served = served.reshape(&[frames.len() * SESSION_K, n, n]);
        let direct = f32_exact(&rollout(&self.model, &history, frames.len() * SESSION_K));
        rep.check(
            "serve-mix32: session frames equal rollout from the same window",
            max_rel_diff(&served, &direct) <= TOL,
        );
    }

    fn shape(&self) -> Shape {
        Shape::new(
            "serve-mix32",
            smoke_config(),
            SMOKE_GRID,
            crate::common::SMOKE_BATCH,
            self.seed,
        )
    }
}

/// The two client connections as disjoint mutable borrows.
fn two(conns: &mut [Conn]) -> [&mut Conn; 2] {
    let [a, b] = conns else {
        panic!("two client connections")
    };
    [a, b]
}

/// Reads one response frame; `Err` for an error frame or a broken stream.
fn response(reader: &mut BufReader<TcpStream>) -> Result<(proto::Header, Option<Tensor>), String> {
    match proto::read_frame(reader) {
        Ok(Some((h, t))) if h.get("ok") == Some(&Value::Bool(true)) => Ok((h, t)),
        Ok(Some((h, _))) => Err(format!("error response {h:?}")),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(e.to_string()),
    }
}
