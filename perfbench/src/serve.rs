//! `serve_ensemble`: `glc-serve --listen` with one pooled `glc-worker`
//! slot, driven over one GLCB-framed connection, one request in flight.
//! The sessions are `cello_0x1C` under each of its eight input
//! combinations with `Langevin(0.1)`. An op is one session round:
//! `Extend` by [`EXTEND`] replicates, then one `Query` each for the
//! output and two internal repressors.

use crate::tracer::Tracer;
use crate::{checks, op_seed, peak_rss_mb, rounds, setups, timed, Args, Outcome};
use glc_gates::catalog;
use glc_service::codec::{self, Hello};
use glc_service::{
    frame, EngineSpec, ExtendRequest, ModelSource, Queried, QueryRequest, Request, Response,
    ServiceStats, SessionSpec,
};
use glc_ssa::{simulate, CompiledModel, EnsemblePartial, Langevin};
use glc_vasim::ensemble_noise;
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// The circuit every session simulates.
const CIRCUIT: &str = "cello_0x1C";
/// Langevin step.
const DT: f64 = 0.1;
/// Horizon per replicate.
const T_END: f64 = 1000.0;
/// Trace sampling interval.
const SAMPLE_DT: f64 = 2.0;
/// Replicates per Extend.
const EXTEND: u64 = 8;
/// Input level of a logic-high input.
const INPUT_HIGH: f64 = 15.0;
/// The species each op queries: the output and two repressors.
const QUERIED: [&str; 3] = ["YFP", "R_PhlF", "R_BM3R1"];

/// A running `glc-serve`; stopped (stdin closed, then killed if it
/// lingers) and waited for when dropped.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl Server {
    fn start(bin_dir: &Path) -> Result<(Server, String), String> {
        let mut child = Command::new(bin_dir.join("glc-serve"))
            .args(["--listen", "127.0.0.1:0", "--workers", "1", "--worker-bin"])
            .arg(bin_dir.join("glc-worker"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting glc-serve: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("glc-serve stdout")?;
        // Owning the child from here on means every early return stops it.
        let server = Server { child, stdin };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading glc-serve address: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("glc-serve listening on ")
            .ok_or_else(|| format!("unexpected glc-serve greeting `{}`", line.trim()))?
            .to_string();
        Ok((server, addr))
    }

    /// Peak resident set of glc-serve plus its worker children.
    fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.id().to_string();
        let mut total = peak_rss_mb(&pid)?;
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
        for task in tasks.flatten() {
            let children =
                std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            for child in children.split_whitespace() {
                total += peak_rss_mb(child).unwrap_or(0.0);
            }
        }
        Some(total)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One GLCB-framed client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        frame::write_frame(&mut writer, &codec::hello_payload(Hello::glcb()))
            .map_err(|e| e.to_string())?;
        let reply = frame::read_frame(&mut reader)
            .map_err(|e| e.to_string())?
            .ok_or("glc-serve closed during hello")?;
        if !codec::parse_hello(&reply).map_err(|e| e.to_string())?.glcb {
            return Err("glc-serve did not grant the GLCB codec".into());
        }
        Ok(Client { reader, writer })
    }

    /// Sends one request and returns the raw reply payload.
    fn send(&mut self, request: &Request) -> Result<Vec<u8>, String> {
        let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
        frame::write_frame(&mut self.writer, &codec::encode_text(&line))
            .map_err(|e| e.to_string())?;
        frame::read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "glc-serve closed the connection".to_string())
    }

    /// Sends one request and decodes the reply.
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        decode(&self.send(request)?)
    }
}

fn decode(payload: &[u8]) -> Result<Response, String> {
    let text = codec::decode_text(payload).map_err(|e| e.to_string())?;
    match serde_json::from_str(&text).map_err(|e| format!("reply JSON: {e}"))? {
        Response::Error(message) => Err(format!("glc-serve: {message}")),
        response => Ok(response),
    }
}

/// One session and what the benchmark has asked of it.
struct Session {
    key: String,
    spec: SessionSpec,
    extends: Vec<u64>,
}

/// The eight session specs: every input combination of the circuit.
fn specs(seed: u64) -> Result<Vec<SessionSpec>, String> {
    let entry = catalog::by_id(CIRCUIT).ok_or("circuit missing from the catalog")?;
    let n = entry.inputs.len();
    Ok((0..1usize << n)
        .map(|combo| {
            let spec = SessionSpec::new(
                ModelSource::Catalog(CIRCUIT.into()),
                EngineSpec::Langevin(DT),
                // The session protocol carries seeds through a JSON
                // number layer that is exact only below 2^53.
                op_seed(seed, combo) >> 11,
                T_END,
                SAMPLE_DT,
            );
            entry
                .inputs
                .iter()
                .enumerate()
                .fold(spec, |spec, (j, input)| {
                    let high = (combo >> (n - 1 - j)) & 1 == 1;
                    spec.with_amount(input, if high { INPUT_HIGH } else { 0.0 })
                })
        })
        .collect())
}

/// The session's model as the service compiles it.
fn compile(spec: &SessionSpec) -> Result<CompiledModel, String> {
    let mut model = catalog::by_id(CIRCUIT).ok_or("circuit missing")?.model;
    for (species, amount) in &spec.set_amounts {
        model.set_initial_amount(species, *amount);
    }
    CompiledModel::new(&model).map_err(|e| e.to_string())
}

/// What one op received.
struct OpReply {
    replicates: u64,
    queries: Vec<Queried>,
    query_bytes: usize,
}

fn op(tracer: &mut Tracer, client: &mut Client, session: &mut Session) -> Result<OpReply, String> {
    tracer.span("op", |t| {
        let extend = Request::Extend(ExtendRequest {
            session: session.key.clone(),
            replicates: EXTEND,
        });
        let payload = t.span("service.extend_rtt", |_| client.send(&extend))?;
        session.extends.push(EXTEND);
        let replicates = match decode(&payload)? {
            Response::Extended(extended) => extended.replicates,
            other => return Err(format!("Extend answered with {other:?}")),
        };
        let mut queries = Vec::with_capacity(QUERIED.len());
        let mut query_bytes = 0;
        for species in QUERIED {
            let query = Request::Query(QueryRequest {
                session: session.key.clone(),
                species: vec![species.to_string()],
            });
            let payload = t.span("service.query_rtt", |_| client.send(&query))?;
            query_bytes += payload.len();
            match t.span("service.decode", |_| decode(&payload))? {
                Response::Queried(queried) => queries.push(queried),
                other => return Err(format!("Query answered with {other:?}")),
            }
        }
        Ok(OpReply {
            replicates,
            queries,
            query_bytes,
        })
    })
}

/// Cheap per-op checks: replicate counts and the species asked for.
fn check_reply(session: &Session, reply: &OpReply) -> Result<(), String> {
    checks::replicate_count(&session.key, reply.replicates, &session.extends)?;
    for (queried, species) in reply.queries.iter().zip(QUERIED) {
        checks::replicate_count(&session.key, queried.replicates, &session.extends)?;
        if queried.noise.len() != 1 || queried.noise[0].species != species {
            return Err(format!(
                "{}: Query for {species} answered for other species",
                session.key
            ));
        }
    }
    Ok(())
}

/// An in-process mirror of one session, fed the same extends and
/// queries through `glc_ssa`/`glc_vasim` in the traced run.
struct Mirror {
    model: CompiledModel,
    partial: EnsemblePartial,
}

impl Mirror {
    fn new(spec: &SessionSpec) -> Result<Mirror, String> {
        let model = compile(spec)?;
        let partial = EnsemblePartial::new(&model, T_END, SAMPLE_DT).map_err(|e| e.to_string())?;
        Ok(Mirror { model, partial })
    }

    /// Replays one op's extend and queries; each query must match the
    /// served reply bit for bit.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        spec: &SessionSpec,
        reply: &OpReply,
    ) -> Result<(), String> {
        tracer.span("replay", |t| {
            let first = self.partial.replicates();
            let mut chunk =
                EnsemblePartial::new(&self.model, T_END, SAMPLE_DT).map_err(|e| e.to_string())?;
            let mut engine = Langevin::new(DT).map_err(|e| e.to_string())?;
            for offset in 0..EXTEND {
                let seed = spec.base_seed.wrapping_add(first + offset);
                let trace = t
                    .span("ssa.replicate", |_| {
                        simulate(&self.model, &mut engine, T_END, SAMPLE_DT, seed)
                    })
                    .map_err(|e| e.to_string())?;
                t.span("ssa.accumulate", |_| chunk.accumulate(&trace, seed))
                    .map_err(|e| e.to_string())?;
            }
            t.span("ssa.merge", |_| self.partial.merge(&chunk))
                .map_err(|e| e.to_string())?;
            for (queried, species) in reply.queries.iter().zip(QUERIED) {
                let ensemble = t
                    .span("ssa.finalize", |_| self.partial.finalize())
                    .map_err(|e| e.to_string())?;
                let noise = t
                    .span("vasim.noise", |_| ensemble_noise(&ensemble, species))
                    .ok_or("species not aggregated")?;
                checks::traces_bitwise("replayed mean", &queried.mean, &ensemble.mean)?;
                checks::traces_bitwise("replayed std_dev", &queried.std_dev, &ensemble.std_dev)?;
                let flat = |points: &[glc_vasim::NoisePoint]| -> Vec<f64> {
                    points
                        .iter()
                        .flat_map(|p| [p.t, p.mean, p.std_dev, p.variance, p.fano, p.cv])
                        .collect()
                };
                checks::slices_bitwise(
                    "replayed noise",
                    &flat(&queried.noise[0].points),
                    &flat(&noise),
                )?;
            }
            Ok(())
        })
    }
}

/// The final Query of a session against a fresh in-process run of
/// replicates `0..R`, bit for bit, and against a plain f64 mean of the
/// same traces.
fn check_final(spec: &SessionSpec, last: &Queried) -> Result<(), String> {
    let model = compile(spec)?;
    let mut partial = EnsemblePartial::new(&model, T_END, SAMPLE_DT).map_err(|e| e.to_string())?;
    let mut engine = Langevin::new(DT).map_err(|e| e.to_string())?;
    let mut sums: Vec<(String, Vec<f64>)> = Vec::new();
    for i in 0..last.replicates {
        let seed = spec.base_seed.wrapping_add(i);
        let trace =
            simulate(&model, &mut engine, T_END, SAMPLE_DT, seed).map_err(|e| e.to_string())?;
        partial
            .accumulate(&trace, seed)
            .map_err(|e| e.to_string())?;
        if sums.is_empty() {
            sums = trace
                .species()
                .iter()
                .map(|s| (s.clone(), vec![0.0; trace.len()]))
                .collect();
        }
        for (s, (_, sum)) in sums.iter_mut().enumerate() {
            for (acc, v) in sum.iter_mut().zip(trace.series_at(s)) {
                *acc += v;
            }
        }
    }
    for (_, sum) in &mut sums {
        for v in sum.iter_mut() {
            *v /= last.replicates as f64;
        }
    }
    let fresh = partial.finalize().map_err(|e| e.to_string())?;
    checks::traces_bitwise("final Query mean vs fresh run", &last.mean, &fresh.mean)?;
    checks::traces_bitwise(
        "final Query std_dev vs fresh run",
        &last.std_dev,
        &fresh.std_dev,
    )?;
    checks::mean_matches(&last.mean, &sums)
}

/// Server-side totals read off a `Stats` reply.
#[derive(Clone, Copy, Default)]
struct ServerTotals {
    extends: u64,
    extend_s: f64,
    queries: u64,
    query_s: f64,
    chunks: u64,
    busy_s: f64,
    steals: u64,
}

fn server_totals(client: &mut Client) -> Result<ServerTotals, String> {
    let stats: ServiceStats = match client.call(&Request::Stats)? {
        Response::Stats(stats) => stats,
        other => return Err(format!("Stats answered with {other:?}")),
    };
    let latency = |kind: &str| {
        stats
            .latency
            .iter()
            .find(|l| l.kind == kind)
            .map_or((0, 0.0), |l| (l.histogram.count, l.histogram.sum_seconds))
    };
    let (extends, extend_s) = latency("extend");
    let (queries, query_s) = latency("query");
    Ok(ServerTotals {
        extends,
        extend_s,
        queries,
        query_s,
        chunks: stats.slots.iter().map(|s| s.successes).sum(),
        busy_s: stats.slots.iter().map(|s| s.busy_secs).sum(),
        steals: stats.pool_steals,
    })
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let specs = specs(args.seed)?;
    let ((server, mut client, mut sessions), setup_s) = setups(|| {
        let (server, addr) = Server::start(&args.bin_dir)?;
        let mut client = Client::connect(&addr)?;
        let mut sessions = Vec::with_capacity(specs.len());
        for spec in &specs {
            match client.call(&Request::Submit(spec.clone()))? {
                Response::Submitted(submitted) => sessions.push(Session {
                    key: submitted.session,
                    spec: spec.clone(),
                    extends: Vec::new(),
                }),
                other => return Err(format!("Submit answered with {other:?}")),
            }
        }
        // Warm-up round: one op per session, untimed.
        for session in &mut sessions {
            let reply = op(&mut Tracer::new(), &mut client, session)?;
            check_reply(session, &reply)?;
        }
        Ok((server, client, sessions))
    })?;

    let mut mirrors = Vec::new();
    if args.trace {
        for session in &sessions {
            let mut mirror = Mirror::new(&session.spec)?;
            // Catch the mirror up with the warm-up round.
            let count: u64 = session.extends.iter().sum();
            let fresh = glc_ssa::run_partial_from(
                &mirror.model,
                || Box::new(Langevin::new(DT).expect("valid dt")),
                session.spec.base_seed,
                count,
                T_END,
                SAMPLE_DT,
            )
            .map_err(|e| e.to_string())?;
            mirror.partial.merge(&fresh).map_err(|e| e.to_string())?;
            mirrors.push(mirror);
        }
    }

    let before = server_totals(&mut client)?;
    let mut outcome = Outcome::new(setup_s);
    let mut results: Vec<Result<(), String>> = Vec::new();
    let mut last: Vec<Option<(usize, Queried)>> = (0..sessions.len()).map(|_| None).collect();
    let mut query_bytes = 0usize;
    let mut op_id = 0u64;
    let window = rounds(args.seconds, |round| {
        let traced = args.trace && round % 2 == 1;
        for (s, session) in sessions.iter_mut().enumerate() {
            tracer.set_on(traced);
            tracer.set_op(op_id);
            op_id += 1;
            let (reply, secs) = timed(|| op(tracer, &mut client, session));
            outcome.record(secs * 1e3, traced);
            let reply = reply?;
            query_bytes += reply.query_bytes;
            let mut result = check_reply(session, &reply);
            if let Some(mirror) = mirrors.get_mut(s) {
                result = result.and_then(|()| mirror.replay(tracer, &session.spec, &reply));
            }
            results.push(result);
            last[s] = reply
                .queries
                .into_iter()
                .last()
                .map(|q| (results.len() - 1, q));
        }
        Ok(())
    })?;
    outcome.window_s = window;
    tracer.set_on(false);
    let after = server_totals(&mut client)?;
    outcome.peak_rss_mb = server.peak_rss_mb();
    drop(client);
    drop(server);

    // The fresh runs are independent: spread them over the host's cores.
    let finals: Vec<(usize, &Session, &Queried)> = sessions
        .iter()
        .zip(&last)
        .filter_map(|(session, last)| {
            last.as_ref()
                .map(|(index, queried)| (*index, session, queried))
        })
        .filter(|(index, _, _)| results[*index].is_ok())
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let checked: Vec<(usize, Result<(), String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = finals
            .chunks(finals.len().div_ceil(threads).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(index, session, queried)| {
                            let result = check_final(&session.spec, queried)
                                .map_err(|e| format!("{}: {e}", session.key));
                            (*index, result)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("final check thread panicked"))
            .collect()
    });
    for (index, result) in checked {
        results[index] = result;
    }
    for result in results {
        outcome.check(result);
    }

    if args.trace {
        let layers = tracer.layers();
        let ops = outcome.traced_ops() as f64;
        let per_op = |name: &str| crate::layer_ms(&layers, name, ops);
        let queries = ops * QUERIED.len() as f64;
        let extends = (after.extends - before.extends) as f64;
        let served_queries = (after.queries - before.queries) as f64;
        let chunks = (after.chunks - before.chunks) as f64;
        let extend_server_ms = (after.extend_s - before.extend_s) * 1e3 / extends;
        let query_server_ms = (after.query_s - before.query_s) * 1e3 / served_queries;
        let extend_rtt_ms = per_op("service.extend_rtt");
        let query_rtt_ms = per_op("service.query_rtt") / QUERIED.len() as f64;
        let attempted = outcome.attempted() as f64;
        outcome.layers = BTreeMap::from([
            ("service.extend_rtt_ms", extend_rtt_ms),
            ("service.query_rtt_ms", query_rtt_ms),
            ("service.extend_server_ms", extend_server_ms),
            ("service.query_server_ms", query_server_ms),
            ("service.extend_wire_ms", extend_rtt_ms - extend_server_ms),
            ("service.query_wire_ms", query_rtt_ms - query_server_ms),
            (
                "service.shard_ms",
                (after.busy_s - before.busy_s) * 1e3 / chunks.max(1.0),
            ),
            ("service.chunks", chunks / extends),
            (
                "service.steals",
                (after.steals - before.steals) as f64 / extends,
            ),
            (
                "service.reply_bytes",
                query_bytes as f64 / (attempted * QUERIED.len() as f64),
            ),
            (
                "service.decode_ms",
                crate::layer_ms(&layers, "service.decode", queries),
            ),
            ("ssa.replicate_ms", per_op("ssa.replicate")),
            ("ssa.accumulate_ms", per_op("ssa.accumulate")),
            ("ssa.merge_ms", per_op("ssa.merge")),
            ("ssa.finalize_ms", per_op("ssa.finalize")),
            ("vasim.noise_ms", per_op("vasim.noise")),
        ]);
        outcome.layer_table = layers;
    }
    Ok(outcome)
}
