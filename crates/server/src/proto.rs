//! The wire protocol: request/response message shapes and verbs.
//!
//! Each frame (see [`crate::frame`]) carries one compact-JSON
//! [`RequestMsg`] (client → server) or [`ResponseMsg`] (server → client).
//! The protocol is **multiplexed**: the client tags every request with a
//! connection-unique `id` and the server echoes it on every response, so
//! many requests can be in flight on one socket and responses may arrive
//! in any order. A `submit_group` gets *two* responses over its lifetime —
//! an immediate admission verdict (`accepted` / `busy` / `error`) and,
//! for accepted groups, a terminal `done` (or `cancelled`) once every job
//! in the group has executed.
//!
//! The vendored serde stack has no field attributes, so both messages are
//! flat structs whose verb-specific fields are `Option`s; the constructors
//! below are the only intended way to build well-formed requests.
//!
//! Clients write and the daemon reads the same [`RequestMsg`]: a frame is
//! decoded once, jobs and all, whatever the daemon then answers, and a frame
//! that is not a valid `RequestMsg` is an error.
//!
//! The hot frames are written and read by hand, past serde's `Value` tree.
//! [`encode`] writes a message straight into its payload, byte for byte what
//! `serde_json::to_string` writes, so the wire format is unchanged. [`decode`]
//! walks a payload that is laid out exactly that way and builds the message
//! from it, each job through [`Job::try_new`]. Every other frame — one
//! with whitespace, members in another order, an escaped character, another
//! spelling of a number, as other clients may send — goes through the
//! generic serde path, which accepts and refuses the frames it always has,
//! with the same error messages.

mod json;

use magma_model::{Job, JobId, LayerShape, TaskType};
use magma_serve::EngineStats;
use serde::{Deserialize, Serialize};

use json::{Layout, Reader, Writer};

/// Verb: submit a group of jobs for mapping + execution.
pub const VERB_SUBMIT: &str = "submit_group";
/// Verb: cancel a previously accepted `submit_group` by its request id.
pub const VERB_CANCEL: &str = "cancel";
/// Verb: stop admissions, finish all live work, persist caches, shut down.
pub const VERB_DRAIN: &str = "drain";
/// Verb: snapshot the engine's counters.
pub const VERB_STATS: &str = "stats";

/// Response kind: the group was admitted; a terminal `done` will follow.
pub const KIND_ACCEPTED: &str = "accepted";
/// Response kind: backpressure — retry after `retry_after_sec`.
pub const KIND_BUSY: &str = "busy";
/// Response kind: every job in an accepted group finished executing.
pub const KIND_DONE: &str = "done";
/// Response kind: a cancel was acknowledged (terminal for the target).
pub const KIND_CANCELLED: &str = "cancelled";
/// Response kind: the drain completed; carries the final [`EngineStats`].
pub const KIND_DRAINED: &str = "drained";
/// Response kind: a stats snapshot.
pub const KIND_STATS: &str = "stats";
/// Response kind: the request was rejected outright (see `error`).
pub const KIND_ERROR: &str = "error";

/// One client → server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestMsg {
    /// Connection-unique request id, echoed on every response.
    pub id: u64,
    /// One of the `VERB_*` constants.
    pub verb: String,
    /// `submit_group`: the submitting tenant's index in the server's mix.
    pub tenant: Option<usize>,
    /// `submit_group`: the jobs forming the group.
    pub jobs: Option<Vec<Job>>,
    /// `cancel`: the `id` of the `submit_group` to cancel.
    pub target: Option<u64>,
}

impl RequestMsg {
    /// Builds a `submit_group` request.
    pub fn submit(id: u64, tenant: usize, jobs: Vec<Job>) -> Self {
        Self {
            id,
            verb: VERB_SUBMIT.to_string(),
            tenant: Some(tenant),
            jobs: Some(jobs),
            target: None,
        }
    }

    /// Builds a `cancel` request targeting an earlier submit's id.
    pub fn cancel(id: u64, target: u64) -> Self {
        Self { id, verb: VERB_CANCEL.to_string(), tenant: None, jobs: None, target: Some(target) }
    }

    /// Builds a `drain` request.
    pub fn drain(id: u64) -> Self {
        Self { id, verb: VERB_DRAIN.to_string(), tenant: None, jobs: None, target: None }
    }

    /// Builds a `stats` request.
    pub fn stats(id: u64) -> Self {
        Self { id, verb: VERB_STATS.to_string(), tenant: None, jobs: None, target: None }
    }
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseMsg {
    /// The request id this response answers.
    pub id: u64,
    /// One of the `KIND_*` constants.
    pub kind: String,
    /// `busy`: suggested wait before resubmitting, in seconds.
    pub retry_after_sec: Option<f64>,
    /// `done` / `drained`: number of jobs that executed.
    pub jobs: Option<usize>,
    /// `done`: whether any job in the group blew its deadline.
    pub timed_out: Option<bool>,
    /// `stats` / `drained`: an engine counter snapshot.
    pub stats: Option<EngineStats>,
    /// `error`: human-readable rejection reason.
    pub error: Option<String>,
}

impl ResponseMsg {
    /// Builds a bare response of `kind` answering request `id`.
    pub fn new(id: u64, kind: &str) -> Self {
        Self {
            id,
            kind: kind.to_string(),
            retry_after_sec: None,
            jobs: None,
            timed_out: None,
            stats: None,
            error: None,
        }
    }

    /// Builds an `error` response with a reason.
    pub fn error(id: u64, reason: &str) -> Self {
        Self { error: Some(reason.to_string()), ..Self::new(id, KIND_ERROR) }
    }
}

/// A message [`encode`] writes and [`decode`] reads by hand: [`RequestMsg`]
/// and [`ResponseMsg`]. Sealed.
pub trait Frame: Deserialize + Layout {}

impl Frame for RequestMsg {}
impl Frame for ResponseMsg {}

/// Encodes a message as a compact-JSON frame payload.
pub fn encode<T: Frame>(msg: &T) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    msg.write(&mut w);
    w.0
}

/// Decodes a frame payload; the error string names the parse failure.
pub fn decode<T: Frame>(payload: &[u8]) -> Result<T, String> {
    let text = utf8(payload)?;
    T::read(text).map_or_else(|| generic(text), Ok)
}

/// The serde path, for every frame the hand-written readers leave.
fn generic<T: Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(malformed)
}

fn utf8(payload: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))
}

fn malformed(e: serde_json::Error) -> String {
    format!("malformed message: {e}")
}

// ---------------------------------------------------------------------------
// The hand-written layouts: the members in declaration order, `None` as
// `null`, jobs and layers as the derives write them.
// ---------------------------------------------------------------------------

/// Bytes the shortest job the writer can lay out takes — a `Gemm` of
/// one-digit dimensions, an empty model name, task `Mix` — so a job list of
/// `n` bytes holds at most `n / SHORTEST_JOB` jobs.
const SHORTEST_JOB: usize = 98;

/// Every [`LayerShape`] variant as the derive writes it: its name and its
/// fields in declaration order.
const LAYERS: [(&str, &[&str]); 5] = [
    ("Conv2d", &["k", "c", "y", "x", "r", "s", "stride"]),
    ("DepthwiseConv2d", &["c", "y", "x", "r", "s", "stride"]),
    ("FullyConnected", &["out_features", "in_features"]),
    ("Gemm", &["m", "n", "kdim"]),
    ("EmbeddingLookup", &["lookups", "dim"]),
];

/// A layer as its row of [`LAYERS`] and its dimensions in that row's order.
fn layer_dims(layer: &LayerShape) -> (usize, [usize; 7]) {
    match *layer {
        LayerShape::Conv2d { k, c, y, x, r, s, stride } => (0, [k, c, y, x, r, s, stride]),
        LayerShape::DepthwiseConv2d { c, y, x, r, s, stride } => (1, [c, y, x, r, s, stride, 0]),
        LayerShape::FullyConnected { out_features, in_features } => {
            (2, [out_features, in_features, 0, 0, 0, 0, 0])
        }
        LayerShape::Gemm { m, n, kdim } => (3, [m, n, kdim, 0, 0, 0, 0]),
        LayerShape::EmbeddingLookup { lookups, dim } => (4, [lookups, dim, 0, 0, 0, 0, 0]),
    }
}

/// [`layer_dims`] the other way round.
fn layer_from(row: usize, dims: [usize; 7]) -> Option<LayerShape> {
    Some(match (row, dims) {
        (0, [k, c, y, x, r, s, stride]) => LayerShape::Conv2d { k, c, y, x, r, s, stride },
        (1, [c, y, x, r, s, stride, _]) => LayerShape::DepthwiseConv2d { c, y, x, r, s, stride },
        (2, [out_features, in_features, ..]) => {
            LayerShape::FullyConnected { out_features, in_features }
        }
        (3, [m, n, kdim, ..]) => LayerShape::Gemm { m, n, kdim },
        (4, [lookups, dim, ..]) => LayerShape::EmbeddingLookup { lookups, dim },
        _ => return None,
    })
}

/// A task as the derive writes it.
fn task_name(task: TaskType) -> &'static str {
    match task {
        TaskType::Vision => "Vision",
        TaskType::Language => "Language",
        TaskType::Recommendation => "Recommendation",
        TaskType::Mix => "Mix",
    }
}

impl Writer {
    fn layer(&mut self, layer: &LayerShape) {
        let (row, dims) = layer_dims(layer);
        let (name, fields) = LAYERS[row];
        self.lit("{\"");
        self.lit(name);
        self.lit("\":{");
        for (i, (field, dim)) in fields.iter().zip(dims).enumerate() {
            self.lit(if i == 0 { "\"" } else { ",\"" });
            self.lit(field);
            self.lit("\":");
            self.uint(dim as u64);
        }
        self.lit("}}");
    }

    fn job(&mut self, job: &Job) {
        self.lit("{\"id\":");
        self.uint(job.id().0 as u64);
        self.lit(",\"model\":");
        self.str(job.model());
        self.lit(",\"layer_index\":");
        self.uint(job.layer_index() as u64);
        self.lit(",\"layer\":");
        self.layer(job.layer());
        self.lit(",\"batch\":");
        self.uint(job.batch() as u64);
        self.lit(",\"task\":\"");
        self.lit(task_name(job.task()));
        self.lit("\"}");
    }

    fn jobs(&mut self, jobs: &[Job]) {
        self.lit("[");
        for (i, job) in jobs.iter().enumerate() {
            if i > 0 {
                self.lit(",");
            }
            self.job(job);
        }
        self.lit("]");
    }
}

fn read_layer(r: &mut Reader) -> Option<LayerShape> {
    r.lit("{")?;
    let name = r.str()?;
    let row = LAYERS.iter().position(|&(known, _)| known == name)?;
    r.lit(":{")?;
    let mut dims = [0; 7];
    for (i, (field, dim)) in LAYERS[row].1.iter().zip(&mut dims).enumerate() {
        if i > 0 {
            r.lit(",")?;
        }
        (r.str()? == *field).then_some(())?;
        r.lit(":")?;
        *dim = r.usize()?;
    }
    r.lit("}}")?;
    layer_from(row, dims)
}

/// A job, built through [`Job::try_new`]; `None` where the text is not in
/// the writer's layout or the constructor refuses the job — the generic path
/// then words the refusal.
fn read_job(r: &mut Reader) -> Option<Job> {
    r.lit("{\"id\":")?;
    let id = r.usize()?;
    r.lit(",\"model\":")?;
    let model = r.str()?;
    r.lit(",\"layer_index\":")?;
    let layer_index = r.usize()?;
    r.lit(",\"layer\":")?;
    let layer = read_layer(r)?;
    r.lit(",\"batch\":")?;
    let batch = r.usize()?;
    r.lit(",\"task\":")?;
    let task = r.str()?;
    let task = TaskType::ALL.into_iter().find(|&t| task_name(t) == task)?;
    r.lit("}")?;
    Job::try_new(JobId(id), model.to_owned(), layer_index, layer, batch, task).ok()
}

/// A job list, built into a vector of room for `capacity` jobs.
fn read_jobs(r: &mut Reader, capacity: usize) -> Option<Vec<Job>> {
    r.lit("[")?;
    let mut jobs = Vec::with_capacity(capacity);
    if r.lit("]").is_some() {
        return Some(jobs);
    }
    loop {
        jobs.push(read_job(r)?);
        if r.lit("]").is_some() {
            return Some(jobs);
        }
        r.lit(",")?;
    }
}

impl Layout for RequestMsg {
    fn write(&self, w: &mut Writer) {
        // Room for what a zoo job takes, so a submit costs one allocation.
        let jobs = self.jobs.as_deref().unwrap_or_default();
        w.0.reserve(
            64 + self.verb.len() + jobs.iter().map(|j| 192 + j.model().len()).sum::<usize>(),
        );
        w.lit("{\"id\":");
        w.uint(self.id);
        w.lit(",\"verb\":");
        w.str(&self.verb);
        w.lit(",\"tenant\":");
        w.opt(self.tenant, |w, tenant| w.uint(tenant as u64));
        w.lit(",\"jobs\":");
        w.opt(self.jobs.as_deref(), Writer::jobs);
        w.lit(",\"target\":");
        w.opt(self.target, Writer::uint);
        w.lit("}");
    }

    fn read(text: &str) -> Option<Self> {
        let mut r = Reader::new(text);
        r.lit("{\"id\":")?;
        let id = r.uint()?;
        r.lit(",\"verb\":")?;
        let verb = r.str()?;
        r.lit(",\"tenant\":")?;
        let tenant = r.opt(Reader::usize)?;
        r.lit(",\"jobs\":")?;
        let jobs = r.opt(|r| read_jobs(r, text.len() / SHORTEST_JOB))?;
        r.lit(",\"target\":")?;
        let target = r.opt(Reader::uint)?;
        r.lit("}")?;
        r.end()?;
        Some(RequestMsg { id, verb: verb.to_owned(), tenant, jobs, target })
    }
}

impl Layout for ResponseMsg {
    fn write(&self, w: &mut Writer) {
        w.0.reserve(128 + self.kind.len() + self.error.as_ref().map_or(0, String::len));
        w.lit("{\"id\":");
        w.uint(self.id);
        w.lit(",\"kind\":");
        w.str(&self.kind);
        w.lit(",\"retry_after_sec\":");
        w.opt(self.retry_after_sec, Writer::f64);
        w.lit(",\"jobs\":");
        w.opt(self.jobs, |w, jobs| w.uint(jobs as u64));
        w.lit(",\"timed_out\":");
        w.opt(self.timed_out, |w, timed_out| w.lit(if timed_out { "true" } else { "false" }));
        // The counters ride on a `stats` or `drained` answer only.
        w.lit(",\"stats\":");
        w.opt(self.stats.as_ref(), |w, stats| {
            w.lit(&serde_json::to_string(stats).expect("protocol messages always serialize"));
        });
        w.lit(",\"error\":");
        w.opt(self.error.as_deref(), Writer::str);
        w.lit("}");
    }

    /// The answers a submit waits for; a `busy` hint and the counters of
    /// `stats` and `drained` are left to the generic path.
    fn read(text: &str) -> Option<Self> {
        let mut r = Reader::new(text);
        r.lit("{\"id\":")?;
        let id = r.uint()?;
        r.lit(",\"kind\":")?;
        let kind = r.str()?;
        r.lit(",\"retry_after_sec\":null,\"jobs\":")?;
        let jobs = r.opt(Reader::usize)?;
        r.lit(",\"timed_out\":")?;
        let timed_out = r.opt(Reader::bool)?;
        r.lit(",\"stats\":null,\"error\":")?;
        let error = r.opt(Reader::str)?;
        r.lit("}")?;
        r.end()?;
        Some(ResponseMsg {
            id,
            kind: kind.to_owned(),
            retry_after_sec: None,
            jobs,
            timed_out,
            stats: None,
            error: error.map(str::to_owned),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde_json::Value;
    use std::fmt::Debug;

    /// What the serde path alone makes of a payload: the oracle of every
    /// hand-written reader.
    fn serde_decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
        utf8(payload).and_then(generic)
    }

    /// Model names down every escape path: quotes, backslashes, JSON's own
    /// punctuation, control and non-ASCII characters, nothing at all.
    const MODELS: [&str; 6] =
        ["mlp", "quo\"te\\d", "br[ack]{et},s:", "ünï\u{7}code\n", "\u{1f600}\t\u{0}\u{1f}\r/", ""];

    fn fc_job(id: usize, model: &str, out_features: usize, in_features: usize) -> Job {
        Job::new(
            JobId(id),
            model,
            0,
            LayerShape::FullyConnected { out_features, in_features },
            4,
            TaskType::Recommendation,
        )
    }

    #[test]
    fn requests_round_trip_with_job_payloads() {
        let req = RequestMsg::submit(7, 1, vec![fc_job(0, "mlp", 128, 64)]);
        let back: RequestMsg = decode(&encode(&req)).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.verb, VERB_SUBMIT);
        assert_eq!(back.tenant, Some(1));
        assert_eq!(back.jobs.as_ref().map(Vec::len), Some(1));

        let resp = ResponseMsg { retry_after_sec: Some(0.25), ..ResponseMsg::new(7, KIND_BUSY) };
        let back: ResponseMsg = decode(&encode(&resp)).unwrap();
        assert_eq!(back.kind, KIND_BUSY);
        assert_eq!(back.retry_after_sec, Some(0.25));
    }

    #[test]
    fn malformed_payloads_decode_to_errors_not_panics() {
        assert!(decode::<RequestMsg>(b"not json").is_err());
        assert!(decode::<RequestMsg>(&[0xff, 0xfe]).is_err());
        assert!(decode::<RequestMsg>(b"{\"id\":1}").is_err(), "missing verb");
    }

    #[test]
    fn a_model_name_sent_escaped_decodes_to_the_job_the_raw_name_decodes_to() {
        // Every character as `\u` escapes of its UTF-16 code units, the way
        // Python's `json.dumps` writes non-ASCII text: the emoji is a
        // surrogate pair.
        let name = "mlp-\u{e9}-\u{1f600}";
        let frame =
            String::from_utf8(encode(&RequestMsg::submit(1, 0, vec![fc_job(0, name, 8, 8)])))
                .unwrap();
        let escaped: String = name.encode_utf16().map(|unit| format!("\\u{unit:04x}")).collect();
        let sent = frame.replacen(name, &escaped, 1);
        assert!(sent.is_ascii(), "{sent}");
        let jobs = |text: &str| decode::<RequestMsg>(text.as_bytes()).unwrap().jobs.unwrap();
        assert_eq!(jobs(&sent), jobs(&frame));
        assert_eq!(jobs(&sent)[0].model(), name);
    }

    #[test]
    fn no_job_is_written_shorter_than_the_capacity_bound() {
        let shortest = (0..4)
            .map(|row| {
                let layer = layer_from(row, [1; 7]).unwrap();
                let mut w = Writer(Vec::new());
                w.job(&Job::new(JobId(0), "", 0, layer, 1, TaskType::Mix));
                w.0.len()
            })
            .min();
        assert_eq!(shortest, Some(SHORTEST_JOB));
    }

    /// A number of any magnitude, at most `max`.
    fn magnitude(rng: &mut StdRng, max: u64) -> u64 {
        let bits = rng.gen_range(0..64);
        (rng.gen::<u64>() >> bits).min(max)
    }

    /// A layer of one of the first `variants` rows of [`LAYERS`]: small
    /// dimensions mostly, any `usize` now and then.
    fn random_layer(rng: &mut StdRng, variants: usize) -> LayerShape {
        let row = rng.gen_range(0..variants);
        let dims = std::array::from_fn(|_| {
            if rng.gen_bool(0.9) {
                rng.gen_range(0..300)
            } else {
                magnitude(rng, u64::MAX) as usize
            }
        });
        layer_from(row, dims).unwrap()
    }

    /// What a generated message may hold: anything, or only what the
    /// hand-written readers take (no escapes, numbers up to `i64::MAX`).
    #[derive(Clone, Copy)]
    enum Content {
        Any,
        Plain,
    }

    impl Content {
        fn max(self) -> u64 {
            match self {
                Content::Any => u64::MAX,
                Content::Plain => i64::MAX as u64,
            }
        }

        fn number(self, rng: &mut StdRng) -> u64 {
            magnitude(rng, self.max())
        }

        fn name(self, rng: &mut StdRng) -> String {
            let names: &[&str] = match self {
                Content::Any => &MODELS,
                Content::Plain => &["ResNet50", "bert-base_v1.1 (x2)", ""],
            };
            names[rng.gen_range(0..names.len())].to_string()
        }
    }

    fn random_job(rng: &mut StdRng, content: Content) -> Job {
        loop {
            let layer = random_layer(rng, 4);
            let fits = layer_dims(&layer).1.iter().all(|&d| d as u64 <= content.max());
            let batch = if rng.gen_bool(0.9) { rng.gen_range(0..64) } else { rng.gen() };
            let job = Job::try_new(
                JobId(content.number(rng) as usize),
                content.name(rng),
                content.number(rng) as usize,
                layer,
                batch,
                TaskType::ALL[rng.gen_range(0..4)],
            );
            match job {
                Ok(job) if fits && batch as u64 <= content.max() => return job,
                _ => continue,
            }
        }
    }

    fn random_request(rng: &mut StdRng, max_jobs: usize, content: Content) -> RequestMsg {
        let verbs: &[&str] = match content {
            Content::Any => &[VERB_SUBMIT, VERB_CANCEL, VERB_DRAIN, VERB_STATS, "", "\"]}"],
            Content::Plain => &[VERB_SUBMIT, VERB_CANCEL, VERB_DRAIN, VERB_STATS],
        };
        let jobs = (0..rng.gen_range(0..=max_jobs)).map(|_| random_job(rng, content)).collect();
        RequestMsg {
            id: content.number(rng),
            verb: verbs[rng.gen_range(0..verbs.len())].to_string(),
            tenant: rng.gen_bool(0.8).then(|| content.number(rng) as usize),
            jobs: rng.gen_bool(0.8).then_some(jobs),
            target: rng.gen_bool(0.3).then(|| content.number(rng)),
        }
    }

    /// Any kind with any members, so every answer the daemon gives is one;
    /// plain, without a `busy` hint or counters.
    fn random_response(rng: &mut StdRng, content: Content) -> ResponseMsg {
        let kinds = [
            KIND_ACCEPTED,
            KIND_BUSY,
            KIND_DONE,
            KIND_CANCELLED,
            KIND_DRAINED,
            KIND_STATS,
            KIND_ERROR,
            "\u{1}\"",
        ];
        let any = matches!(content, Content::Any);
        let kinds = if any { &kinds[..] } else { &kinds[..kinds.len() - 1] };
        // Finite, subnormal, huge, signed zero and non-finite hints.
        let retries = [
            0.25,
            1e-3,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            1e300,
            f64::MAX,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(rng.gen()),
        ];
        let mut counter = || magnitude(rng, u64::MAX);
        let stats = EngineStats {
            accepted: counter(),
            rejected: counter(),
            completed_jobs: counter(),
            queued_jobs: counter(),
            cache_near_hits: counter(),
            ..EngineStats::default()
        };
        ResponseMsg {
            id: content.number(rng),
            kind: kinds[rng.gen_range(0..kinds.len())].to_string(),
            retry_after_sec: (any && rng.gen_bool(0.5))
                .then(|| retries[rng.gen_range(0..retries.len())]),
            jobs: rng.gen_bool(0.5).then(|| content.number(rng) as usize),
            timed_out: rng.gen_bool(0.5).then(|| rng.gen_bool(0.5)),
            stats: (any && rng.gen_bool(0.3)).then_some(stats),
            error: rng.gen_bool(0.3).then(|| content.name(rng)),
        }
    }

    /// `c` as `\u` escapes of its UTF-16 code units.
    fn escaped(c: char) -> String {
        c.encode_utf16(&mut [0; 2]).iter().map(|unit| format!("\\u{unit:04x}")).collect()
    }

    /// Replaces the value of the first `"key":` member, up to the next `,`,
    /// `}` or `]`, with `value`.
    fn set(frame: &str, key: &str, value: &str) -> String {
        let member = format!("\"{key}\":");
        let Some(at) = frame.find(&member).map(|at| at + member.len()) else {
            return frame.to_string();
        };
        let end = frame[at..].find([',', '}', ']']).map_or(frame.len(), |len| at + len);
        format!("{}{value}{}", &frame[..at], &frame[end..])
    }

    /// Applies `bend` to the `k`-th object of the tree, in pre-order.
    fn nth_object(
        v: &mut Value,
        k: &mut usize,
        bend: &mut impl FnMut(&mut Vec<(String, Value)>),
    ) -> bool {
        if let Value::Map(members) = v {
            if *k == 0 {
                bend(members);
                return true;
            }
            *k -= 1;
        }
        match v {
            Value::Map(members) => members.iter_mut().any(|(_, v)| nth_object(v, k, bend)),
            Value::Seq(items) => items.iter_mut().any(|v| nth_object(v, k, bend)),
            _ => false,
        }
    }

    /// A frame a client library might send instead of the canonical one, or
    /// one no client should send: the readers must leave each to serde.
    fn bend(frame: &str, rng: &mut StdRng) -> Vec<u8> {
        const KEYS: [&str; 14] = [
            "id",
            "verb",
            "tenant",
            "jobs",
            "target",
            "model",
            "layer_index",
            "batch",
            "task",
            "k",
            "in_features",
            "kind",
            "retry_after_sec",
            "timed_out",
        ];
        let key = KEYS[rng.gen_range(0..KEYS.len())];
        match rng.gen_range(0..14) {
            // A job the constructor refuses, jobs of the wrong type,
            // whitespace and a repeated member.
            0 => set(frame, "batch", "0").into_bytes(),
            1 => frame.replacen("\"jobs\":[", "\"jobs\":[7,", 1).into_bytes(),
            2 => frame.replacen("\"jobs\":", "\"id\" : 3 ,\n\"jobs\" :\t", 1).into_bytes(),
            // Whitespace after any punctuation, or before the whole frame.
            3 => {
                let spots: Vec<usize> =
                    frame.match_indices([',', ':', '{', '[']).map(|(at, _)| at + 1).collect();
                let at = spots.get(rng.gen_range(0..=spots.len())).copied().unwrap_or(0);
                let space = [" ", "\t", "\n", "\r"][rng.gen_range(0..4)];
                format!("{}{space}{}", &frame[..at], &frame[at..]).into_bytes()
            }
            // A member name or a string value whose first character is escaped.
            4 => {
                let starts: Vec<usize> = frame
                    .match_indices(['"'])
                    .map(|(at, _)| at + 1)
                    .filter(|&at| frame[at..].starts_with(|c: char| c != '"' && c != '\\'))
                    .collect();
                let mut text = frame.to_string();
                if !starts.is_empty() {
                    let at = starts[rng.gen_range(0..starts.len())];
                    let c = frame[at..].chars().next().unwrap();
                    text.replace_range(at..at + c.len_utf8(), &escaped(c));
                }
                text.into_bytes()
            }
            // Another spelling of a number, or a number no `u64` holds.
            5 => {
                let spellings = [
                    "4e0",
                    "1E2",
                    "1.0",
                    "-0",
                    "-1",
                    "00",
                    "007",
                    "9223372036854775807",
                    "9223372036854775808",
                    "18446744073709551615",
                    "18446744073709551616",
                    "1e400",
                    "true",
                    "null",
                    "\"4\"",
                ];
                set(frame, key, spellings[rng.gen_range(0..spellings.len())]).into_bytes()
            }
            // A layer no job holds, a variant or task that does not exist.
            6 => {
                let from = frame.find("\"layer\":").map(|at| at + 8);
                let to = frame.find("}},\"batch\"").map(|at| at + 2);
                match (from, to) {
                    (Some(from), Some(to)) if from < to => format!(
                        "{}{{\"EmbeddingLookup\":{{\"lookups\":4,\"dim\":4}}}}{}",
                        &frame[..from],
                        &frame[to..]
                    )
                    .into_bytes(),
                    _ => frame.as_bytes().to_vec(),
                }
            }
            7 => match rng.gen_range(0..2) {
                0 => set(frame, "task", "\"Vishun\"").into_bytes(),
                _ => frame.replacen("\"layer\":{\"", "\"layer\":{\"Conv3d", 1).into_bytes(),
            },
            // Members reordered, repeated, unknown or missing, at any depth.
            8 => {
                let mut tree: Value = serde_json::from_str(frame).unwrap();
                let mut k = rng.gen_range(0..8);
                let (how, pick, value) = (rng.gen_range(0..4), rng.gen::<usize>(), rng.gen::<u8>());
                nth_object(&mut tree, &mut k, &mut |members| {
                    if members.is_empty() {
                        return;
                    }
                    let i = pick % members.len();
                    match how {
                        0 => members.rotate_left(1 + i),
                        1 => {
                            let twin = (members[i].0.clone(), Value::I64(value.into()));
                            members.insert(pick % 2 * members.len(), twin);
                        }
                        2 => members.insert(
                            i,
                            ("x".into(), Value::Map(vec![("id".into(), Value::I64(9))])),
                        ),
                        _ => drop(members.remove(i)),
                    }
                });
                serde_json::to_string(&tree).unwrap().into_bytes()
            }
            // A byte replaced, JSON punctuation likelier than not.
            9 => {
                let mut bytes = frame.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let at = rng.gen_range(0..bytes.len());
                    const LIKELY: &[u8] = b"{}[]\":,0123456789-.eE \\nultrfas";
                    bytes[at] = if rng.gen_bool(0.7) {
                        LIKELY[rng.gen_range(0..LIKELY.len())]
                    } else {
                        rng.gen()
                    };
                }
                bytes
            }
            // Arbitrary bytes.
            10 => (0..rng.gen_range(0..48)).map(|_| rng.gen()).collect(),
            // Something after the frame.
            11 => {
                format!("{frame}{}", ["x", "}", ",", "0", "\n"][rng.gen_range(0..5)]).into_bytes()
            }
            _ => frame.as_bytes().to_vec(),
        }
    }

    /// Both hand-written decoders return for `payload` exactly what the
    /// serde path returns: the same value — `Debug` tells `-0.0` from `0.0`
    /// — or the same error.
    fn decoders_agree_with_serde(payload: &[u8]) -> Result<(), TestCaseError> {
        fn agree(fast: impl Debug, slow: impl Debug, input: &str) -> Result<(), TestCaseError> {
            let (fast, slow) = (format!("{fast:?}"), format!("{slow:?}"));
            prop_assert!(fast == slow, "read {fast}, serde {slow}, from {input}");
            Ok(())
        }
        let text = String::from_utf8_lossy(payload);
        agree(decode::<RequestMsg>(payload), serde_decode::<RequestMsg>(payload), &text)?;
        agree(decode::<ResponseMsg>(payload), serde_decode::<ResponseMsg>(payload), &text)
    }

    proptest! {
        #[test]
        fn encode_writes_what_serde_writes(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let request = random_request(&mut rng, 8, Content::Any);
            let written = String::from_utf8(encode(&request)).unwrap();
            prop_assert_eq!(written, serde_json::to_string(&request).unwrap());
            let response = random_response(&mut rng, Content::Any);
            let written = String::from_utf8(encode(&response)).unwrap();
            prop_assert_eq!(written, serde_json::to_string(&response).unwrap());

            // Every layer variant, also the host-side one no job holds, is
            // written as the derive writes it and read back.
            let layer = random_layer(&mut rng, LAYERS.len());
            let mut w = Writer(Vec::new());
            w.layer(&layer);
            let written = String::from_utf8(w.0).unwrap();
            prop_assert_eq!(&written, &serde_json::to_string(&layer).unwrap());
            let fits = layer_dims(&layer).1.iter().all(|&d| d as u64 <= i64::MAX as u64);
            prop_assert_eq!(read_layer(&mut Reader::new(&written)), fits.then_some(layer));
        }

        #[test]
        fn the_readers_take_every_plain_frame_the_writer_writes(seed in 0u64..u64::MAX) {
            // Without escapes and numbers above `i64::MAX`, a frame never
            // reaches the generic path: the hot path is the one tested.
            let mut rng = StdRng::seed_from_u64(seed);
            let request = random_request(&mut rng, 8, Content::Plain);
            let written = String::from_utf8(encode(&request)).unwrap();
            prop_assert_eq!(RequestMsg::read(&written), Some(request));
            let response = random_response(&mut rng, Content::Plain);
            let written = String::from_utf8(encode(&response)).unwrap();
            prop_assert_eq!(ResponseMsg::read(&written), Some(response));
        }

        #[test]
        fn every_decoder_returns_what_serde_returns(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let content = if rng.gen_bool(0.5) { Content::Any } else { Content::Plain };
            let request = encode(&random_request(&mut rng, 6, content));
            let response = encode(&random_response(&mut rng, content));
            for frame in [request, response] {
                let payload = bend(&String::from_utf8(frame).unwrap(), &mut rng);
                decoders_agree_with_serde(&payload)?;
            }
        }

        #[test]
        fn every_cut_of_a_frame_is_decoded_as_serde_decodes_it(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let content = if rng.gen_bool(0.5) { Content::Any } else { Content::Plain };
            let request = encode(&random_request(&mut rng, 3, content));
            let response = encode(&random_response(&mut rng, content));
            for frame in [request, response] {
                let payload = bend(&String::from_utf8(frame).unwrap(), &mut rng);
                // Also inside a character, and the whole frame.
                for cut in 0..=payload.len() {
                    decoders_agree_with_serde(&payload[..cut])?;
                }
            }
        }
    }
}
