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
//! Clients speak [`RequestMsg`]; the daemon reads the same bytes as an
//! [`Envelope`], whose `jobs` stay text until a submit is admitted.

use magma_model::Job;
use magma_serve::EngineStats;
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// A [`RequestMsg`] as the daemon reads it: everything an admission verdict
/// needs, with the jobs checked to be well-formed JSON and left undecoded. A
/// submit the daemon is too busy for costs it a scan of the frame, not thirty
/// [`Job`]s built to be thrown away; [`decode_jobs`] builds them once the
/// submit is admitted. The jobs of a request that never gets that far — a
/// bounced submit, one without a tenant, any other verb — are never looked
/// at beyond their grammar.
///
/// `Deserialize` is derived for [`Envelope::decode`], which has the parser
/// read `jobs` as `null`; `decode::<Envelope>` is not a way to get one.
#[derive(Debug, Clone, Deserialize)]
pub struct Envelope {
    /// See [`RequestMsg::id`].
    pub id: u64,
    /// See [`RequestMsg::verb`].
    pub verb: String,
    /// See [`RequestMsg::tenant`].
    pub tenant: Option<usize>,
    /// The text of [`RequestMsg::jobs`].
    pub jobs: Option<String>,
    /// See [`RequestMsg::target`].
    pub target: Option<u64>,
}

impl Envelope {
    /// Decodes a frame payload. Fails on exactly the payloads
    /// [`decode::<RequestMsg>`](decode) fails on, short of those whose `jobs`
    /// are well-formed JSON that is not a list of valid jobs — those fail in
    /// [`decode_jobs`].
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let (env, jobs): (Envelope, _) =
            serde_json::from_str_raw_member(utf8(payload)?, "jobs").map_err(malformed)?;
        Ok(Envelope { jobs: jobs.filter(|&raw| raw != "null").map(str::to_owned), ..env })
    }
}

/// Decodes the jobs of an [`Envelope`], through [`Job`]'s checked constructor.
pub fn decode_jobs(raw: &str) -> Result<Vec<Job>, String> {
    serde_json::from_str(raw).map_err(|e| format!("malformed message: field jobs: {e}"))
}

/// One server → client message.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Encodes a message as a compact-JSON frame payload.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg).expect("protocol messages always serialize").into_bytes()
}

/// Decodes a frame payload; the error string names the parse failure.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    serde_json::from_str(utf8(payload)?).map_err(malformed)
}

fn utf8(payload: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))
}

fn malformed(e: serde_json::Error) -> String {
    format!("malformed message: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_model::{JobId, LayerShape, TaskType};
    use proptest::prelude::*;

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
        assert!(Envelope::decode(b"not json").is_err());
        assert!(Envelope::decode(&[0xff, 0xfe]).is_err());
        assert!(Envelope::decode(b"{\"id\":1}").is_err(), "missing verb");
    }

    #[test]
    fn an_envelope_reads_members_the_way_the_whole_message_is_read() {
        // The first of two members counts, unknown ones are ignored, and the
        // jobs may stand anywhere — also between two `id`s.
        let text = br#" {"id":1, "jobs":[], "x":{"id":9}, "id":2, "verb":"stats", "verb":7} "#;
        let (env, msg) = (Envelope::decode(text).unwrap(), decode::<RequestMsg>(text).unwrap());
        assert_eq!((env.id, env.verb.as_str()), (1, "stats"));
        assert_eq!((msg.id, msg.verb.as_str()), (1, "stats"));
        assert_eq!(decode_jobs(&env.jobs.unwrap()), Ok(vec![]));
        // Jobs that are JSON but not jobs pass the envelope and fail later.
        let text = br#"{"id":1,"verb":"submit_group","tenant":0,"jobs":{"a":[1,2]}}"#;
        assert!(decode::<RequestMsg>(text).is_err());
        assert!(decode_jobs(&Envelope::decode(text).unwrap().jobs.unwrap()).is_err());
        // Jobs that are not JSON do not.
        let text = br#"{"id":1,"verb":"submit_group","tenant":0,"jobs":[{"a":[1,2}]}"#;
        assert!(Envelope::decode(text).is_err());
    }

    /// The request a generated case describes, and how to bend its frame.
    fn generated(
        (id, verb, fields): (u64, usize, usize),
        jobs: &[(usize, usize, usize)],
    ) -> RequestMsg {
        const MODELS: [&str; 4] = ["mlp", "quo\"te\\d", "br[ack]{et},s:", "ünï\u{7}code\n"];
        let verbs = [VERB_SUBMIT, VERB_CANCEL, VERB_DRAIN, VERB_STATS, "", "\"]}"];
        let jobs = jobs
            .iter()
            .enumerate()
            .map(|(i, &(out, inp, model))| fc_job(i, MODELS[model], out, inp))
            .collect();
        RequestMsg {
            id,
            verb: verbs[verb].to_string(),
            tenant: (fields & 1 != 0).then_some(fields),
            jobs: (fields & 2 != 0).then_some(jobs),
            target: (fields & 4 != 0).then_some(id / 2),
        }
    }

    proptest! {
        #[test]
        fn an_envelope_and_its_jobs_decode_to_what_the_whole_message_decodes_to(
            head in (0u64..u64::MAX, 0usize..6, 0usize..8),
            jobs in proptest::collection::vec((1usize..4096, 1usize..4096, 0usize..4), 0..6),
            bend in 0usize..4,
        ) {
            let frame = String::from_utf8(encode(&generated(head, &jobs))).unwrap();
            // Three in four frames are bent into something a client library
            // would not send: a job the constructor refuses, jobs of the wrong
            // type, whitespace and a repeated member.
            let frame = match bend {
                1 => frame.replace("\"batch\":4", "\"batch\":0"),
                2 => frame.replace("\"jobs\":[", "\"jobs\":[7,"),
                3 => frame.replace("\"jobs\":", "\"id\" : 3 ,\n\"jobs\" :\t"),
                _ => frame,
            };
            let payload = frame.as_bytes();

            let whole = decode::<RequestMsg>(payload);
            let lazy = Envelope::decode(payload).and_then(|env| {
                let jobs = env.jobs.as_deref().map(decode_jobs).transpose()?;
                Ok(RequestMsg { id: env.id, verb: env.verb, tenant: env.tenant, jobs, target: env.target })
            });
            prop_assert_eq!(whole.as_ref().map(encode).ok(), lazy.as_ref().map(encode).ok());
            prop_assert!(whole.is_ok() || bend == 1 || bend == 2, "{frame}");

            // Cut anywhere, also inside a character, the frame is an error.
            for cut in 0..payload.len() {
                prop_assert!(Envelope::decode(&payload[..cut]).is_err(), "cut at {cut}: {frame}");
                prop_assert!(decode::<RequestMsg>(&payload[..cut]).is_err());
            }
        }
    }
}
