//! Route dispatch plus per-request instrumentation.

use crate::handlers::{self, AppState, BadRequest};
use crate::http::{Request, Response};
use crate::metrics::Endpoint;
use std::time::Instant;

/// Resolves a request to its endpoint label (for metrics) independent
/// of whether the method matches. Query strings and fragments are
/// stripped first, and every unrecognised path folds into the single
/// [`Endpoint::Other`] bucket, so hostile path scans cannot grow the
/// label space beyond [`Endpoint::ALL`].
fn endpoint_of(path: &str) -> Endpoint {
    let path = path.split(['?', '#']).next().unwrap_or(path);
    if path.starts_with("/v1/fleet/entries/") {
        return Endpoint::FleetEntries;
    }
    let named = Endpoint::ALL.into_iter().find(|e| e.label() == path);
    named.unwrap_or(Endpoint::Other)
}

/// Whether a request must be parked on the worker pool instead of
/// running inline on an event-loop shard. True for the handlers that
/// may run Monte-Carlo transport; the bulk fleet endpoints only until
/// their risk surface is memoised — after that they are pure table
/// lookups (or cache hits) and are cheaper than a queue round-trip.
pub fn wants_worker(state: &AppState, request: &Request) -> bool {
    match endpoint_of(&request.path) {
        Endpoint::Fit | Endpoint::CrossSections | Endpoint::Transport => true,
        // Scenario campaigns simulate hundreds of virtual hours (and may
        // run Monte-Carlo moderation boosts) — never inline on a shard.
        Endpoint::ScenarioRun => true,
        // Which risk surface the request reads; the fleet body's decode is
        // kept for the handler. Malformed requests take the cheap error
        // path inline.
        Endpoint::FleetStream => handlers::stream_params(state.seed, &request.path)
            .is_ok_and(|(seed, quick)| !state.surface_ready(seed, quick)),
        Endpoint::Fleet => (request.fleet().ok())
            .and_then(|fleet| fleet.surface(state.seed).ok())
            .is_some_and(|(seed, quick)| !state.surface_ready(seed, quick)),
        _ => false,
    }
}

/// Dispatches one request and records count, latency and size for it.
/// A handler's `BadRequest`, and the router's own 404 and 405, become
/// the JSON error response here and nowhere else.
///
/// Each request gets a fresh id, attached both to the `x-request-id`
/// response header and to the request-scoped trace event, so a JSONL
/// trace line can be correlated with the response a client saw.
pub fn handle(state: &AppState, request: &Request) -> Response {
    state.metrics.enter();
    let request_id = state.next_request_id();
    let started = Instant::now();
    let endpoint = endpoint_of(&request.path);
    let response = dispatch(state, request, endpoint).unwrap_or_else(|bad| bad.response());
    let elapsed = started.elapsed();
    let elapsed_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
    state.metrics.record_request(
        endpoint,
        response.status,
        elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
        response.body_len() as u64,
    );
    state.metrics.leave();
    // The event's string fields are owned copies; build them only when
    // the event is kept.
    if tn_obs::enabled(tn_obs::Level::Info) {
        tn_obs::info(
            "request",
            &[
                ("id", request_id.as_str().into()),
                ("method", request.method.as_str().into()),
                ("path", request.path.as_str().into()),
                ("endpoint", endpoint.label().into()),
                ("status", u64::from(response.status).into()),
                ("latency_us", elapsed_us.into()),
                ("bytes", (response.body_len() as u64).into()),
            ],
        );
    }
    response.with_header("x-request-id", request_id)
}

fn dispatch(
    state: &AppState,
    request: &Request,
    endpoint: Endpoint,
) -> Result<Response, BadRequest> {
    use Endpoint as E;
    let path = request.path.as_str();
    match (endpoint, request.method.as_str()) {
        (E::Healthz, "GET") => Ok(handlers::healthz()),
        (E::Devices, "GET") => Ok(handlers::devices(state)),
        (E::Metrics, "GET") => Ok(handlers::metrics(state)),
        (E::Scenarios, "GET") => Ok(handlers::scenarios(state)),
        (E::FleetStream, "GET") => handlers::fleet_stream(state, path),
        (E::Timeline, "GET") => handlers::timeline(state, path),
        (E::TimelineStream, "GET") => handlers::timeline_stream(state, path),
        (E::Fit, "POST") => handlers::fit(state, request),
        (E::Checkpoint, "POST") => handlers::checkpoint(state, request),
        (E::CrossSections, "POST") => handlers::cross_sections(state, request),
        (E::Transport, "POST") => handlers::transport(state, request),
        (E::Fleet, "POST") => handlers::fleet(state, request),
        (E::TimelineIngest, "POST") => handlers::timeline_ingest(state, request),
        (E::ScenarioRun, "POST") => handlers::scenario_run(state, request),
        (E::FleetEntries, method @ ("POST" | "DELETE")) => {
            let path = path.split(['?', '#']).next().unwrap_or("");
            match (method, path.strip_prefix("/v1/fleet/entries/")) {
                ("POST", None) => handlers::fleet_entry_upsert(state, request),
                ("POST", Some(_)) => Err(BadRequest::new(
                    400,
                    "POST /v1/fleet/entries takes the id in the body",
                )),
                (_, Some(id)) if !id.is_empty() => handlers::fleet_entry_delete(state, id),
                _ => Err(BadRequest::new(400, "DELETE needs /v1/fleet/entries/{id}")),
            }
        }
        (E::Other, _) => Err(BadRequest::new(404, format!("no route for `{path}`"))),
        (E::FleetEntries, _) => Err(method_not_allowed("POST, DELETE")),
        (
            E::Fit
            | E::Checkpoint
            | E::CrossSections
            | E::Transport
            | E::Fleet
            | E::TimelineIngest
            | E::ScenarioRun,
            _,
        ) => Err(method_not_allowed("POST")),
        _ => Err(method_not_allowed("GET")),
    }
}

fn method_not_allowed(allowed: &str) -> BadRequest {
    BadRequest::new(405, format!("method not allowed (use {allowed})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &[u8]) -> Request {
        Request::new(method, path, body.to_vec(), true)
    }

    #[test]
    fn routes_resolve_to_their_endpoints() {
        assert_eq!(endpoint_of("/healthz"), Endpoint::Healthz);
        assert_eq!(endpoint_of("/v1/fit"), Endpoint::Fit);
        assert_eq!(endpoint_of("/v1/fleet"), Endpoint::Fleet);
        assert_eq!(endpoint_of("/v1/fleet/stream"), Endpoint::FleetStream);
        assert_eq!(
            endpoint_of("/v1/fleet/stream?seed=3"),
            Endpoint::FleetStream
        );
        assert_eq!(endpoint_of("/v1/timeline"), Endpoint::Timeline);
        assert_eq!(endpoint_of("/v1/timeline?limit=8"), Endpoint::Timeline);
        assert_eq!(endpoint_of("/v1/timeline/stream"), Endpoint::TimelineStream);
        assert_eq!(endpoint_of("/v1/timeline/ingest"), Endpoint::TimelineIngest);
        assert_eq!(endpoint_of("/v1/scenarios"), Endpoint::Scenarios);
        assert_eq!(endpoint_of("/v1/scenario/run"), Endpoint::ScenarioRun);
        assert_eq!(endpoint_of("/nope"), Endpoint::Other);
        assert_eq!(endpoint_of("/healthz?probe=1"), Endpoint::Healthz);
        assert_eq!(endpoint_of("/metrics#frag"), Endpoint::Metrics);
        assert_eq!(endpoint_of("/v1/fit/../../etc"), Endpoint::Other);
    }

    #[test]
    fn responses_carry_a_request_id() {
        let state = AppState::new(1, 8, 1);
        let a = handle(&state, &req("GET", "/healthz", b""));
        let b = handle(&state, &req("GET", "/healthz", b""));
        let id_of = |r: &Response| {
            r.extra_headers
                .iter()
                .find(|(k, _)| k == "x-request-id")
                .map(|(_, v)| v.clone())
                .expect("x-request-id header present")
        };
        let (ia, ib) = (id_of(&a), id_of(&b));
        assert_eq!(ia.len(), 16, "{ia}");
        assert!(ia.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(ia, ib, "ids are unique per request");
    }

    #[test]
    fn unknown_route_is_404_and_wrong_method_is_405() {
        let state = AppState::new(1, 8, 1);
        assert_eq!(handle(&state, &req("GET", "/nope", b"")).status, 404);
        assert_eq!(handle(&state, &req("POST", "/healthz", b"")).status, 405);
        assert_eq!(handle(&state, &req("GET", "/v1/fit", b"")).status, 405);
        let text = state.metrics.render();
        assert!(text.contains("endpoint=\"other\",status=\"404\"} 1"));
        assert!(text.contains("endpoint=\"/healthz\",status=\"405\"} 1"));
        assert!(text.contains("tn_inflight_requests 0"));
    }

    #[test]
    fn fleet_bodies_are_decoded_once_for_the_router_and_the_handler() {
        let body = br#"{"devices":[{"device":"NVIDIA K20","avf":0.5}],"seed":3}"#;
        let state = AppState::new(1, 8, 1);
        let inspected = req("POST", "/v1/fleet", body);
        assert!(!inspected.is_decoded());
        assert!(wants_worker(&state, &inspected), "no surface yet: offload");
        // The offload check kept the typed request, and the handler reads
        // that same decode, wherever the request moved.
        let decoded: *const _ = inspected.fleet().expect("a valid fleet body");
        assert_eq!(inspected.fleet().unwrap().surface(1).unwrap(), (3, true));
        let moved = inspected.clone();
        assert!(
            moved.is_decoded(),
            "a request moves to a worker with its decode"
        );
        let shared = handle(&state, &inspected);
        assert!(
            std::ptr::eq(decoded, inspected.fleet().unwrap()),
            "decoded twice"
        );
        // A fresh request on a fresh state decodes on its own.
        let fresh = handle(&AppState::new(1, 8, 1), &req("POST", "/v1/fleet", body));
        assert_eq!(shared.status, 200, "{}", shared.body_text());
        assert_eq!(shared.content_type, fresh.content_type);
        assert_eq!(shared.body_text(), fresh.body_text());
        assert_eq!(handle(&state, &moved).body_text(), fresh.body_text());

        for bad in [
            &b"{oops"[..],
            b"\xff{}",
            br#"{"devices":"NVIDIA K20"}"#,
            br#"{"seed":-1}"#,
            b"",
        ] {
            let inspected = req("POST", "/v1/fleet", bad);
            wants_worker(&state, &inspected);
            assert!(inspected.is_decoded());
            let shared = handle(&state, &inspected);
            let fresh = handle(&state, &req("POST", "/v1/fleet", bad));
            assert_eq!(shared.status, 400, "{}", shared.body_text());
            assert_eq!(shared.status, fresh.status);
            assert_eq!(shared.body_text(), fresh.body_text());
        }
    }

    #[test]
    fn healthz_routes() {
        let state = AppState::new(1, 8, 1);
        let r = handle(&state, &req("GET", "/healthz", b""));
        assert_eq!(r.status, 200);
        assert!(state
            .metrics
            .render()
            .contains("tn_request_seconds_count{endpoint=\"/healthz\"} 1"));
    }
}
