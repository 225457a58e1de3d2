// Package client is the typed Go client of the /v1 HTTP surface — and
// the single encoding of its wire contract. Every JSON shape the server
// speaks (requests, responses, the error envelope, SSE event payloads)
// is defined here once; the server aliases these types instead of
// declaring its own, and cmd/trquery plus the server tests drive the API
// through Client instead of ad-hoc JSON helpers. The package deliberately
// imports nothing from the rest of the repository, so any tool can take
// the contract without pulling in engines.
package client

// Error codes carried by the /v1 error envelope.
const (
	CodeBadRequest       = "bad_request"
	CodeUnknownTopic     = "unknown_topic"
	CodeUnknownMethod    = "unknown_method"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeOverloaded       = "overloaded"
	CodeDeadline         = "deadline_exceeded"
	CodeInternal         = "internal"
	CodeReadOnly         = "read_only"
)

// ErrorBody is the uniform error envelope of the /v1 API: every non-2xx
// JSON response is {"error": {"code": ..., "message": ...}}.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the wire form wrapping an ErrorBody.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// HealthResponse is the GET /v1/health payload.
type HealthResponse struct {
	Status string `json:"status"`
}

// TopicsResponse is the GET /v1/topics payload.
type TopicsResponse struct {
	Topics []string `json:"topics"`
}

// RecommendRequest is the decoded form of one recommendation query — the
// query parameters of GET /v1/recommend, one item of POST
// /v1/recommend:batch, and the body of POST /v1/subscribe.
type RecommendRequest struct {
	User  int    `json:"user"`
	Topic string `json:"topic"`
	// N defaults to 10 when omitted.
	N int `json:"n,omitempty"`
	// Method defaults to "landmark" when omitted.
	Method string `json:"method,omitempty"`
}

// Recommendation is one entry of a recommendation response.
type Recommendation struct {
	User    uint32   `json:"user"`
	Score   float64  `json:"score"`
	Topics  []string `json:"topics"`
	Follows int      `json:"followers"`
}

// RecommendResponse is the /v1/recommend payload.
type RecommendResponse struct {
	Method string `json:"method"`
	Topic  string `json:"topic"`
	TookUS int64  `json:"took_us"`
	// Degraded marks an exact-Tr query answered by the landmark
	// approximation because the deadline or the admission pool could not
	// fit an exact exploration.
	Degraded bool `json:"degraded,omitempty"`
	// Cache reports how the result was obtained: "hit", "miss" or
	// "coalesced" (joined an identical in-flight computation).
	Cache   string           `json:"cache,omitempty"`
	Results []Recommendation `json:"results"`
}

// BatchResult is one element of the /v1/recommend:batch response; items
// fail independently, carrying either a response or an error envelope.
type BatchResult struct {
	Response *RecommendResponse `json:"response,omitempty"`
	Error    *ErrorBody         `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/recommend:batch payload.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// UpdateRequest is the /v1/update payload: a batch of follow/unfollow
// changes.
type UpdateRequest struct {
	Updates []UpdateItem `json:"updates"`
}

// UpdateItem is one change. At optionally carries the event's Unix
// nanosecond timestamp for the time-decayed ingestion path; 0 lets the
// manager stamp arrival time.
type UpdateItem struct {
	Src    uint32   `json:"src"`
	Dst    uint32   `json:"dst"`
	Topics []string `json:"topics"`
	Remove bool     `json:"remove,omitempty"`
	At     int64    `json:"at,omitempty"`
}

// UpdateResponse is the POST /v1/update payload. Zero-valued fields are
// omitted on the wire: a synchronous apply (200) carries Applied,
// Refreshes, Stale and Epoch; a streaming-ingestion accept (202) carries
// Accepted, QueueDepth and QueueCap. Refreshes counts the whole-landmark
// refreshes this batch ran (its share of StatsResponse.Refreshes); Stale
// and Epoch are the state after it.
type UpdateResponse struct {
	Applied   int    `json:"applied,omitempty"`
	Refreshes int    `json:"refreshes,omitempty"`
	Stale     int    `json:"stale,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`

	Accepted   int `json:"accepted,omitempty"`
	QueueDepth int `json:"queue_depth,omitempty"`
	QueueCap   int `json:"queue_cap,omitempty"`
}

// StatsResponse summarizes the served dataset and maintenance state.
type StatsResponse struct {
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	AvgOutDegree float64 `json:"avg_out_degree"`
	AvgInDegree  float64 `json:"avg_in_degree"`
	MaxInDegree  int     `json:"max_in_degree"`
	Batches      int     `json:"update_batches"`
	// Refreshes counts whole-landmark refreshes (Eager, Threshold; 0
	// under Lazy), TopicRefreshes the lists a Lazy query refreshed.
	Refreshes      int `json:"landmark_refreshes"`
	TopicRefreshes int `json:"topic_refreshes"`
	Stale          int `json:"stale_landmarks"`
	// Epoch identifies the graph snapshot served right now; it advances
	// with every applied batch and every overlay compaction.
	Epoch        uint64 `json:"epoch"`
	OverlayDepth int    `json:"overlay_depth"`
	Compactions  int    `json:"compactions"`
	// Ingest reports the streaming pipeline's state (present only when
	// the server runs with WithIngest).
	Ingest *IngestStats `json:"ingest,omitempty"`
	// Subscriptions reports the standing-query hub's state (present only
	// when subscriptions are enabled).
	Subscriptions *SubscriptionStats `json:"subscriptions,omitempty"`
}

// IngestStats is the /v1/stats view of the streaming pipeline.
type IngestStats struct {
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Enqueued   uint64 `json:"enqueued"`
	Applied    uint64 `json:"applied"`
	Rejected   uint64 `json:"rejected"`
	Batches    uint64 `json:"batches"`
}

// SubscriptionStats is the /v1/stats view of the standing-query hub.
type SubscriptionStats struct {
	// Active is the number of live subscriptions; Max the configured
	// ceiling; Groups the distinct (user, topic, n, method) keys they
	// share; DirtyQueue the groups awaiting a re-score right now.
	Active     int `json:"active"`
	Max        int `json:"max"`
	Groups     int `json:"groups"`
	DirtyQueue int `json:"dirty_queue"`
	// Registered/Unsubscribed are lifetime totals.
	Registered   uint64 `json:"registered"`
	Unsubscribed uint64 `json:"unsubscribed"`
	// Rescores counts re-score executions; RescoreMarks the dirty marks
	// that triggered them; RescoresCoalesced the marks absorbed by an
	// already-queued group (the coalescing win); PushesSuppressed the
	// re-scores whose top-k did not change (no event pushed).
	Rescores          uint64 `json:"rescores"`
	RescoreMarks      uint64 `json:"rescore_marks"`
	RescoresCoalesced uint64 `json:"rescores_coalesced"`
	PushesSuppressed  uint64 `json:"pushes_suppressed"`
	RescoreFailures   uint64 `json:"rescore_failures"`
	// EventsPushed counts delta events appended to subscriber queues;
	// DroppedSlowConsumers the readers disconnected because their queue
	// lapsed mid-stream.
	EventsPushed         uint64 `json:"events_pushed"`
	DroppedSlowConsumers uint64 `json:"dropped_slow_consumers"`
}

// Subscription is the POST /v1/subscribe response: the registered
// standing query and its server-assigned id.
type Subscription struct {
	ID     string `json:"id"`
	User   int    `json:"user"`
	Topic  string `json:"topic"`
	N      int    `json:"n"`
	Method string `json:"method"`
}

// Entry is one (user, score) pair of a pushed top-k snapshot.
type Entry struct {
	User  uint32  `json:"user"`
	Score float64 `json:"score"`
}

// Event is one pushed delta of a standing query: the full current top-k
// (IDs in rank order) plus the set/rank diff against the previously
// pushed snapshot. Events are pushed only when the top-k membership or
// order changed; score-only drift is suppressed, so reconstructing state
// is simply "take the latest event's Top".
type Event struct {
	// Seq is the per-subscription sequence number (1-based, contiguous);
	// it is also the SSE event id, so Last-Event-ID resumes exactly.
	Seq uint64 `json:"seq"`
	// Epoch is the graph epoch of the batch that triggered the re-score
	// (the epoch of the freshest batch, when several coalesced).
	Epoch uint64 `json:"epoch"`
	// Reset marks a full snapshot that does not extend the previous one:
	// the first event of a subscription, and the resync event after a
	// consumer lapsed past its buffered window.
	Reset bool `json:"reset,omitempty"`
	// Degraded marks a re-score answered by the landmark approximation
	// because the exact engine was under pressure.
	Degraded bool `json:"degraded,omitempty"`
	// Top is the complete current top-k in rank order.
	Top []Entry `json:"top"`
	// Added/Removed are the users that entered/left the top-k versus the
	// last pushed snapshot; Moved are the users present in both whose
	// rank changed.
	Added   []uint32 `json:"added,omitempty"`
	Removed []uint32 `json:"removed,omitempty"`
	Moved   []uint32 `json:"moved,omitempty"`
	// TriggerUnixNs is the ingest-accept timestamp (Unix ns) of the
	// oldest batch folded into this re-score — the anchor of the
	// push-latency measurement. 0 when the trigger carried no timestamp
	// (e.g. the registration snapshot).
	TriggerUnixNs int64 `json:"trigger_unix_ns,omitempty"`
}

// EventsResponse is the long-poll (mode=poll) payload of
// GET /v1/subscribe/{id}/events.
type EventsResponse struct {
	Events []Event `json:"events"`
}
