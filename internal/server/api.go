// api.go binds the versioned /v1 JSON surface to its single wire
// contract, internal/client: the server encodes and decodes the client
// package's request/response types and error codes themselves, so it
// cannot drift from what the typed client (and its SSE reader) decodes.
// The decoded client.RecommendRequest shared by GET /v1/recommend, POST
// /v1/recommend:batch and POST /v1/subscribe goes through the one
// validation path below.
package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/client"
	"repro/internal/graph"
)

// httpError pairs an HTTP status with an envelope body; handlers thread
// it instead of writing responses from arbitrary depths.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, code, format string, args ...any) *httpError {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeError renders the envelope; 429 responses advise a retry delay.
func (s *Server) writeError(w http.ResponseWriter, e *httpError) {
	if e.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, e.status, client.ErrorEnvelope{Error: client.ErrorBody{Code: e.code, Message: e.msg}})
}

// recommendRequestFromQuery decodes GET /v1/recommend query parameters.
func recommendRequestFromQuery(q url.Values) (client.RecommendRequest, *httpError) {
	var req client.RecommendRequest
	uid, err := strconv.Atoi(q.Get("user"))
	if err != nil {
		return req, errf(http.StatusBadRequest, client.CodeBadRequest, "bad user %q (want an integer)", q.Get("user"))
	}
	req.User = uid
	req.Topic = q.Get("topic")
	if ns := q.Get("n"); ns != "" {
		n, err := strconv.Atoi(ns)
		if err != nil {
			return req, errf(http.StatusBadRequest, client.CodeBadRequest, "bad n %q (want an integer)", ns)
		}
		if n == 0 {
			// An explicit n=0 is an error; only an omitted n means the
			// default (0 is the "unset" value of the decoded form).
			return req, errf(http.StatusBadRequest, client.CodeBadRequest, "bad n 0 (want 1..1000)")
		}
		req.N = n
	}
	req.Method = q.Get("method")
	return req, nil
}

// validateRecommend checks one decoded request against the served graph
// and vocabulary and normalizes it into the cache/coalesce key. All
// validation for the single and batch endpoints happens here.
func (s *Server) validateRecommend(req client.RecommendRequest) (cacheKey, *httpError) {
	g := s.mgr.Graph()
	if req.User < 0 || req.User >= g.NumNodes() {
		return cacheKey{}, errf(http.StatusBadRequest, client.CodeBadRequest,
			"bad user %d (want 0..%d)", req.User, g.NumNodes()-1)
	}
	t, ok := s.vocab.Lookup(req.Topic)
	if !ok {
		return cacheKey{}, errf(http.StatusBadRequest, client.CodeUnknownTopic, "unknown topic %q", req.Topic)
	}
	n := req.N
	if n == 0 {
		n = 10
	}
	if n < 1 || n > 1000 {
		return cacheKey{}, errf(http.StatusBadRequest, client.CodeBadRequest, "bad n %d (want 1..1000)", req.N)
	}
	method := req.Method
	if method == "" {
		method = "landmark"
	}
	if method != "tr" && method != "landmark" {
		return cacheKey{}, errf(http.StatusBadRequest, client.CodeUnknownMethod,
			"unknown method %q (tr, landmark)", method)
	}
	return cacheKey{user: graph.NodeID(req.User), topic: t, n: n, method: method}, nil
}
