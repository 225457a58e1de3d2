// subscribe.go is the HTTP face of the standing-query hub: register
// (POST /v1/subscribe), stream deltas (GET /v1/subscribe/{id}/events —
// SSE by default, long-poll with ?mode=poll), and tear down (DELETE
// /v1/subscribe/{id}).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/subscribe"
)

// Long-poll wait bounds for ?mode=poll.
const (
	defaultPollWait = 10 * time.Second
	maxPollWait     = 60 * time.Second
)

// handleSubscribe registers a standing query. The body is the same
// RecommendRequest the query endpoints take, validated by the same path.
// A router refuses every subscription: no write reaches it, so no
// standing query can move.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.refuseInRouterMode(w, "subscriptions") {
		return
	}
	var req client.RecommendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "bad JSON: %v", err))
		return
	}
	key, herr := s.validateRecommend(req)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	id, err := s.hub.Register(subscribe.Key{User: key.user, Topic: key.topic, N: key.n, Method: key.method})
	if err != nil {
		if errors.Is(err, subscribe.ErrLimit) {
			s.writeError(w, errf(http.StatusTooManyRequests, client.CodeOverloaded,
				"subscription limit reached, retry later"))
			return
		}
		s.writeError(w, errf(http.StatusInternalServerError, client.CodeInternal, "registering subscription: %v", err))
		return
	}
	writeJSON(w, http.StatusCreated, client.Subscription{
		ID:     id,
		User:   int(key.user),
		Topic:  s.vocab.Name(key.topic),
		N:      key.n,
		Method: key.method,
	})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.hub.Unsubscribe(id); err != nil {
		s.writeError(w, errf(http.StatusNotFound, client.CodeNotFound, "unknown subscription %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "unsubscribed": true})
}

// handleEvents streams a subscription's deltas. The default is SSE
// (text/event-stream, frames `id:`/`event: topk`/`data:`); ?mode=poll
// long-polls one JSON batch instead. Resume positions come from the
// Last-Event-ID header (SSE reconnects) or ?after= (long-poll); a
// position that has lapsed out of the bounded event ring resyncs with a
// synthesized Reset snapshot at connect, while a consumer that lapses
// mid-stream is disconnected (dropped-slow-consumer semantics).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	var after uint64
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		v, err := strconv.ParseUint(lei, 10, 64)
		if err != nil {
			s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "bad Last-Event-ID %q", lei))
			return
		}
		after = v
	}
	if as := q.Get("after"); as != "" {
		v, err := strconv.ParseUint(as, 10, 64)
		if err != nil {
			s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "bad after %q", as))
			return
		}
		after = v
	}
	if q.Get("mode") == "poll" {
		wait := defaultPollWait
		if ws := q.Get("wait"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil || d < 0 {
				s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "bad wait %q (want a duration)", ws))
				return
			}
			wait = min(d, maxPollWait)
		}
		s.servePollEvents(w, r, id, after, wait)
		return
	}
	s.serveSSEEvents(w, r, id, after)
}

// servePollEvents is the long-poll fallback: it answers as soon as
// events past `after` exist, or with an empty batch once `wait` elapses.
// A lapsed position always resyncs (the poll response carries the Reset
// snapshot) — a stateless poller cannot be "disconnected".
func (s *Server) servePollEvents(w http.ResponseWriter, r *http.Request, id string, after uint64, wait time.Duration) {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		events, notify, err := s.hub.EventsSince(id, after, true)
		if err != nil {
			s.writeError(w, errf(http.StatusNotFound, client.CodeNotFound, "unknown subscription %q", id))
			return
		}
		if len(events) > 0 {
			writeJSON(w, http.StatusOK, client.EventsResponse{Events: events})
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-deadline.C:
			writeJSON(w, http.StatusOK, client.EventsResponse{Events: []client.Event{}})
			return
		case <-notify:
		}
	}
}

// serveSSEEvents streams frames until the client disconnects, the
// subscription is torn down, or the consumer lapses behind the ring.
func (s *Server) serveSSEEvents(w http.ResponseWriter, r *http.Request, id string, after uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, errf(http.StatusInternalServerError, client.CodeInternal, "streaming unsupported by this connection"))
		return
	}
	// Probe before committing to the stream so an unknown id still gets
	// the 404 envelope. resync=true: a Last-Event-ID that lapsed while
	// the client was away synthesizes a Reset snapshot instead of
	// failing the reconnect.
	events, notify, err := s.hub.EventsSince(id, after, true)
	if err != nil {
		s.writeError(w, errf(http.StatusNotFound, client.CodeNotFound, "unknown subscription %q", id))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	keepAlive := time.NewTicker(20 * time.Second)
	defer keepAlive.Stop()
	for {
		for _, ev := range events {
			data, merr := json.Marshal(ev)
			if merr != nil {
				return
			}
			if _, werr := fmt.Fprintf(w, "id: %d\nevent: topk\ndata: %s\n\n", ev.Seq, data); werr != nil {
				return
			}
			after = ev.Seq
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-keepAlive.C:
			if _, werr := fmt.Fprint(w, ": keep-alive\n\n"); werr != nil {
				return
			}
			flusher.Flush()
		case <-notify:
		}
		// Mid-stream reads never resync: a gap here means this consumer
		// fell behind the ring while connected — drop it (the hub counts
		// the drop; the client reconnects and resyncs).
		events, notify, err = s.hub.EventsSince(id, after, false)
		if err != nil {
			return
		}
	}
}
