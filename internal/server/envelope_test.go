package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/ranking"
)

// doRaw issues one request with an optional raw body and returns the
// undecoded response so envelope tests can inspect headers and bytes.
func doRaw(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

// assertEnvelope requires the uniform error contract: the expected
// status, a JSON content type, and a decodable envelope with the
// expected code and a non-empty message.
func assertEnvelope(t *testing.T, name string, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s: Content-Type %q, want application/json", name, ct)
	}
	var e errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Errorf("%s: undecodable envelope: %v", name, err)
		return
	}
	if e.Error.Code != wantCode {
		t.Errorf("%s: code %q, want %q", name, e.Error.Code, wantCode)
	}
	if e.Error.Message == "" {
		t.Errorf("%s: empty error message", name)
	}
}

// TestErrorEnvelopeUniformity sweeps every error family the /v1 surface
// produces — wrong method, malformed body, unknown id, unknown route —
// and requires the identical envelope contract on each.
func TestErrorEnvelopeUniformity(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		// Method not allowed, across resource styles.
		{"method/recommend", http.MethodDelete, "/v1/recommend?user=1&topic=technology", "", http.StatusMethodNotAllowed, client.CodeMethodNotAllowed},
		{"method/update", http.MethodGet, "/v1/update", "", http.StatusMethodNotAllowed, client.CodeMethodNotAllowed},
		{"method/subscribe", http.MethodGet, "/v1/subscribe", "", http.StatusMethodNotAllowed, client.CodeMethodNotAllowed},
		{"method/subscribe-id", http.MethodGet, "/v1/subscribe/s1", "", http.StatusMethodNotAllowed, client.CodeMethodNotAllowed},
		{"method/events", http.MethodPost, "/v1/subscribe/s1/events", "", http.StatusMethodNotAllowed, client.CodeMethodNotAllowed},
		// Malformed bodies on every POST route.
		{"body/update", http.MethodPost, "/v1/update", "{", http.StatusBadRequest, client.CodeBadRequest},
		{"body/batch", http.MethodPost, "/v1/recommend:batch", "{", http.StatusBadRequest, client.CodeBadRequest},
		{"body/subscribe", http.MethodPost, "/v1/subscribe", "{", http.StatusBadRequest, client.CodeBadRequest},
		// Unknown subscription ids, both verbs and both event modes.
		{"id/unsubscribe", http.MethodDelete, "/v1/subscribe/nope", "", http.StatusNotFound, client.CodeNotFound},
		{"id/events-sse", http.MethodGet, "/v1/subscribe/nope/events", "", http.StatusNotFound, client.CodeNotFound},
		{"id/events-poll", http.MethodGet, "/v1/subscribe/nope/events?mode=poll", "", http.StatusNotFound, client.CodeNotFound},
		// Unknown routes fall through to the catch-all.
		{"route/unknown", http.MethodGet, "/v1/nope", "", http.StatusNotFound, client.CodeNotFound},
		{"route/unversioned", http.MethodGet, "/recommend?user=1&topic=technology", "", http.StatusNotFound, client.CodeNotFound},
	}
	for _, c := range cases {
		resp := doRaw(t, c.method, srv.URL+c.path, c.body)
		assertEnvelope(t, c.name, resp, c.wantStatus, c.wantCode)
		if c.wantStatus == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
			t.Errorf("%s: 405 without Allow header", c.name)
		}
	}
}

// TestErrorEnvelopeShed saturates a one-slot admission pool and requires
// the 429 shed path to speak the same envelope (plus Retry-After).
func TestErrorEnvelopeShed(t *testing.T) {
	s, base, _ := loadTestServer(t,
		WithAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 0}))
	var execs atomic.Int64
	gate := make(chan struct{})
	s.computeHook = func(ctx context.Context, key cacheKey) ([]ranking.Scored, error) {
		execs.Add(1)
		<-gate
		return []ranking.Scored{{Node: 1, Score: 1}}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getJSON(t, base+"/v1/recommend?user=11&topic=technology&n=5", http.StatusOK, nil)
	}()
	waitFor(t, "leader to occupy the pool", func() bool { return execs.Load() == 1 })

	resp := doRaw(t, http.MethodGet, base+"/v1/recommend?user=12&topic=technology&n=5", "")
	assertEnvelope(t, "shed/recommend", resp, http.StatusTooManyRequests, client.CodeOverloaded)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed/recommend: 429 without Retry-After")
	}

	close(gate)
	wg.Wait()
}
