package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// APIError is a non-2xx /v1 response decoded from the uniform error
// envelope.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine-readable code (CodeBadRequest, ...)
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api: %d %s: %s", e.Status, e.Code, e.Message)
}

// Client talks to one /v1 server.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the server at base (e.g.
// "http://localhost:8080"). A trailing slash is trimmed. httpc may be
// nil, selecting http.DefaultClient.
func New(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpc}
}

// Do issues one request against path (absolute, e.g. "/v1/stats"),
// encoding in as the JSON body when non-nil and decoding the response
// body into out when non-nil — regardless of status, so callers can
// inspect error envelopes. It returns the HTTP status code; the error is
// non-nil only for transport or decode failures, not for non-2xx
// statuses. The typed methods below layer APIError conversion on top.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("encoding %s %s body: %w", method, path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		// A *json.RawMessage captures the body verbatim without JSON
		// validation, so intermediaries answering plain text (proxy
		// 502s and the like) still surface their payload to call's
		// envelope conversion instead of a decode failure.
		if raw, ok := out.(*json.RawMessage); ok {
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return resp.StatusCode, fmt.Errorf("reading %s %s response (status %d): %w", method, path, resp.StatusCode, err)
			}
			*raw = b
			return resp.StatusCode, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s response (status %d): %w", method, path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, nil
}

// call is Do plus envelope conversion: non-2xx statuses come back as
// *APIError.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var raw json.RawMessage
	status, err := c.Do(ctx, method, path, in, &raw)
	if err != nil {
		return err
	}
	if status < 200 || status >= 300 {
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
			return &APIError{Status: status, Code: CodeInternal, Message: string(raw)}
		}
		return &APIError{Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// Health checks GET /v1/health.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.call(ctx, http.MethodGet, "/v1/health", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Topics fetches the served topic vocabulary.
func (c *Client) Topics(ctx context.Context) ([]string, error) {
	var out TopicsResponse
	if err := c.call(ctx, http.MethodGet, "/v1/topics", nil, &out); err != nil {
		return nil, err
	}
	return out.Topics, nil
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.call(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// recommendQuery renders req as /v1/recommend query parameters,
// omitting defaulted fields.
func recommendQuery(req RecommendRequest) string {
	q := url.Values{}
	q.Set("user", strconv.Itoa(req.User))
	q.Set("topic", req.Topic)
	if req.N != 0 {
		q.Set("n", strconv.Itoa(req.N))
	}
	if req.Method != "" {
		q.Set("method", req.Method)
	}
	return q.Encode()
}

// Recommend runs one ranked lookup (GET /v1/recommend).
func (c *Client) Recommend(ctx context.Context, req RecommendRequest) (*RecommendResponse, error) {
	var out RecommendResponse
	if err := c.call(ctx, http.MethodGet, "/v1/recommend?"+recommendQuery(req), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RecommendBatch runs several lookups in one round trip (POST
// /v1/recommend:batch). Items fail independently; inspect each
// BatchResult.
func (c *Client) RecommendBatch(ctx context.Context, reqs []RecommendRequest) ([]BatchResult, error) {
	var out BatchResponse
	if err := c.call(ctx, http.MethodPost, "/v1/recommend:batch", reqs, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Update submits a batch of follow/unfollow changes (POST /v1/update).
// The response distinguishes a synchronous apply (Applied set) from a
// streaming-ingestion accept (Accepted set).
func (c *Client) Update(ctx context.Context, items []UpdateItem) (*UpdateResponse, error) {
	var out UpdateResponse
	if err := c.call(ctx, http.MethodPost, "/v1/update", UpdateRequest{Updates: items}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Subscribe registers a standing query (POST /v1/subscribe) for either
// served method, "landmark" or "tr".
func (c *Client) Subscribe(ctx context.Context, req RecommendRequest) (*Subscription, error) {
	var out Subscription
	if err := c.call(ctx, http.MethodPost, "/v1/subscribe", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Unsubscribe tears down a standing query (DELETE /v1/subscribe/{id}).
func (c *Client) Unsubscribe(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/subscribe/"+url.PathEscape(id), nil, nil)
}

// PollEvents long-polls GET /v1/subscribe/{id}/events?mode=poll for
// events with Seq > after, blocking server-side up to wait (expressed as
// a Go duration string; "" lets the server default apply). An empty
// slice means the wait elapsed with no news.
func (c *Client) PollEvents(ctx context.Context, id string, after uint64, wait string) ([]Event, error) {
	q := url.Values{}
	q.Set("mode", "poll")
	q.Set("after", strconv.FormatUint(after, 10))
	if wait != "" {
		q.Set("wait", wait)
	}
	var out EventsResponse
	path := "/v1/subscribe/" + url.PathEscape(id) + "/events?" + q.Encode()
	if err := c.call(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Events, nil
}

// Events opens the SSE stream of a subscription (GET
// /v1/subscribe/{id}/events). lastEventID > 0 resumes after that
// sequence number via the Last-Event-ID header. The returned stream must
// be closed by the caller.
func (c *Client) Events(ctx context.Context, id string, lastEventID uint64) (*EventStream, error) {
	path := c.base + "/v1/subscribe/" + url.PathEscape(id) + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code == "" {
			return nil, &APIError{Status: resp.StatusCode, Code: CodeInternal, Message: resp.Status}
		}
		return nil, &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}
	return newEventStream(resp.Body), nil
}
