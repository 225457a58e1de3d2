package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
)

// TestAPIDocCoversAllRoutes is the golden test tying the mux to API.md:
// every "METHOD pattern" pair the server serves must appear verbatim in
// the reference, so a route added without documentation fails CI.
func TestAPIDocCoversAllRoutes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "API.md"))
	if err != nil {
		t.Fatalf("read API.md: %v", err)
	}
	doc := string(raw)

	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	s := New(mgr, core.DefaultParams().Beta, WithMetrics(reg))
	t.Cleanup(s.Close)

	var missing []string
	for _, rt := range s.routes() {
		for method := range rt.methods {
			want := fmt.Sprintf("%s %s", method, rt.pattern)
			if !strings.Contains(doc, want) {
				missing = append(missing, want)
			}
		}
	}
	if len(missing) > 0 {
		t.Fatalf("routes served but not documented in API.md: %v", missing)
	}
}

// TestREADMEListsEveryMetricFamily ties the exposition to README's
// Observability table: every family a fully wired stack exposes — the
// streaming server over a WAL-backed manager with a standing query, an
// exact query, a shard worker and the router's series — must be named in
// the table's first column, where `a_{b,c}_d` names a_b_d and a_c_d and a
// trailing `{labels}` is the label set.
func TestREADMEListsEveryMetricFamily(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	doc := string(raw)
	start := strings.Index(doc, "### Observability")
	if start < 0 {
		t.Fatal("README.md has no Observability section")
	}
	doc = doc[start:]
	if end := strings.Index(doc[1:], "\n### "); end >= 0 {
		doc = doc[:end+1]
	}
	listed := make(map[string]bool)
	tick := regexp.MustCompile("`([a-z_{},]+)`")
	alt := regexp.MustCompile(`^([a-z_]*)\{([a-z,]+)\}([a-z_]*)$`)
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range tick.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			if strings.HasSuffix(name, "}") {
				name = name[:strings.LastIndex(name, "{")]
			}
			if parts := alt.FindStringSubmatch(name); parts != nil {
				for _, mid := range strings.Split(parts[2], ",") {
					listed[parts[1]+mid+parts[3]] = true
				}
				continue
			}
			listed[name] = true
		}
	}

	st := newCountedStack(t)
	ctx := context.Background()
	if _, err := client.New(st.url, nil).Subscribe(ctx, client.RecommendRequest{User: 11, Topic: "technology", N: 5, Method: "landmark"}); err != nil {
		t.Fatal(err)
	}
	st.update(t, 300, false)
	if err := st.pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	flushHub(t, st.s)
	getJSON(t, st.url+"/v1/recommend?user=11&topic=technology&n=5&method=tr", http.StatusOK, nil)
	router := NewShardRouter([][]string{{st.shard}}, 5*time.Second, 0)
	router.instrument(st.reg)
	router.Gather(ctx, 11, 0)

	var b strings.Builder
	if _, err := st.reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, _, _ := strings.Cut(rest, " "); !listed[name] {
				missing = append(missing, name)
			}
		}
	}
	if len(missing) > 0 {
		t.Fatalf("metric families exposed but not in README's Observability table: %v", missing)
	}
}
