package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// The shipped sharded deployment as processes: two trshard workers and a
// router-mode trserver on loopback ports, started with the flags README
// documents. Every landmark answer must be complete (not degraded) and
// equal, node and score, to the single-process landmark.Approx ranking
// over the same dataset — which holds only if both workers derive the
// same landmarks and the id mod P ownership from their flags.
func TestShardDeploymentMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", dir,
		"repro/cmd/trshard", "repro/cmd/trserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataset := []string{"-nodes", "800", "-landmarks", "8", "-store-topn", "50"}
	addrs := freeAddrs(t, 3)
	for i := 0; i < 2; i++ {
		start(t, dir, "trshard", addrs[i], "/shard/v1/health",
			append([]string{"-shard", strconv.Itoa(i), "-shards", "2", "-addr", addrs[i]}, dataset...)...)
	}
	router := start(t, dir, "trserver", addrs[2], "/v1/health",
		append([]string{"-shards", addrs[0] + "," + addrs[1], "-addr", addrs[2]}, dataset...)...)

	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 800
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 8, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 50})
	ap, err := landmark.NewApprox(eng, store, 2)
	if err != nil {
		t.Fatal(err)
	}

	c := client.New(router, nil)
	vocab := ds.Graph.Vocabulary()
	answered := 0
	for i := 0; i < 10; i++ {
		u, tp := graph.NodeID(i*79+3), topics.ID(i%vocab.Len())
		resp, err := c.Recommend(context.Background(), client.RecommendRequest{
			User: int(u), Topic: vocab.Name(tp), N: 10, Method: "landmark"})
		if err != nil {
			t.Fatalf("user %d topic %s: %v", u, vocab.Name(tp), err)
		}
		if resp.Degraded {
			t.Fatalf("user %d topic %s: degraded answer with both shards up", u, vocab.Name(tp))
		}
		want := ap.Recommend(u, tp, 10)
		if len(resp.Results) != len(want) {
			t.Fatalf("user %d topic %s: %d results, single process %d", u, vocab.Name(tp), len(resp.Results), len(want))
		}
		for r, w := range want {
			if got := resp.Results[r]; graph.NodeID(got.User) != w.Node || got.Score != w.Score {
				t.Fatalf("user %d topic %s rank %d: node %d (%.17g), single process %d (%.17g)",
					u, vocab.Name(tp), r, got.User, got.Score, w.Node, w.Score)
			}
		}
		if len(want) > 0 {
			answered++
		}
	}
	if answered < 5 {
		t.Fatalf("only %d of 10 queries had any result; the comparison shows nothing", answered)
	}
}

// freeAddrs returns n loopback addresses whose ports were free a moment
// ago.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l.Addr().String()
		l.Close()
	}
	return out
}

// start runs one built command listening on addr, kills and reaps it at
// cleanup, and returns its base URL once GET health answers 200. Its
// output goes to a log file that a failure prints.
func start(t *testing.T, dir, name, addr, health string, args ...string) string {
	t.Helper()
	logf, err := os.CreateTemp(dir, name+"-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck // killed at cleanup
		logf.Close()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // it may have exited already
		<-exited
	})
	fail := func(why string) {
		out, _ := os.ReadFile(logf.Name())
		t.Fatalf("%s %s: %s\n%s", name, strings.Join(args, " "), why, out)
	}
	base := "http://" + addr
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		select {
		case <-exited:
			fail("exited before its health check answered")
		default:
		}
		if resp, err := http.Get(base + health); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		if time.Now().After(deadline) {
			fail("no 200 from " + health + " in 60 s")
		}
	}
}
