// Command trquery serves ad-hoc recommendation queries: exact Tr,
// landmark-approximate Tr, Katz and TwitterRank, side by side with
// timings — a miniature "who to follow" console.
//
// By default it builds everything in-process over a generated dataset.
// With -server it becomes a thin console over a running trserver,
// speaking the typed /v1 client; the server answers only exact and
// landmark Tr, so the remote mode shows those two:
//
//	trquery -server http://localhost:8080 -query "42 technology"
//	trquery -server http://localhost:8080 -watch "42 technology"
//
// -watch registers a standing query (POST /v1/subscribe) and streams
// top-k deltas over SSE until interrupted.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/authority"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/katz"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/twitterrank"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 8000, "accounts in the synthetic graph")
		seed      = flag.Uint64("seed", 1, "dataset seed")
		landmarkN = flag.Int("landmarks", 30, "landmark count (In-Deg selection)")
		topN      = flag.Int("topn", 10, "results per query")
		oneshot   = flag.String("query", "", "single query \"<user> <topic>\" then exit (default: read stdin)")
		serverURL = flag.String("server", "", "query a running trserver at this base URL instead of building in-process")
		watch     = flag.String("watch", "", "with -server: subscribe to \"<user> <topic>\" and stream top-k deltas until interrupted")
	)
	flag.Parse()

	if *serverURL != "" {
		remote(*serverURL, *topN, *oneshot, *watch)
		return
	}
	if *watch != "" {
		log.Fatal("-watch requires -server (standing queries live on the /v1 surface)")
	}

	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = *nodes
	cfg.Seed = *seed
	ds, err := gen.Twitter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	eng, err := core.NewEngine(g, authority.Compute(g), ds.Sim, core.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	exact := core.NewRecommender(eng)
	kz, err := katz.New(g, core.DefaultParams().Beta, 0)
	if err != nil {
		log.Fatal(err)
	}
	twr, err := twitterrank.New(twitterrank.InputFromProfiles(g), twitterrank.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	lms, err := landmark.Select(g, landmark.InDeg, *landmarkN, landmark.DefaultSelectConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "preprocessing %d landmarks...\n", len(lms))
	store, stats := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 1000})
	fmt.Fprintf(os.Stderr, "done in %s\n", stats.WallTime.Round(time.Millisecond))
	approx, err := landmark.NewApprox(eng, store, 2)
	if err != nil {
		log.Fatal(err)
	}

	serve := func(line string) {
		parts := strings.Fields(line)
		if len(parts) != 2 {
			fmt.Println("usage: <user-id> <topic>   e.g. \"42 technology\"")
			return
		}
		uid, err := strconv.Atoi(parts[0])
		if err != nil || uid < 0 || uid >= g.NumNodes() {
			fmt.Printf("bad user id %q (0..%d)\n", parts[0], g.NumNodes()-1)
			return
		}
		t, ok := g.Vocabulary().Lookup(parts[1])
		if !ok {
			fmt.Printf("unknown topic %q; topics: %s\n", parts[1], strings.Join(g.Vocabulary().Names(), " "))
			return
		}
		u := graph.NodeID(uid)
		show := func(name string, f func() []ranking.Scored) {
			t0 := time.Now()
			list := f()
			d := time.Since(t0)
			fmt.Printf("%-14s (%8s):", name, d.Round(time.Microsecond))
			for _, s := range list {
				fmt.Printf(" %d", s.Node)
			}
			fmt.Println()
		}
		show("Tr exact", func() []ranking.Scored { return exact.Recommend(u, t, *topN) })
		show("Tr landmarks", func() []ranking.Scored { return approx.Recommend(u, t, *topN) })
		show("Katz", func() []ranking.Scored { return kz.Recommend(u, t, *topN) })
		show("TwitterRank", func() []ranking.Scored { return twr.Recommend(u, t, *topN) })

		// Explain the top pick: the paths carrying its score.
		if top := exact.Recommend(u, t, 1); len(top) > 0 {
			paths, covered := eng.Explain(u, top[0].Node, t, core.ExplainOptions{MaxLen: 3, TopK: 3})
			fmt.Printf("why %d:", top[0].Node)
			for _, pc := range paths {
				fmt.Printf("  %v (%.2g)", pc.Path, pc.Score)
			}
			fmt.Printf("  [%.0f%% of score]\n", covered*100)
		}
	}

	if *oneshot != "" {
		serve(*oneshot)
		return
	}
	fmt.Println("enter queries as: <user-id> <topic>   (ctrl-D to quit)")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			serve(line)
		}
	}
}

// parseQuery splits "<user> <topic>" console input.
func parseQuery(line string) (int, string, error) {
	parts := strings.Fields(line)
	if len(parts) != 2 {
		return 0, "", errors.New(`usage: <user-id> <topic>   e.g. "42 technology"`)
	}
	uid, err := strconv.Atoi(parts[0])
	if err != nil || uid < 0 {
		return 0, "", fmt.Errorf("bad user id %q", parts[0])
	}
	return uid, parts[1], nil
}

// remote is the -server mode: the same console, but every answer comes
// from a running trserver through the typed /v1 client.
func remote(base string, topN int, oneshot, watch string) {
	c := client.New(base, nil)
	ctx := context.Background()
	topicsList, err := c.Topics(ctx)
	if err != nil {
		log.Fatalf("connecting to %s: %v", base, err)
	}

	if watch != "" {
		watchRemote(ctx, c, topN, watch)
		return
	}

	serve := func(line string) {
		uid, topic, err := parseQuery(line)
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, method := range []string{"tr", "landmark"} {
			resp, err := c.Recommend(ctx, client.RecommendRequest{
				User: uid, Topic: topic, N: topN, Method: method,
			})
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) {
					fmt.Printf("%-14s %s\n", method, apiErr.Message)
				} else {
					fmt.Printf("%-14s %v\n", method, err)
				}
				continue
			}
			degraded := ""
			if resp.Degraded {
				degraded = " [degraded]"
			}
			fmt.Printf("%-14s (%8s, cache %s%s):", method,
				(time.Duration(resp.TookUS) * time.Microsecond).Round(time.Microsecond),
				resp.Cache, degraded)
			for _, r := range resp.Results {
				fmt.Printf(" %d", r.User)
			}
			fmt.Println()
		}
	}

	if oneshot != "" {
		serve(oneshot)
		return
	}
	fmt.Printf("connected to %s (topics: %s)\n", base, strings.Join(topicsList, " "))
	fmt.Println("enter queries as: <user-id> <topic>   (ctrl-D to quit)")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			serve(line)
		}
	}
}

// watchRemote registers a standing query and tails its SSE stream,
// printing each pushed top-k delta until the stream ends or ctrl-C.
func watchRemote(ctx context.Context, c *client.Client, topN int, query string) {
	uid, topic, err := parseQuery(query)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, client.RecommendRequest{User: uid, Topic: topic, N: topN})
	if err != nil {
		log.Fatalf("subscribe: %v", err)
	}
	defer c.Unsubscribe(context.Background(), sub.ID) //nolint:errcheck // best-effort teardown
	fmt.Printf("subscribed %s: user %d, topic %s, n %d (ctrl-C to stop)\n",
		sub.ID, sub.User, sub.Topic, sub.N)

	stream, err := c.Events(ctx, sub.ID, 0)
	if err != nil {
		log.Fatalf("events: %v", err)
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				fmt.Println("stream closed by server")
				return
			}
			log.Fatalf("stream: %v", err)
		}
		kind := "delta"
		if ev.Reset {
			kind = "reset"
		}
		degraded := ""
		if ev.Degraded {
			degraded = " [degraded]"
		}
		fmt.Printf("seq %d epoch %d %s%s:", ev.Seq, ev.Epoch, kind, degraded)
		for _, e := range ev.Top {
			fmt.Printf(" %d", e.User)
		}
		if len(ev.Added) > 0 {
			fmt.Printf("  +%v", ev.Added)
		}
		if len(ev.Removed) > 0 {
			fmt.Printf("  -%v", ev.Removed)
		}
		fmt.Println()
	}
}
