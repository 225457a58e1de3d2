package eval

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/katz"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/topics"
	"repro/internal/twitterrank"
)

// testMethods builds the three method shapes the parallel engine must
// handle: a pooled dense-exploration method (Tr), a pooled topic-blind one
// (Katz) and a mutex-cached global one (TwitterRank).
func testMethods(ds *gen.Dataset) []MethodFactory {
	params := core.DefaultParams()
	return []MethodFactory{
		{Name: "Tr", Build: func(g graph.View) (ranking.Recommender, error) {
			eng, err := core.NewEngine(g, authority.Compute(g), ds.Sim, params)
			if err != nil {
				return nil, err
			}
			return core.NewRecommender(eng, core.WithDepth(4)), nil
		}},
		{Name: "Katz", Build: func(g graph.View) (ranking.Recommender, error) {
			return katz.New(g, params.Beta, 4)
		}},
		{Name: "TwitterRank", Build: func(g graph.View) (ranking.Recommender, error) {
			return twitterrank.New(twitterrank.InputFromProfiles(g), twitterrank.DefaultParams())
		}},
	}
}

func testProtocol() Protocol {
	p := DefaultProtocol()
	p.TestSize = 20
	p.Negatives = 120
	p.Trials = 2
	return p
}

// TestParallelMatchesSerial is the tentpole guarantee: curves computed at
// Parallelism 1 and 8 are bit-identical — same recall, precision, MRR and
// NDCG floats, not merely close ones.
func TestParallelMatchesSerial(t *testing.T) {
	ds := gen.RandomWith(250, 3500, 11)
	ns := []int{1, 3, 5, 10, 20}

	serial := testProtocol()
	serial.Parallelism = 1
	want, err := RunLinkPrediction(ds.Graph, serial, testMethods(ds), ns, topics.None)
	if err != nil {
		t.Fatal(err)
	}

	parallel := testProtocol()
	parallel.Parallelism = 8
	got, err := RunLinkPrediction(ds.Graph, parallel, testMethods(ds), ns, topics.None)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("got %d curves, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("curve %s differs across parallelism:\nserial:   %+v\nparallel: %+v",
				want[i].Method, want[i], got[i])
		}
	}

	// GOMAXPROCS-defaulted parallelism must agree too.
	auto := testProtocol()
	auto.Parallelism = 0
	got, err = RunLinkPrediction(ds.Graph, auto, testMethods(ds), ns, topics.None)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Parallelism 0 (GOMAXPROCS) curves differ from serial")
	}
}

// TestParallelMetrics checks the evaluation-path series: the rankings
// counter must equal tests × methods and the busy gauge must return to 0.
func TestParallelMetrics(t *testing.T) {
	ds := gen.RandomWith(150, 2000, 5)
	reg := metrics.NewRegistry()
	p := testProtocol()
	p.Trials = 1
	p.Parallelism = 4
	p.Metrics = reg
	curves, err := RunLinkPrediction(ds.Graph, p, testMethods(ds), []int{10}, topics.None)
	if err != nil {
		t.Fatal(err)
	}
	wantRankings := uint64(curves[0].Tests * len(curves))
	if got := reg.Counter("eval_rankings_total", "").Value(); got != wantRankings {
		t.Errorf("eval_rankings_total = %d, want %d", got, wantRankings)
	}
	if got := reg.Gauge("eval_worker_busy", "").Value(); got != 0 {
		t.Errorf("eval_worker_busy = %g after run, want 0", got)
	}
}

// TestParallelCancelMidRun races cancellation against a parallel run (the
// -race stress of the worker pool): the run must stop promptly with the
// context's error and leave no worker behind.
func TestParallelCancelMidRun(t *testing.T) {
	ds := gen.RandomWith(300, 4500, 7)
	p := testProtocol()
	p.Trials = 50 // far more work than the deadline allows
	p.TestSize = 40
	p.Parallelism = 8

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := RunLinkPredictionCtx(ctx, ds.Graph, p, testMethods(ds), []int{10}, topics.None)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}

	// Immediate cancellation: no rankings at all, still a clean error.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := RunLinkPredictionCtx(pre, ds.Graph, p, testMethods(ds), []int{10}, topics.None); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestParallelStress hammers the engines' scratch pools from many
// concurrent runs — meaningful under -race.
func TestParallelStress(t *testing.T) {
	ds := gen.RandomWith(120, 1500, 3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := testProtocol()
			p.Trials = 1
			p.TestSize = 8
			p.Negatives = 50
			p.Parallelism = 4
			if _, err := RunLinkPrediction(ds.Graph, p, testMethods(ds), []int{5}, topics.None); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func benchDataset() *gen.Dataset { return gen.RandomWith(400, 6000, 2) }

func benchProtocol(par int) Protocol {
	p := DefaultProtocol()
	p.TestSize = 15
	p.Negatives = 200
	p.Trials = 1
	p.Parallelism = par
	return p
}

func BenchmarkLinkPredictionSerial(b *testing.B) {
	ds := benchDataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLinkPrediction(ds.Graph, benchProtocol(1), testMethods(ds), []int{10}, topics.None); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkPredictionParallel(b *testing.B) {
	ds := benchDataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLinkPrediction(ds.Graph, benchProtocol(0), testMethods(ds), []int{10}, topics.None); err != nil {
			b.Fatal(err)
		}
	}
}
