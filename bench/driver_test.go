package main

import (
	"testing"
	"time"
)

// A target that stalls once: the requests scheduled during the stall are
// sent late, and their latency is counted from when they were due, so the
// stall shows in the latencies of the requests behind it, in the
// generator's lateness, and not in the achieved share (all were sent).
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	loop := openLoop{Name: "t", Rate: 100, Dur: 500 * time.Millisecond, Grace: time.Second, Workers: 1}
	samples, st := loop.run(func(_, i int, _ time.Time) (bool, uint8) {
		if i == 10 {
			time.Sleep(stall)
		}
		return true, 0
	})
	if st.Scheduled != 50 || st.Sent != 50 || st.OK != 50 || st.AchievedShare != 1 || st.Saturated {
		t.Fatalf("phase stats %+v", st)
	}
	// Request 11 was due 10 ms into the stall and could only be sent after
	// it: its send-to-done time is tiny, its due-to-done time is not.
	s := samples[11]
	if lat := time.Duration(s.latency()); lat < stall-30*time.Millisecond {
		t.Errorf("request behind the stall: latency from due time %v, want about %v", lat, stall-10*time.Millisecond)
	}
	if own := time.Duration(s.Done - s.Sent); own > 50*time.Millisecond {
		t.Errorf("request behind the stall took %v itself", own)
	}
	if st.LatenessP99Ms < 100 {
		t.Errorf("lateness p99 %.1f ms, want the stall to show", st.LatenessP99Ms)
	}
	// Long after the stall the generator is back on schedule.
	if late := time.Duration(samples[45].Sent - samples[45].Due); late > 50*time.Millisecond {
		t.Errorf("request 45 sent %v late", late)
	}
}

// A target that never comes back: what could not be sent before the
// phase's grace ran out is reported, not silently dropped.
func TestOpenLoopReportsSaturation(t *testing.T) {
	loop := openLoop{Name: "t", Rate: 100, Dur: 200 * time.Millisecond, Grace: 50 * time.Millisecond, Workers: 1}
	samples, st := loop.run(func(_, i int, _ time.Time) (bool, uint8) {
		if i == 2 {
			time.Sleep(400 * time.Millisecond)
		}
		return true, 0
	})
	if st.Sent != 3 || st.Scheduled != 20 || !st.Saturated || st.AchievedShare != 0.15 {
		t.Fatalf("phase stats %+v", st)
	}
	if samples[3].Sent >= 0 {
		t.Errorf("request 3 is marked sent")
	}
}

func TestOpenLoopWithNothingToSend(t *testing.T) {
	_, st := openLoop{Name: "t", Rate: 1, Dur: 0, Workers: 1}.run(func(int, int, time.Time) (bool, uint8) {
		t.Error("an operation ran")
		return false, 0
	})
	if st.Scheduled != 0 || st.AchievedShare != 1 || st.Saturated {
		t.Errorf("phase stats %+v", st)
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	samples, st := closedLoop{Name: "t", Dur: 100 * time.Millisecond, Workers: 2}.run(
		func(_, i int, _ time.Time) (bool, uint8) {
			time.Sleep(10 * time.Millisecond)
			return i%2 == 0, 0
		})
	if len(samples) < 10 || len(samples) > 24 || st.Sent != len(samples) || st.OK != okCount(samples) || st.OK == st.Sent {
		t.Errorf("%d samples, stats %+v", len(samples), st)
	}
}
