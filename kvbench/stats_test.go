package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := func() []time.Duration {
		out := make([]time.Duration, 10)
		for i := range out {
			out[i] = time.Duration(10-i) * time.Microsecond // 10µs .. 1µs, unsorted
		}
		return out
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.001, 1 * time.Microsecond}, // rank ceil(0.01) = 1
		{0.10, 1 * time.Microsecond},  // rank 1
		{0.11, 2 * time.Microsecond},  // rank ceil(1.1) = 2
		{0.50, 5 * time.Microsecond},  // rank 5, no interpolation
		{0.99, 10 * time.Microsecond}, // rank ceil(9.9) = 10
		{1.00, 10 * time.Microsecond},
	}
	for _, c := range cases {
		if got := percentile(xs(), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// p99.9 of 1000 samples is the 999th smallest.
	big := make([]time.Duration, 1000)
	for i := range big {
		big[i] = time.Duration(1000 - i)
	}
	if got := percentile(big, 0.999); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %v, want 999", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// The stage means must sum to the mean command latency even when some
// commands never enter a stage: each stage is averaged over every command.
func TestStageMeansSumToMeanLatency(t *testing.T) {
	stages := []string{"queue", "link", "service", "media"}
	cmds := []map[string]time.Duration{
		{"link": 7, "service": 6, "media": 200}, // cache miss: reads media
		{"link": 7, "service": 6},               // cache hit: no media stage
		{"queue": 30, "link": 7, "service": 6, "media": 190},
	}
	var total time.Duration
	for _, st := range cmds {
		for _, d := range st {
			total += d
		}
	}
	means := stageMeans(cmds, stages)
	var sum float64
	for _, s := range stages {
		sum += means[s]
	}
	meanLatency := float64(total) / float64(len(cmds))
	if math.Abs(sum-meanLatency) > 1e-9 {
		t.Fatalf("stage means sum to %v, mean latency is %v", sum, meanLatency)
	}
	if want := 130.0; means["media"] != want {
		t.Errorf("media mean = %v, want %v (sum/n over all commands, not over the two that read media)", means["media"], want)
	}
	if means["queue"] != 10 {
		t.Errorf("queue mean = %v, want 10", means["queue"])
	}
	if got := stageMeans(nil, stages); got["media"] != 0 {
		t.Errorf("no commands: media mean = %v, want 0", got["media"])
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 40}, {50, 60}, {90, 120}, {-5, 5}}
	// [0,5) + [10,40) + [50,60) + [90,100) = 5 + 30 + 10 + 10.
	if got := covered(parent, children); got != 55 {
		t.Errorf("covered = %d, want 55", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

func TestPairSetKeysAreUniqueAndStable(t *testing.T) {
	g := newPairGen(7, 1)
	ps := newPairSet(g, 1000)
	seen := map[string]bool{}
	for i := uint64(0); i < 1000; i++ {
		k := string(ps.key(i))
		if seen[k] {
			t.Fatalf("key %d repeats", i)
		}
		seen[k] = true
		if string(g.key(i)) != k || string(g.value(i)) != string(ps.value(i)) {
			t.Fatalf("pair %d differs from its generator", i)
		}
	}
	if string(newPairGen(8, 1).key(0)) == string(g.key(0)) {
		t.Errorf("seed does not change the keys")
	}
}
