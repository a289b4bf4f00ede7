package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 1) of xs:
// the smallest sample with at least q·n samples at or below it. It sorts xs
// in place and returns 0 for an empty slice.
func percentile(xs []time.Duration, q float64) time.Duration {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// stageMeans averages each stage over every command: the sum of a stage's
// time across all commands divided by the number of commands, counting a
// command that never entered the stage as zero. Because each command's
// stages partition its latency, the means then sum to the mean latency.
// (Averaging a stage only over the commands that touched it breaks that
// identity.)
func stageMeans(perCommand []map[string]time.Duration, stages []string) map[string]float64 {
	out := make(map[string]float64, len(stages))
	if len(perCommand) == 0 {
		for _, s := range stages {
			out[s] = 0
		}
		return out
	}
	for _, s := range stages {
		var sum time.Duration
		for _, st := range perCommand {
			sum += st[s]
		}
		out[s] = float64(sum) / float64(len(perCommand))
	}
	return out
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers, with
// children clipped to parent. Overlapping children count once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			total += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	total += cur.end - cur.start
	return total
}
