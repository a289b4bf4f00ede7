package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the system's public
// functions: name, layer, parent, and start/end on the wall clock and, for
// calls made from a simulation process, on the virtual clock. Spans stay in
// memory and are written once when the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

type span struct {
	name   string
	layer  string
	parent int   // index of the enclosing span, -1 for a root
	w0, w1 int64 // wall ns since the tracer started
	v0, v1 int64 // virtual ns; -1 when the call has no virtual clock
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span and returns its id; virt is the caller's virtual time
// or -1.
func (t *tracer) start(name, layer string, parent int, virt int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, layer: layer, parent: parent, w0: now, v0: virt, v1: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id at the caller's virtual time virt (or -1).
func (t *tracer) end(id int, virt int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].w1 = now
	t.spans[id].v1 = virt
	t.mu.Unlock()
}

// selfWallMs sums, per layer, each span's wall duration minus the part of it
// its child spans cover.
func (t *tracer) selfWallMs() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.w0, s.w1})
		}
	}
	for i, s := range t.spans {
		iv := interval{s.w0, s.w1}
		self := (iv.end - iv.start) - covered(iv, children[i])
		out[s.layer] += float64(self) / 1e6
	}
	return out
}

// spanRecord is the on-disk form of one span.
type spanRecord struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	Parent    int    `json:"parent"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	VirtStart *int64 `json:"virt_start_ns,omitempty"`
	VirtEnd   *int64 `json:"virt_end_ns,omitempty"`
}

// write saves every span as one JSON line of a gzip file under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		s := &t.spans[i]
		rec := spanRecord{ID: i, Name: s.name, Layer: s.layer, Parent: s.parent, WallStart: s.w0, WallEnd: s.w1}
		if s.v0 >= 0 {
			rec.VirtStart, rec.VirtEnd = &s.v0, &s.v1
		}
		if err = enc.Encode(&rec); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// meanNs is the mean duration, in ns, of the spans named name, on the
// virtual clock when virt is set and on the wall clock otherwise.
func (t *tracer) meanNs(name string, virt bool) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, n int64
	for _, s := range t.spans {
		if s.name != name {
			continue
		}
		if virt {
			sum += s.v1 - s.v0
		} else {
			sum += s.w1 - s.w0
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
