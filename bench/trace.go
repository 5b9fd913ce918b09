package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the ID
// of the span that caused it (0 for a root); Epoch is the batch epoch the
// spans of one batch share. Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Epoch  uint64 `json:"epoch"`
	Self   int64  `json:"self_ns"`
}

// tracer records spans in memory, from the harness's own code, and writes
// them out when the run ends. A nil tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent int, epoch uint64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Epoch: epoch})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call wraps one root-level call into a layer in a span.
func (t *tracer) call(name string, fn func() error) error {
	sp := t.begin(name, 0, 0)
	err := fn()
	t.end(sp)
	return err
}

// setEpoch stamps a span whose batch epoch is only known once the call
// returned.
func (t *tracer) setEpoch(id int, epoch uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Epoch = epoch
	t.mu.Unlock()
}

// selfTimes fills each span's Self: its duration minus the part of its
// interval that its child spans cover. Overlapping children (concurrent
// calls under one parent) are counted once.
func selfTimes(spans []span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// finish computes self times and returns the recorded spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// meanMillis is the mean duration, in milliseconds, of the spans with the
// given name; n is how many there were.
func meanMillis(spans []span, name string) (ms float64, n int) {
	var total int64
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	return ratio(float64(total)/1e6, float64(n)), n
}

// defaultOutDir is where a run leaves its artifacts (span files, the
// start-state checkpoint): inside the checkout, under the benchmark's own
// directory.
const defaultOutDir = "bench/out"

func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
