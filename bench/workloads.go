package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rslpa"
	"rslpa/internal/replica"
)

// Salts of the per-purpose random streams derived from the run seed.
const (
	saltPool uint64 = iota + 1
	saltHot
	saltReads
)

// check is one correctness gate of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// windowResult is what a workload's traffic phase observed. The headline
// operation differs per workload (an edit becoming visible on the
// follower, a chunk of edits becoming visible in the writer's snapshot, a
// read answered) but every workload reports it the same way.
type windowResult struct {
	latency   []time.Duration // headline operation, window operations only
	ops       int             // headline operations completed in the window
	elapsed   time.Duration   // what ops is divided by
	attempted int
	failed    int
	late      []time.Duration // open-loop generator lateness; nil for a closed loop
	heapMB    float64
	// before and after bracket the measured window in the writer's own
	// counters; the stream.* layer metrics are their difference.
	before, after rslpa.ServiceStats
	checks        []check
	// layer holds per-layer values only this workload can measure.
	layer map[string]float64
	// replay is the batch sequence the shadow replay runs from the start
	// state.
	replay [][]rslpa.Edit
	// final is the served state after the unwind.
	final rslpa.Snapshot
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []*workloadDef {
	return []*workloadDef{
		{
			name: "serve-trickle",
			// Every optional pipeline stage on. FlushInterval is 2 s, not the
			// 100 ms default: a batch takes ≈ 0.9 s here, so with the default
			// a tick is always pending when a flush returns and the service's
			// select picks at random between it and the waiting queue. Half
			// the batches then carry one or two edits and every edit waits
			// out a geometric number of them: a simulation of that loop on a
			// perfectly steady machine gives a run-to-run spread of 18 % at
			// the median and 42 % at p95 for a 20 s window, 11 % and 28 % for
			// 60 s, which no window the run budget allows brings inside a
			// bound. With 2 s between flushes every batch is 200 edits and an
			// edit's latency is its wait for the tick plus the pipeline.
			opts:     rslpa.ServiceOptions{JournalDepth: 1024, EvolutionDepth: 8, FlushInterval: 2 * time.Second},
			follower: true,
			run:      runTrickle,
		},
		// The fixed ingest rates are about half of what each engine absorbed
		// in the slow phases of the machine that checks the benchmark (8 500
		// and 3 300 edits/s), so a flush interval's worth of edits is applied
		// inside the next interval there too.
		{name: "ingest-flood", rate: 4000, run: runFlood},
		{name: "dist-tcp", detect: rslpa.Config{Workers: 2, TCP: true}, rate: 2000, run: runFlood},
		{name: "read-hotspot", http: true, run: runHotspot},
	}
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// heapLiveMB is the live heap after a forced collection, with the system
// under test still up.
func heapLiveMB() float64 {
	// Twice: what sync.Pool and finalizers hold survives the first cycle,
	// and is ~30 MB here on some runs and nothing on others.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// httpGet fetches a URL over the given client and fails on a non-2xx
// status; the body is always drained so the connection is reused.
func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// bodyEpoch extracts the "epoch" field of a /communities body without
// decoding the whole cover. The key is unambiguous: every other value in
// the body is a number or an array of numbers.
func bodyEpoch(body []byte) (uint64, error) {
	const key = `"epoch":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, errors.New("no epoch in /communities body")
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.ParseUint(string(rest[:j]), 10, 64)
}

// ---------------------------------------------------------------- trickle

// sighting is one /communities answer a watcher received.
type sighting struct {
	epoch uint64
	at    time.Time
}

// watcher is a reader of one tier (writer or follower). It notices an
// epoch bump by polling the tier's snapshot every millisecond, then reads
// /communities over HTTP and stamps the answered epoch when the response
// is complete. An epoch is visible on the tier from the first answer that
// carries it or a later one.
type watcher struct {
	mu     sync.Mutex
	seen   []sighting // ascending epoch
	errs   int
	quit   chan struct{}
	done   chan struct{}
	client *http.Client
}

func startWatcher(tr *tracer, tier, url string, epoch func() uint64) *watcher {
	w := &watcher{
		quit: make(chan struct{}), done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	go func() {
		defer close(w.done)
		last := epoch()
		for {
			select {
			case <-w.quit:
				return
			default:
			}
			if epoch() <= last {
				time.Sleep(time.Millisecond)
				continue
			}
			sp := tr.begin("GET /communities ("+tier+")", 0, 0)
			body, err := httpGet(w.client, url+"/communities")
			at := time.Now()
			tr.end(sp)
			var got uint64
			if err == nil {
				got, err = bodyEpoch(body)
			}
			w.mu.Lock()
			if err != nil {
				w.errs++
			} else {
				w.seen = append(w.seen, sighting{got, at})
				last = got
			}
			w.mu.Unlock()
			tr.setEpoch(sp, got)
			if err != nil {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	return w
}

func (w *watcher) stop() {
	close(w.quit)
	<-w.done
	w.client.CloseIdleConnections()
}

func (w *watcher) failures() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.errs
}

// visibleAt is when the given epoch became visible on the tier.
func (w *watcher) visibleAt(epoch uint64) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := sort.Search(len(w.seen), func(i int) bool { return w.seen[i].epoch >= epoch })
	if i == len(w.seen) {
		return time.Time{}, false
	}
	return w.seen[i].at, true
}

// waitFor polls cond every few milliseconds until it holds or the grace
// period ends.
func waitFor(grace time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(grace)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// visibilityGrace is how long after the window an accepted edit may take
// to become visible before it counts as failed.
const visibilityGrace = 10 * time.Second

// fetchFeed reads the writer's whole journal after epoch from.
func fetchFeed(c *http.Client, url string, from uint64) ([]feedBatch, error) {
	var out []feedBatch
	for {
		body, err := httpGet(c, fmt.Sprintf("%s/feed?from=%d&max=1024", url, from))
		if err != nil {
			return nil, err
		}
		var page struct {
			WriterEpoch uint64 `json:"writer_epoch"`
			Batches     []struct {
				Epoch uint64 `json:"epoch"`
				Edits []struct {
					Op   string `json:"op"`
					U, V uint32
				} `json:"edits"`
			} `json:"batches"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return nil, fmt.Errorf("decode /feed: %w", err)
		}
		for _, b := range page.Batches {
			fb := feedBatch{Epoch: b.Epoch, Edits: make([]rslpa.Edit, len(b.Edits))}
			for i, e := range b.Edits {
				op := rslpa.Insert
				if e.Op == "delete" {
					op = rslpa.Delete
				}
				fb.Edits[i] = rslpa.Edit{Op: op, U: e.U, V: e.V}
			}
			out = append(out, fb)
			from = b.Epoch
		}
		if from >= page.WriterEpoch || len(page.Batches) == 0 {
			return out, nil
		}
	}
}

// runTrickle is the paper's regime: tiny batches on a large graph with
// every pipeline stage live. One open-loop producer submits 100 edits/s;
// the headline operation is an effective edit becoming visible in the
// follower's /communities, timed from the edit's due time.
func runTrickle(r *rig) (*windowResult, error) {
	const rate = 100
	interval := time.Second / rate
	nWarm := int(r.cfg.warmup() / interval)
	n := nWarm + int(r.cfg.window()/interval)
	// The pool is half the run long: replayed forward and then inverted it
	// ends at the start graph exactly when the window does, so the unwind
	// (a full extraction per batch on both tiers) has next to nothing to do.
	// It is never shorter than two flush intervals, so an edit and its
	// inverse never share a batch: they would cancel, and the join could
	// not tell which of the edge's edits the feed's survivor is.
	k := max(n/2, 2*int(r.def.opts.FlushInterval/interval))
	cur := &cursor{pool: newPool(r.graph, newRand(r.cfg.seed, saltPool), k)}
	edits := cur.next(n)
	res := &windowResult{layer: map[string]float64{}}

	ww := startWatcher(r.tr, "writer", r.srv.URL, func() uint64 { return r.svc.Snapshot().Epoch() })
	fw := startWatcher(r.tr, "follower", r.folSrv.URL, func() uint64 { return r.fol.Snapshot().Epoch() })
	defer ww.stop()
	defer fw.stop()

	var folBefore = r.fol.Stats()
	var pollsBefore int64
	var submitTime time.Duration
	start := time.Now().Add(10 * time.Millisecond)
	loop := runOpenLoop(start, interval, n, 1, func(i int) error {
		if i == nWarm {
			res.before, folBefore, pollsBefore = r.svc.Stats(), r.fol.Stats(), r.feedPolls.Load()
		}
		t0 := time.Now()
		err := r.tr.call("Service.Submit", func() error { return r.svc.Submit(edits[i]) })
		if i >= nWarm {
			submitTime += time.Since(t0)
		}
		return err
	})
	res.late = loop.late[nWarm:]
	res.attempted, res.failed = n-nWarm, loop.failed
	backlog := r.svc.Stats()
	res.layer["stream.queue_depth_end"] = float64(backlog.QueueDepth)
	res.checks = append(res.checks, check{
		Name: checkBacklog, OK: backlog.QueueDepth <= backlog.QueueCapacity/2,
		Detail: fmt.Sprintf("queue depth %d of %d at window end", backlog.QueueDepth, backlog.QueueCapacity),
	})

	// Let every accepted edit reach both tiers before judging visibility.
	var target uint64
	settled := waitFor(visibilityGrace, func() bool {
		st := r.svc.Stats()
		target = st.Epoch
		return st.QueueDepth == 0 && st.AppliedEdits+st.CoalescedEdits == st.SubmittedEdits
	}) && waitFor(visibilityGrace, func() bool {
		_, w := ww.visibleAt(target)
		_, f := fw.visibleAt(target)
		return w && f
	})
	res.after = r.svc.Stats()
	folAfter, pollsAfter := r.fol.Stats(), r.feedPolls.Load()
	// everything is every edit this run submits, in order, for the join.
	everything := edits[:n:n]
	// Live heap is periodic in the epoch count: each tier retains a window
	// of EvolutionDepth+1 snapshots and keeps what it evicted reachable for
	// up to a window more (830–1140 MB here). Single-edit epochs top the
	// run up to a whole number of windows, so every run measures the same
	// phase of that sawtooth.
	period := uint64(r.def.opts.EvolutionDepth + 1)
	for r.svc.Snapshot().Epoch()%period != 0 {
		e := cur.next(1)[0]
		everything = append(everything, e)
		if err := r.svc.Submit(e); err != nil {
			return nil, fmt.Errorf("top-up: %w", err)
		}
		if err := r.svc.Drain(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
	}
	topped := r.svc.Snapshot().Epoch()
	waitFor(visibilityGrace, func() bool { return r.fol.Snapshot().Epoch() == topped })
	// A published epoch's batch is not done yet: the journal append and the
	// checkpoint refresh (two 50 MB buffers in flight) follow. Measure the
	// heap only once both tiers are idle.
	if err := r.svc.Drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	time.Sleep(200 * time.Millisecond)
	res.heapMB = heapLiveMB()

	if r.cfg.trace {
		e := cur.next(1)[0]
		everything = append(everything, e)
		r.probeReads(res, e)
	}

	// Untimed unwind back to the start graph, then follower parity.
	unwind := cur.unwind()
	everything = append(everything, unwind...)
	if err := r.unwind(res, unwind); err != nil {
		return nil, err
	}
	finalEpoch := res.final.Epoch()
	parity := waitFor(3*visibilityGrace, func() bool { return r.fol.Snapshot().Epoch() == finalEpoch })

	feed, err := fetchFeed(ww.client, r.srv.URL, 0)
	if err != nil {
		return nil, fmt.Errorf("fetch feed: %w", err)
	}
	epochOf, coalesced := joinEpochs(everything, feed)
	var writerLat, gap []time.Duration
	for i := nWarm; i < n; i++ {
		if loop.done[i].IsZero() || epochOf[i] == 0 {
			continue // failed to submit (counted above) or coalesced away (counted below)
		}
		due := dueAt(start, interval, i)
		wAt, wOK := ww.visibleAt(epochOf[i])
		fAt, fOK := fw.visibleAt(epochOf[i])
		if !wOK || !fOK {
			res.failed++
			continue
		}
		res.ops++
		res.latency = append(res.latency, fAt.Sub(due))
		writerLat = append(writerLat, wAt.Sub(due))
		gap = append(gap, fAt.Sub(wAt))
		// Throughput is edits made visible over the time that took.
		res.elapsed = max(res.elapsed, fAt.Sub(dueAt(start, interval, nWarm)))
	}
	res.layer["bench.coalesced_away"] = float64(coalesced)
	res.layer["stream.visible_p50_ms"], _ = percentile(millis(writerLat), 0.5)
	res.layer["replica.gap_p50_ms"], _ = percentile(millis(gap), 0.5)
	res.layer["stream.submit_blocked_ms"] = ratio(float64(submitTime)/1e6, float64(n-nWarm))
	folBatches := float64(folAfter.Batches - folBefore.Batches)
	replayMicros := func(st replica.Stats) int64 {
		return st.TotalUpdateMicros + st.TotalPublishMicros + st.TotalEvolutionMicros
	}
	res.layer["replica.replay_ms_per_batch"] = ratio(float64(replayMicros(folAfter)-replayMicros(folBefore))/1e3, folBatches)
	res.layer["replica.feed_polls"] = float64(pollsAfter - pollsBefore)
	res.layer["replica.rebootstraps"] = float64(r.fol.Stats().Rebootstraps)
	res.layer["replica.bootstrap_ms"] = r.bootstrapMS

	for i := range feed {
		res.replay = append(res.replay, feed[i].Edits)
	}
	res.checks = append(res.checks,
		check{Name: "every accepted edit visible on both tiers within the grace period", OK: settled,
			Detail: fmt.Sprintf("target epoch %d, watcher errors writer=%d follower=%d", target, ww.failures(), fw.failures())},
		check{Name: "coalesced-away edits match the writer's counter",
			OK:     uint64(coalesced) == r.svc.Stats().CoalescedEdits,
			Detail: fmt.Sprintf("join says %d, writer says %d", coalesced, r.svc.Stats().CoalescedEdits)},
		check{Name: "follower reached the writer's final epoch", OK: parity,
			Detail: fmt.Sprintf("writer %d, follower %d", finalEpoch, r.fol.Snapshot().Epoch())},
	)
	if parity {
		maxID := uint32(r.graph.MaxVertexID())
		wh := labelHash(maxID, res.final.Labels)
		fh := labelHash(maxID, r.fol.Snapshot().Labels)
		res.checks = append(res.checks, check{Name: "follower labels bit-identical to the writer's", OK: wh == fh,
			Detail: fmt.Sprintf("writer %016x, follower %016x", wh, fh)})
		// The follower swaps its snapshot in before it diffs the epoch, so
		// its journal may trail the epoch it already serves for a moment.
		from := finalEpoch - min(finalEpoch, 4)
		var we, fe []byte
		var werr, ferr error
		same := waitFor(visibilityGrace, func() bool {
			we, werr = httpGet(ww.client, fmt.Sprintf("%s/events?from=%d", r.srv.URL, from))
			fe, ferr = httpGet(fw.client, fmt.Sprintf("%s/events?from=%d", r.folSrv.URL, from))
			return werr == nil && ferr == nil && bytes.Equal(we, fe)
		})
		res.checks = append(res.checks, check{Name: "follower /events byte-identical to the writer's", OK: same,
			Detail: fmt.Sprintf("from=%d: %d vs %d bytes (errors: %v, %v)", from, len(we), len(fe), werr, ferr)})
	}
	return res, nil
}

// ------------------------------------------------------------------ flood

// appliedWatcher samples the writer's applied-edit counter every
// millisecond, so the harness can tell when the edits up to a given
// position in the accepted stream were applied and published.
type appliedWatcher struct {
	mu      sync.Mutex
	applied []uint64 // ascending
	at      []time.Time
	quit    chan struct{}
	done    chan struct{}
}

func startAppliedWatcher(svc *rslpa.Service, mark time.Time, before *rslpa.ServiceStats) *appliedWatcher {
	w := &appliedWatcher{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var last uint64
		marked := false
		sample := func() {
			st := svc.Stats()
			now := time.Now()
			if !marked && !now.Before(mark) {
				*before, marked = st, true
			}
			if st.AppliedEdits != last {
				last = st.AppliedEdits
				w.mu.Lock()
				w.applied = append(w.applied, last)
				w.at = append(w.at, now)
				w.mu.Unlock()
			}
		}
		for {
			sample()
			select {
			case <-w.quit:
				sample()
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()
	return w
}

// stop takes one last reading and ends the watcher.
func (w *appliedWatcher) stop() {
	close(w.quit)
	<-w.done
}

// appliedAt is when the first pos accepted edits had all been applied.
func (w *appliedWatcher) appliedAt(pos uint64) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := sort.Search(len(w.applied), func(i int) bool { return w.applied[i] >= pos })
	if i == len(w.applied) {
		return time.Time{}, false
	}
	return w.at[i], true
}

// runFlood is ingest at a fixed rate with every optional stage off: one
// open-loop producer submits 16-edit chunks on a schedule, a fraction of
// what the write path can absorb, so nothing queues behind a slow batch and
// the flush interval paces the batches. The headline operation is one
// chunk, timed from its due time to the moment the writer's published
// snapshot includes it: the wait for the flush, then Update and publish.
//
// It is not a saturation run, because on a shared two-core machine
// saturation throughput of this memory-bound loop follows the machine, not
// the code: it drifts by 20–35 % over minutes whatever the window length. A
// traced run measures it all the same, in a closed-loop burst after the
// window, as a per-layer metric without a bound.
func runFlood(r *rig) (*windowResult, error) {
	const (
		chunk = 16
		poolK = 16384
		// replayBatches × MaxBatch pool edits feed the shadow replay: a
		// fixed sequence, so its counts repeat exactly for a seed.
		replayBatches = 32
		maxBatch      = 512
	)
	interval := time.Second * chunk / time.Duration(r.def.rate)
	nWarm := int(r.cfg.warmup() / interval)
	n := nWarm + int(r.cfg.window()/interval)
	// At most a sixteenth of the edges are ever displaced, which is the
	// whole pool on the benchmark's graph; a test-sized graph gets a smaller
	// pool, so the churn does not erode its communities.
	pool := newPool(r.graph, newRand(r.cfg.seed, saltPool), min(poolK, r.graph.NumEdges()/16))
	res := &windowResult{layer: map[string]float64{}}
	full := cursor{pool: pool}
	for i := 0; i < replayBatches; i++ {
		res.replay = append(res.replay, full.next(maxBatch))
	}

	cur := &cursor{pool: pool}
	start := time.Now().Add(10 * time.Millisecond)
	warmEnd := dueAt(start, interval, nWarm)
	aw := startAppliedWatcher(r.svc, warmEnd, &res.before)
	// pos[i] is chunk i's end in the accepted stream. There is one
	// submitter, so the service's own counter is exact.
	pos := make([]uint64, n)
	var blocked time.Duration
	loop := runOpenLoop(start, interval, n, 1, func(i int) error {
		edits := cur.next(chunk)
		t0 := time.Now()
		err := r.tr.call("Service.Submit", func() error { return r.svc.Submit(edits...) })
		if i >= nWarm {
			blocked += time.Since(t0)
		}
		pos[i] = r.svc.Stats().SubmittedEdits
		return err
	})
	backlog := r.svc.Stats()
	err := r.tr.call("Service.Drain", r.svc.Drain)
	aw.stop()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	res.after = r.svc.Stats()
	res.layer["stream.queue_depth_end"] = float64(backlog.QueueDepth)
	res.checks = append(res.checks, check{
		Name: checkBacklog, OK: backlog.QueueDepth <= backlog.QueueCapacity/2,
		Detail: fmt.Sprintf("queue depth %d of %d at window end", backlog.QueueDepth, backlog.QueueCapacity),
	})
	res.heapMB = heapLiveMB()

	res.late = loop.late[nWarm:]
	res.attempted = n - nWarm
	for i := nWarm; i < n; i++ {
		at, ok := aw.appliedAt(pos[i])
		if loop.done[i].IsZero() || !ok {
			res.failed++
			continue
		}
		res.ops += chunk
		res.latency = append(res.latency, at.Sub(dueAt(start, interval, i)))
		// Throughput is edits made visible over the time that took.
		res.elapsed = max(res.elapsed, at.Sub(warmEnd))
	}
	res.layer["stream.submit_blocked_ms"] = ratio(float64(blocked)/1e6, float64(n-nWarm))

	if r.cfg.trace {
		if err := r.saturate(res, cur, chunk); err != nil {
			return nil, err
		}
		r.probeReads(res, cur.next(1)[0])
	}
	if err := r.unwind(res, cur.unwind()); err != nil {
		return nil, err
	}
	r.checkUnwound(res)
	return res, nil
}

// saturate measures what the write path can absorb: one closed-loop
// producer submits chunks as fast as backpressure allows for a quarter of
// the window (at most 5 s), and the edits applied in that time, drain
// included, are the saturation throughput.
func (r *rig) saturate(res *windowResult, cur *cursor, chunk int) error {
	before := r.svc.Stats()
	t0 := time.Now()
	end := t0.Add(min(r.cfg.window()/4, 5*time.Second))
	for time.Now().Before(end) {
		edits := cur.next(chunk)
		if err := r.tr.call("Service.Submit (saturating)", func() error { return r.svc.Submit(edits...) }); err != nil {
			return fmt.Errorf("saturating submit: %w", err)
		}
	}
	if err := r.tr.call("Service.Drain", r.svc.Drain); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	applied := r.svc.Stats().AppliedEdits - before.AppliedEdits
	res.layer["stream.saturation_edits_per_s"] = ratio(float64(applied), time.Since(t0).Seconds())
	return nil
}

// unwind submits the edits that return the graph to its start state,
// untimed, and records the served state once they are applied.
func (r *rig) unwind(res *windowResult, edits []rslpa.Edit) error {
	err := r.tr.call("Service.Submit (unwind)", func() error { return r.svc.Submit(edits...) })
	if err == nil {
		err = r.tr.call("Service.Drain", r.svc.Drain)
	}
	if err != nil {
		return fmt.Errorf("unwind: %w", err)
	}
	res.final = r.svc.Snapshot()
	return nil
}

// checkUnwound closes the service and verifies the two flood invariants:
// the unwound graph's edge set equals the start graph's, and every
// accepted edit was either applied or coalesced away.
func (r *rig) checkUnwound(res *windowResult) {
	st := r.svc.Stats()
	res.checks = append(res.checks, check{Name: "submitted == applied + coalesced",
		OK:     st.SubmittedEdits == st.AppliedEdits+st.CoalescedEdits,
		Detail: fmt.Sprintf("%d == %d + %d", st.SubmittedEdits, st.AppliedEdits, st.CoalescedEdits)})
	// The detector's graph may only be read once the service stopped.
	r.svc.Close()
	want, got := r.graph.Edges(), r.det.Graph().Edges()
	same := len(want) == len(got)
	for i := 0; same && i < len(want); i++ {
		same = want[i] == got[i]
	}
	res.checks = append(res.checks, check{Name: "unwound edge set equals the start graph", OK: same,
		Detail: fmt.Sprintf("%d edges at start, %d after the unwind", len(want), len(got))})
}

// ---------------------------------------------------------------- hotspot

// readMix precomputes the URL path of every read of a run: per ten
// requests one /communities, eight /vertex/{v} with v drawn in proportion
// to its degree, and one /stats.
func readMix(g *rslpa.Graph, rng interface{ IntN(int) int }, n int) []string {
	edges := g.Edges()
	paths := make([]string, n)
	for i := range paths {
		switch i % 10 {
		case 0:
			paths[i] = "/communities"
		case 5:
			paths[i] = "/stats"
		default:
			// A uniformly random endpoint of a uniformly random edge is a
			// vertex drawn in proportion to its degree.
			k := edges[rng.IntN(len(edges))]
			v := uint32(k >> 32)
			if rng.IntN(2) == 1 {
				v = uint32(k)
			}
			paths[i] = "/vertex/" + strconv.FormatUint(uint64(v), 10)
		}
	}
	return paths
}

func routeOf(path string) string {
	if strings.HasPrefix(path, "/vertex/") {
		return "GET /vertex/{v}"
	}
	return "GET " + path
}

// runHotspot serves reads beside skewed writes. Extraction is lazy here,
// so the first read after each publish pays for it: the median is a warm
// render, the tail is the cold-read stall. The headline operation is one
// read over two keep-alive connections at 400 req/s, timed from its due
// time.
func runHotspot(r *rig) (*windowResult, error) {
	const (
		rate        = 400
		connections = 2
		burstEdits  = 512
		hotVertices = 64
		hotEdges    = 48
	)
	interval := time.Second / rate
	nWarm := int(r.cfg.warmup() / interval)
	n := nWarm + int(r.cfg.window()/interval)
	fl := newFlapper(r.graph, newRand(r.cfg.seed, saltHot), hotVertices, hotEdges)
	paths := readMix(r.graph, newRand(r.cfg.seed, saltReads), n)
	res := &windowResult{layer: map[string]float64{}}

	// One burst in the warm-up, then one per period, centred so each
	// cold-read stall ends inside the window.
	period := min(5*time.Second, r.cfg.window()/2)
	start := time.Now().Add(10 * time.Millisecond)
	warmEnd := dueAt(start, interval, nWarm)
	bursts := []time.Time{start.Add(r.cfg.warmup() / 2)}
	for t := warmEnd.Add(period / 2); t.Before(warmEnd.Add(r.cfg.window())); t = t.Add(period) {
		bursts = append(bursts, t)
	}
	var burstErr error
	var burstTime time.Duration
	burstsDone := make(chan struct{})
	go func() {
		defer close(burstsDone)
		for i, at := range bursts {
			time.Sleep(time.Until(at))
			if i == 1 {
				// Nothing writes between the warm-up's end and the window's
				// first burst, so the write-path counters read here are the
				// ones the window started with.
				res.before = r.svc.Stats()
			}
			raw := fl.burst(burstEdits)
			res.replay = append(res.replay, raw)
			t0 := time.Now()
			err := r.tr.call("Service.Submit (burst)", func() error { return r.svc.Submit(raw...) })
			burstTime += time.Since(t0)
			if err != nil && burstErr == nil {
				burstErr = err
			}
		}
	}()

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}
	defer client.CloseIdleConnections()
	loop := runOpenLoop(start, interval, n, connections, func(i int) error {
		return r.tr.call(routeOf(paths[i]), func() error {
			_, err := httpGet(client, r.srv.URL+paths[i])
			return err
		})
	})
	<-burstsDone
	if burstErr != nil {
		return nil, fmt.Errorf("burst submit: %w", burstErr)
	}
	if err := r.svc.Drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	res.after = r.svc.Stats()
	res.layer["stream.queue_depth_end"] = float64(res.after.QueueDepth)
	res.layer["stream.submit_blocked_ms"] = ratio(float64(burstTime)/1e6, float64(len(bursts)))
	// Measure the heap in one defined state: the current snapshot extracted
	// (as after any read), every older one garbage.
	if _, err := r.svc.Snapshot().Communities(); err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	res.heapMB = heapLiveMB()

	res.late = loop.late[nWarm:]
	res.attempted, res.failed = n-nWarm, 0
	for i := nWarm; i < n; i++ {
		if loop.done[i].IsZero() {
			res.failed++
			continue
		}
		res.ops++
		res.latency = append(res.latency, loop.done[i].Sub(dueAt(start, interval, i)))
		// Throughput is reads answered over the time that took.
		res.elapsed = max(res.elapsed, loop.done[i].Sub(warmEnd))
	}

	if r.cfg.trace {
		r.probeReads(res, fl.toggle(0))
	}
	if err := r.unwind(res, fl.unwind()); err != nil {
		return nil, err
	}
	r.checkUnwound(res)
	return res, nil
}

// labelHash is an FNV-1a hash over the label sequence of every vertex ID
// below maxID, in order: two detection states agree bit for bit exactly
// when their hashes do (up to hash collisions).
func labelHash(maxID uint32, labels func(uint32) []uint32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint32) {
		for s := 0; s < 32; s += 8 {
			h = (h ^ uint64(byte(x>>s))) * prime
		}
	}
	for v := uint32(0); v < maxID; v++ {
		ls := labels(v)
		mix(uint32(len(ls)))
		for _, l := range ls {
			mix(l)
		}
	}
	return h
}
