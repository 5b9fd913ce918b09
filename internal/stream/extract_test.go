package stream

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rslpa/internal/core"
	"rslpa/internal/dynamic"
	"rslpa/internal/graph"
	"rslpa/internal/lfr"
	"rslpa/internal/obs"
	"rslpa/internal/postprocess"
)

// referenceResult extracts sn from scratch with the sorted-RLE reference
// kernel (EncodeRuns + CommonRuns per edge, ForEachEdge order): what every
// extraction produced before weights were carried between epochs.
func referenceResult(sn *Snapshot) (*postprocess.Result, error) {
	var edges []postprocess.WeightedEdge
	metric := sn.pcfg.Metric
	for _, u := range sn.Vertices() {
		for _, v := range sn.Neighbors(u) {
			if u >= v {
				continue
			}
			lu, lv := sn.Labels(u), sn.Labels(v)
			common := postprocess.CommonRuns(postprocess.EncodeRuns(lu), postprocess.EncodeRuns(lv), metric)
			w := float64(common) / float64(len(lu))
			if metric == postprocess.SameLabelProbability {
				w = float64(common) / (float64(len(lu)) * float64(len(lv)))
			}
			edges = append(edges, postprocess.WeightedEdge{U: u, V: v, W: w})
		}
	}
	return postprocess.ExtractFromWeights(sn, edges, sn.pcfg)
}

// requireFullExtract pins sn's (possibly incremental) extraction to the
// reference: the Result must be deep-equal, field for field.
func requireFullExtract(t testing.TB, sn *Snapshot) {
	t.Helper()
	got, gerr := sn.Communities()
	want, werr := referenceResult(sn)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("epoch %d: extraction error %v, reference error %v", sn.Epoch(), gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch %d: extraction differs from the full reference extraction\ngot  %+v\nwant %+v", sn.Epoch(), got, want)
	}
}

// drainVerified is Drain for the suites' happy paths, with the epoch it
// publishes held to the reference extraction.
func drainVerified(t testing.TB, s *Service) {
	t.Helper()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	requireFullExtract(t, s.snap.Load())
}

// lfrState runs detection on a small LFR graph: communities with real
// structure, so extraction has strong components and weak attachments.
func lfrState(t testing.TB, n int, T int) (*core.State, *graph.Graph) {
	t.Helper()
	p := lfr.Default(n)
	p.AvgDeg, p.MaxDeg = 10, 30
	gen, err := lfr.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(gen.Graph, core.Config{T: T, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return st, gen.Graph
}

// requireBody holds the GET path body to want, on the request that fills
// the memo and on one served from it.
func requireBody(t testing.TB, h http.Handler, path string, want []byte) {
	t.Helper()
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("GET %s (request %d) = %d, body differs:\ngot  %.200s\nwant %.200s",
				path, i+1, rec.Code, rec.Body.Bytes(), want)
		}
	}
}

// requireRenderedBody holds the memoized GET path body of sn to a fresh
// encode of its document and returns it.
func requireRenderedBody(t testing.TB, h http.Handler, path string, sn *Snapshot) []byte {
	t.Helper()
	if _, err := sn.Communities(); err != nil {
		t.Fatal(err)
	}
	fresh := httptest.NewRecorder()
	WriteJSON(fresh, http.StatusOK, communitiesDoc(sn.cover))
	requireBody(t, h, path, fresh.Body.Bytes())
	return fresh.Body.Bytes()
}

// requireHistory holds GET /communities?epoch=E to the head body recorded
// at E, for every E of heads: 200 and the same bytes inside the window of
// the last depth+1 epochs up to head, 410 behind it.
func requireHistory(t testing.TB, h http.Handler, heads map[uint64][]byte, head uint64, depth int) {
	t.Helper()
	for e, want := range heads {
		path := fmt.Sprintf("/communities?epoch=%d", e)
		if e+uint64(depth) >= head {
			requireBody(t, h, path, want)
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusGone {
			t.Fatalf("GET %s at head %d = %d, want 410", path, head, rec.Code)
		}
	}
}

// Every epoch of a long edit stream extracts to the reference result —
// on the maintenance goroutine (for the evolution diff, or because
// drainVerified kept reading) or lazily by drainVerified itself — and the
// epochs after the first re-weigh only part of the graph. Each epoch's
// /communities body is byte-equal to a fresh encode, and with the tier on
// each retained ?epoch=E body is byte-equal to the body served while E
// was the head.
func TestIncrementalExtractEveryEpoch(t *testing.T) {
	for _, evoDepth := range []int{0, 4} {
		st, g := lfrState(t, 600, 30)
		batches, err := dynamic.Stream(g.Clone(), 20, 12, 41)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(seqDet{st}, Options{MaxBatch: 1 << 20, FlushInterval: time.Hour, EvolutionDepth: evoDepth})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		requireFullExtract(t, s.snap.Load())
		heads := map[uint64][]byte{0: requireRenderedBody(t, h, "/communities", s.snap.Load())}
		for _, batch := range batches {
			if err := s.Submit(batch...); err != nil {
				t.Fatal(err)
			}
			drainVerified(t, s)
			sn := s.snap.Load()
			if w := sn.work; w.reweighted == 0 || w.reweighted >= w.edges {
				t.Fatalf("evolution depth %d, epoch %d: re-weighed %d of %d edges, want a proper part",
					evoDepth, sn.Epoch(), w.reweighted, w.edges)
			}
			heads[sn.Epoch()] = requireRenderedBody(t, h, "/communities", sn)
			if s.evo != nil {
				requireHistory(t, h, heads, sn.Epoch(), evoDepth)
			}
		}
		s.Close()
	}
}

// Readers that keep pace with the publishes get each epoch extracted
// inside its flush, before the swap: once two epochs in a row were read,
// the extraction count rises inside Drain, not on the next read. Every
// publish consumes the demand, so a reader that skips an epoch — one that
// polls less often than the service publishes — finds the epochs after it
// published lazily and leaves no extraction unused, until it reads two in
// a row again. Lazy or not, the epoch right after the anchor re-weighs
// only what it touched. And a loop that did not idle for as long as the
// last extraction took since its previous flush leaves the extraction to
// the readers.
func TestReadDemandExtractsBeforeSwap(t *testing.T) {
	st, g := lfrState(t, 300, 20)
	batches, err := dynamic.Stream(g.Clone(), 5, 8, 47)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seqDet{st}, Options{MaxBatch: 1 << 20, FlushInterval: time.Hour, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	x := s.snap.Load().ext
	// publish applies batch i, after letting the loop idle for pause.
	publish := func(i int, pause time.Duration) *Snapshot {
		t.Helper()
		time.Sleep(pause)
		if err := s.Submit(batches[i]...); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		return s.snap.Load()
	}
	// rest is a pause the last extraction fits in: a service between
	// batches, not one flooded with them.
	rest := func() time.Duration { return time.Duration(x.last.Load()) + time.Millisecond }
	read := func(path string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
	}
	want := func(n uint64, after string) {
		t.Helper()
		if got := x.seconds.Count(); got != n {
			t.Fatalf("%s: %d extractions, want %d", after, got, n)
		}
	}
	requireIncremental := func(sn *Snapshot) {
		t.Helper()
		if w := sn.work; w.reweighted >= w.edges {
			t.Fatalf("epoch %d re-weighed %d of %d edges, want a proper part", sn.Epoch(), w.reweighted, w.edges)
		}
	}

	want(0, "before any read")
	read("/communities") // epoch 0, extracted by this reader
	publish(0, rest())
	want(1, "epoch 1 published after one epoch was read")
	read("/vertex/0") // epoch 1, lazily: Membership is a read too
	want(2, "the lazy read of epoch 1")
	requireIncremental(s.snap.Load())
	sn := publish(1, rest())
	want(3, "epoch 2 published after epochs 0 and 1 were read")
	requireIncremental(sn)
	read("/communities") // epoch 2, already extracted
	publish(2, rest())
	want(4, "epoch 3 published after epochs 1 and 2 were read")

	sn = publish(3, rest()) // nobody read epoch 3
	want(4, "epoch 4 published with no read since the last publish")
	requireFullExtract(t, sn) // epoch 4, lazily
	want(5, "the lazy read of epoch 4")
	requireIncremental(sn)
	publish(4, rest())
	want(5, "epoch 5 published after a reader skipped epoch 3")
	read("/communities") // epoch 5, lazily
	publish(5, rest())
	want(7, "epoch 6 published after epochs 4 and 5 were read")

	// The write-path gate: pretend the last extraction took 200 ms. A
	// publish after an idle stretch longer than that extracts inside
	// Drain; one right after the previous flush leaves epoch 8 to its
	// reader.
	read("/communities") // epoch 6, already extracted
	x.last.Store(int64(200 * time.Millisecond))
	publish(6, 250*time.Millisecond)
	want(8, "epoch 7 published after an idle stretch longer than the last extraction")
	read("/communities") // epoch 7, already extracted
	x.last.Store(int64(200 * time.Millisecond))
	publish(7, 0)
	want(8, "epoch 8 published without idling for the last extraction's duration")
	read("/communities") // epoch 8, lazily
	want(9, "the lazy read of epoch 8")
}

// The decision itself, step by step: readers must have read the last two
// epochs and the loop must have idled for the last extraction's duration;
// a live evolution tier extracts regardless, a latched one no longer does.
func TestExtractBeforeSwapPolicy(t *testing.T) {
	s := &Service{}
	x := newExtraction(nil)
	x.last.Store(int64(50 * time.Millisecond))
	for i, step := range []struct {
		read bool
		idle time.Duration
		evo  string // "", "live" or "latched"
		want bool
	}{
		{read: true, idle: time.Second, want: false},                 // one epoch read so far
		{read: true, idle: time.Second, want: true},                  // two in a row
		{read: true, idle: 10 * time.Millisecond, want: false},       // batches arriving faster than an extraction
		{read: true, idle: 50 * time.Millisecond, want: true},        // the extraction just fits
		{read: false, idle: time.Second, want: false},                // nobody read the head
		{read: true, idle: time.Second, want: false},                 // the epoch before went unread
		{read: true, idle: time.Second, want: true},                  // pace regained
		{read: false, idle: 0, evo: "live", want: true},              // the diff needs the cover
		{read: true, idle: time.Second, evo: "latched", want: false}, // a latched tier is no tier
		{read: true, idle: time.Second, evo: "latched", want: true},
		{read: false, idle: time.Second, evo: "latched", want: false},
	} {
		switch step.evo {
		case "":
			s.evo = nil
		case "live":
			s.evo = &evoTier{}
		case "latched":
			s.evo = &evoTier{failed: errors.New("diff failed")}
		}
		if step.read {
			x.noteRead()
		}
		if got := s.extractBeforeSwap(x, step.idle); got != step.want {
			t.Errorf("step %d %+v: extract before swap = %v", i, step, got)
		}
	}
}

// A service nobody reads never extracts: the write-only floods' invariant.
func TestWriteOnlyServiceNeverExtracts(t *testing.T) {
	st, g := lfrState(t, 300, 20)
	batches, err := dynamic.Stream(g.Clone(), 4, 20, 53)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seqDet{st}, Options{MaxBatch: 1 << 20, FlushInterval: time.Hour, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range batches {
		if err := s.Submit(b...); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Batches; got != uint64(len(batches)) {
		t.Fatalf("%d batches applied, want %d", got, len(batches))
	}
	if n := s.snap.Load().ext.seconds.Count(); n != 0 {
		t.Fatalf("rslpa_stream_extract_seconds_count = %d after %d unread batches, want 0", n, len(batches))
	}
}

// The cases that are not "the epoch right after the anchor" rebuild in
// full: a skipped epoch, a full-clone publish, and a snapshot older than
// the anchor — which also leaves the shared table where it was.
func TestExtractFallsBackToFull(t *testing.T) {
	st, g := lfrState(t, 300, 20)
	batches, err := dynamic.Stream(g.Clone(), 10, 5, 43)
	if err != nil {
		t.Fatal(err)
	}
	det := seqDet{st}
	sn0 := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
	sn0.ext = newExtraction(nil)
	x := sn0.ext
	snaps := []*Snapshot{sn0}
	for _, b := range batches {
		stats := st.Update(graph.Canonicalize(st.Graph(), b))
		snaps = append(snaps, nextSnapshot(snaps[len(snaps)-1], det, stats.Dirty, stats))
	}
	full := func(sn *Snapshot) bool { return sn.work.reweighted == sn.work.edges }

	requireFullExtract(t, snaps[0]) // first extraction
	requireFullExtract(t, snaps[1]) // anchor + 1
	requireFullExtract(t, snaps[3]) // skips epoch 2
	requireFullExtract(t, snaps[2]) // older than the anchor
	requireFullExtract(t, snaps[4]) // anchor + 1 again: the late read of 2 left the table at 3
	if !full(snaps[0]) || full(snaps[1]) || !full(snaps[3]) || !full(snaps[2]) || full(snaps[4]) {
		t.Fatalf("full/incremental pattern wrong: %v", []bool{full(snaps[0]), full(snaps[1]), full(snaps[2]), full(snaps[3]), full(snaps[4])})
	}
	if x.at != 4 {
		t.Fatalf("table anchored at epoch %d, want 4", x.at)
	}

	// A full-clone publish (detector reported no dirty set) cannot be
	// patched even though it is the next epoch.
	stats := st.Update(graph.Canonicalize(st.Graph(), batches[len(batches)-1]))
	fc := newSnapshot(5, det, postprocess.Config{}, stats)
	fc.ext = x
	requireFullExtract(t, fc)
	if !full(fc) {
		t.Fatalf("full-clone snapshot re-weighed %d of %d edges", fc.work.reweighted, fc.work.edges)
	}
}

// The evolution window retains covers, not snapshots: a snapshot is
// collectable as soon as it stops being the head, even while its epoch is
// still inside the window, and each retained ?epoch=E keeps serving the
// bytes served while E was the head. Covers evicted from the window, and
// batches evicted from the journal, must become collectable too: trimming
// a window by reslicing its front kept them reachable through the backing
// array.
func TestEvictedSnapshotIsCollected(t *testing.T) {
	const depth = 2
	s, _ := newTestService(t, Options{FlushInterval: time.Hour, EvolutionDepth: depth, JournalDepth: depth})
	h := s.Handler()
	snapsGone := make(chan uint64, 16)
	coversGone := make(chan uint64, 16)
	heads := map[uint64][]byte{}
	track := func() {
		sn := s.snap.Load()
		epoch := sn.Epoch()
		heads[epoch] = requireRenderedBody(t, h, "/communities", sn)
		runtime.SetFinalizer(sn, func(*Snapshot) { snapsGone <- epoch })
		runtime.SetFinalizer(sn.cover, func(*cover) { coversGone <- epoch })
	}
	track() // epoch 0
	const head = 6
	for i := 0; i < head; i++ {
		if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 10 + uint32(i)}); err != nil {
			t.Fatal(err)
		}
		drainVerified(t, s)
		track()
	}
	// awaitCollected collects from gone until it holds exactly the epochs
	// below n: every one of them unreachable, none at or above n.
	awaitCollected := func(what string, gone chan uint64, n uint64) {
		t.Helper()
		seen := map[uint64]bool{}
		deadline := time.After(10 * time.Second)
		for uint64(len(seen)) < n {
			runtime.GC()
			select {
			case e := <-gone:
				if e >= n {
					t.Fatalf("retained %s of epoch %d was collected", what, e)
				}
				seen[e] = true
			case <-deadline:
				t.Fatalf("%ss still reachable after GC: collected only %v of epochs below %d", what, seen, n)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	// Epochs 0..6 published; the window holds the covers of 4..6 and only
	// the head keeps its snapshot.
	awaitCollected("snapshot", snapsGone, head)
	awaitCollected("cover", coversGone, head-depth)
	requireHistory(t, h, heads, head, depth)

	s.jmu.RLock()
	journal := s.journal
	s.jmu.RUnlock()
	if len(journal) != depth {
		t.Fatalf("journal holds %d batches, want %d", len(journal), depth)
	}
	for _, fb := range journal[len(journal):cap(journal)] {
		if fb.edits != nil {
			t.Fatal("journal backing array still references an evicted batch")
		}
	}
}

// A flush that outlasts FlushInterval returns to a pending tick and a
// filled queue at once. The tick's flush must take the queue with it: one
// batch carrying every queued edit, however select orders the two. (A
// loop that flushes on the tick without draining passes a round only when
// select happens to take the tick before any queued edit — half the time —
// so the rounds make that outcome unmistakable.)
func TestTickFlushDrainsQueue(t *testing.T) {
	for round := 0; round < 8; round++ {
		tickFlushRound(t)
	}
}

func tickFlushRound(t *testing.T) {
	det := newBatchLog(t, true)
	const interval = 10 * time.Millisecond
	s, err := New(det, Options{MaxBatch: 1 << 20, FlushInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Submit(graph.Edit{Op: graph.Insert, U: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
	<-det.entered // the loop is now stuck inside the first batch's flush
	const queued = 64
	for i := uint32(0); i < queued; i++ {
		if err := s.Submit(graph.Edit{Op: graph.Insert, U: 1, V: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(3 * interval) // let a tick go pending behind the stuck flush
	close(det.release)
	// No Drain here: its control message would compete with the tick for
	// the loop's select and hide the tick's own behaviour.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().AppliedEdits < 1+queued {
		if time.Now().After(deadline) {
			t.Fatalf("queued edits never applied: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Batches != 2 || st.LastBatchEdits != queued {
		t.Fatalf("%d batches, last with %d edits; want 2 batches, the second with all %d queued edits",
			st.Batches, st.LastBatchEdits, queued)
	}
	requireFullExtract(t, s.snap.Load())
}

// fuzzIDs are the vertex IDs FuzzIncrementalExtract edits: the seed
// graph's, a few fresh ones, both sides of the first shard boundary, and
// one a whole shard further out.
var fuzzIDs = []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
	graph.ShardSize - 2, graph.ShardSize - 1, graph.ShardSize, graph.ShardSize + 1, 2*graph.ShardSize + 3}

// FuzzIncrementalExtract drives a detector through fuzz-chosen batches —
// edge toggles, vertex creation and removal, ID-space growth across a
// shard boundary — publishing a copy-on-write snapshot per epoch, and
// extracts the snapshots in a fuzz-chosen order: some epochs skipped,
// some retained snapshots read late and out of order, the rest at the end
// from concurrent readers. Every extraction must equal the reference.
func FuzzIncrementalExtract(f *testing.F) {
	f.Add([]byte{0, 1, 5, 6, 0, 2, 7, 6, 4, 12, 6, 5, 3, 6})
	f.Add([]byte{0, 10, 11, 0, 11, 12, 6, 0, 12, 13, 0, 14, 0, 7, 0, 6, 5, 12, 5, 14, 6})
	f.Add([]byte{4, 14, 0, 14, 1, 0, 3, 9, 0, 9, 8, 7, 1, 5, 14, 6, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		st, err := core.Run(testGraph(), core.Config{T: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		det := seqDet{st}
		cur := newSnapshot(0, det, postprocess.Config{}, core.UpdateStats{})
		cur.ext = newExtraction(nil)
		snaps := []*Snapshot{cur}
		publish := func(stats core.UpdateStats) {
			cur = nextSnapshot(cur, det, stats.Dirty, stats)
			snaps = append(snaps, cur)
		}
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		id := func() uint32 {
			b, _ := next()
			return fuzzIDs[int(b)%len(fuzzIDs)]
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 8 {
			case 0, 1, 2, 3: // a batch of op%4+1 edge toggles
				var batch []graph.Edit
				for k := 0; k <= int(op%4); k++ {
					u, v := id(), id()
					if u == v {
						continue
					}
					e := graph.Edit{Op: graph.Insert, U: u, V: v}
					if st.Graph().HasEdge(u, v) {
						e.Op = graph.Delete
					}
					batch = append(batch, e)
				}
				if canon := graph.Canonicalize(st.Graph(), batch); len(canon) > 0 {
					publish(st.Update(canon))
				}
			case 4:
				if stats, ok := st.AddVertex(id()); ok {
					publish(stats)
				}
			case 5:
				if stats, ok := st.RemoveVertex(id()); ok {
					publish(stats)
				}
			case 6: // read the current epoch (epochs since the last read were skipped)
				requireFullExtract(t, cur)
			case 7: // read a retained snapshot late
				b, _ := next()
				requireFullExtract(t, snaps[int(b)%len(snaps)])
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; i < len(snaps); i += 2 { // overlapping strides: some snapshots get two readers
					got, gerr := snaps[i].Communities()
					want, werr := referenceResult(snaps[i])
					if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
						t.Errorf("concurrent read of epoch %d differs from the reference (errors %v, %v)", snaps[i].Epoch(), gerr, werr)
					}
				}
			}(r)
		}
		wg.Wait()
	})
}
