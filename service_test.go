package rslpa_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rslpa"
	"rslpa/internal/dynamic"
	"rslpa/internal/evolution"
	"rslpa/internal/replica"
	"rslpa/internal/stream"
)

// labelHash folds the full label matrix (and the edge count) of a state
// into one word; two states hash equal iff their detection state is
// bit-identical over the dense ID range [0, maxID).
func labelHash(maxID uint32, edges int, labels func(uint32) []uint32) uint64 {
	h := fnv.New64a()
	word := func(x uint32) {
		h.Write([]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)})
	}
	word(uint32(edges))
	for v := uint32(0); v < maxID; v++ {
		seq := labels(v)
		word(uint32(len(seq)))
		for _, l := range seq {
			word(l)
		}
	}
	return h.Sum64()
}

func requireSameLabels(t *testing.T, maxID uint32, a, b func(uint32) []uint32) {
	t.Helper()
	for v := uint32(0); v < maxID; v++ {
		la, lb := a(v), b(v)
		if len(la) != len(lb) {
			t.Fatalf("vertex %d: label lengths %d vs %d", v, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("vertex %d label %d: %d vs %d", v, i, la[i], lb[i])
			}
		}
	}
}

// serviceGraph is a 200-vertex LFR graph — big enough for interesting
// batches, small enough to keep -race runs fast.
func serviceGraph(t testing.TB) *rslpa.Graph {
	t.Helper()
	params := rslpa.DefaultLFR(200)
	params.AvgDeg, params.MaxDeg = 8, 24
	g, _, err := rslpa.GenerateLFR(params)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The acceptance pin: ≥4 concurrent producers racing edits into the
// service and ≥4 concurrent readers querying it must, after drain, leave
// the detector bit-identical to a serial caller pushing the same edits
// through Detector.Update — regardless of producer interleaving, because
// coalescing canonicalizes the net batch.
func TestServiceMatchesSerialUpdate(t *testing.T) {
	g := serviceGraph(t)
	cfg := rslpa.Config{T: 40, Seed: 9}
	maxID := uint32(g.MaxVertexID())

	edits, err := dynamic.Batch(g, 200, 42)
	if err != nil {
		t.Fatal(err)
	}

	det, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One coalesced batch: flush only at Drain.
	svc, err := rslpa.NewService(det, rslpa.ServiceOptions{MaxBatch: 1 << 20, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const producers, readers = 4, 4
	var rwg, pwg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r uint32) {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := svc.Snapshot()
				if e := sn.Epoch(); e != 0 && e != 1 {
					t.Errorf("impossible epoch %d", e)
					return
				}
				// A snapshot is always complete: every present vertex
				// has a full label sequence and extraction succeeds.
				if seq := sn.Labels(r % maxID); sn.HasVertex(r%maxID) && len(seq) != cfg.T+1 {
					t.Errorf("partial label read: %d labels", len(seq))
					return
				}
				if _, err := sn.Membership(r % maxID); err != nil {
					t.Errorf("membership: %v", err)
					return
				}
			}
		}(uint32(r))
	}
	per := len(edits) / producers
	for p := 0; p < producers; p++ {
		lo, hi := p*per, (p+1)*per
		if p == producers-1 {
			hi = len(edits)
		}
		pwg.Add(1)
		go func(chunk []rslpa.Edit) {
			defer pwg.Done()
			// Edits trickle in one at a time to maximize interleaving.
			for _, e := range chunk {
				if err := svc.Submit(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(edits[lo:hi])
	}
	// Wait for the producers only, then drain; readers keep querying
	// through the flush itself.
	pwg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rwg.Wait()

	sn := svc.Snapshot()
	if sn.Epoch() != 1 {
		t.Fatalf("epoch after drain = %d, want 1 (single coalesced batch)", sn.Epoch())
	}

	// Serial twin: same edits, one Update call, any order.
	serial, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	if _, err := serial.Update(edits); err != nil {
		t.Fatal(err)
	}
	requireSameLabels(t, maxID, sn.Labels, serial.Labels)

	got, err := sn.Communities()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Communities()
	if err != nil {
		t.Fatal(err)
	}
	if got.Tau1 != want.Tau1 || got.Tau2 != want.Tau2 {
		t.Fatalf("thresholds: service (%v,%v) serial (%v,%v)", got.Tau1, got.Tau2, want.Tau1, want.Tau2)
	}
	a, b := got.Communities.Canonical(), want.Communities.Canonical()
	if len(a) != len(b) {
		t.Fatalf("community counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("community %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("community %d member %d: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// With deterministic batch boundaries (one producer, MaxBatch = the
// generator's batch size) the service applies exactly the serial caller's
// batches — and every snapshot a concurrent reader ever observes matches
// the serial detector at that epoch bit for bit: epochs are complete, or
// not published at all.
func TestServiceSnapshotsMatchSerialEpochs(t *testing.T) {
	g := serviceGraph(t)
	cfg := rslpa.Config{T: 30, Seed: 5}
	maxID := uint32(g.MaxVertexID())
	const batchSize, batchCount = 50, 6

	evolving := g.Clone()
	batches, err := dynamic.Stream(evolving, batchSize, batchCount, 31)
	if err != nil {
		t.Fatal(err)
	}

	// Serial twin first: hash the state at every epoch.
	serial, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	// The serial twin extracts every epoch in full; the service carries
	// its edge weights from one epoch's extraction to the next. The two
	// must agree on every field of the result.
	extractSerial := func() *rslpa.Result {
		res, err := serial.Communities()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantHash := map[uint64]uint64{0: labelHash(maxID, serial.Graph().NumEdges(), serial.Labels)}
	wantRes := map[uint64]*rslpa.Result{0: extractSerial()}
	for e, batch := range batches {
		if _, err := serial.Update(batch); err != nil {
			t.Fatal(err)
		}
		wantHash[uint64(e+1)] = labelHash(maxID, serial.Graph().NumEdges(), serial.Labels)
		wantRes[uint64(e+1)] = extractSerial()
	}

	det, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rslpa.NewService(det, rslpa.ServiceOptions{MaxBatch: batchSize, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	type obs struct {
		epoch uint64
		hash  uint64
		res   *rslpa.Result
	}
	const readers = 4
	observed := make([][]obs, readers)
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			var seen []obs
			last := uint64(1<<64 - 1)
			// Hash every distinct epoch the first time it appears;
			// re-hashing an already-verified epoch adds nothing.
			observe := func() {
				sn := svc.Snapshot()
				if e := sn.Epoch(); e != last {
					last = e
					res, err := sn.Communities()
					if err != nil {
						t.Errorf("epoch %d: %v", e, err)
					}
					seen = append(seen, obs{e, labelHash(maxID, sn.NumEdges(), sn.Labels), res})
				}
			}
			observe() // at least one observation even if the stream outruns us
			for {
				select {
				case <-stop:
					observed[r] = seen
					return
				default:
				}
				observe()
			}
		}(r)
	}

	for _, batch := range batches {
		for _, e := range batch {
			if err := svc.Submit(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rwg.Wait()

	sn := svc.Snapshot()
	if sn.Epoch() != batchCount {
		t.Fatalf("final epoch %d, want %d", sn.Epoch(), batchCount)
	}
	requireSameLabels(t, maxID, sn.Labels, serial.Labels)

	total := 0
	for r, seen := range observed {
		total += len(seen)
		for _, o := range seen {
			want, ok := wantHash[o.epoch]
			if !ok {
				t.Fatalf("reader %d saw epoch %d, beyond the %d applied batches", r, o.epoch, batchCount)
			}
			if o.hash != want {
				t.Fatalf("reader %d: snapshot at epoch %d does not match the serial detector at that epoch (torn or partial state)", r, o.epoch)
			}
			if !reflect.DeepEqual(o.res, wantRes[o.epoch]) {
				t.Fatalf("reader %d: communities at epoch %d differ from the serial detector's full extraction", r, o.epoch)
			}
		}
	}
	if total == 0 {
		t.Fatal("readers observed nothing")
	}
}

// Snapshot isolation under the distributed engine: readers hammer
// snapshots (labels, membership, extraction) while the BSP engine applies
// update batches concurrently. The race detector pins that queries never
// share memory with in-flight shard mutation; the assertions pin that
// every observed snapshot is complete.
func TestServiceDistributedSnapshotIsolation(t *testing.T) {
	g := serviceGraph(t)
	cfg := rslpa.Config{T: 25, Seed: 13, Workers: 3}
	maxID := uint32(g.MaxVertexID())

	evolving := g.Clone()
	batches, err := dynamic.Stream(evolving, 40, 6, 63)
	if err != nil {
		t.Fatal(err)
	}

	det, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rslpa.NewService(det, rslpa.ServiceOptions{MaxBatch: 16, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const producers, readers = 4, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r uint32) {
			defer wg.Done()
			v := r
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := svc.Snapshot()
				if sn.HasVertex(v % maxID) {
					if seq := sn.Labels(v % maxID); len(seq) != cfg.T+1 {
						t.Errorf("vertex %d: %d labels, want %d", v%maxID, len(seq), cfg.T+1)
						return
					}
				}
				if v%5 == 0 {
					res, err := sn.Communities()
					if err != nil {
						t.Errorf("extraction at epoch %d: %v", sn.Epoch(), err)
						return
					}
					if res.Communities.Len() == 0 {
						t.Errorf("empty cover at epoch %d", sn.Epoch())
						return
					}
				}
				v += 11
			}
		}(uint32(r))
	}

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := p; i < len(batches); i += producers {
				for _, e := range batches[i] {
					if err := svc.Submit(e); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	pwg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// After drain (no updates in flight) the snapshot agrees with the
	// distributed detector's own Labels accessor.
	sn := svc.Snapshot()
	if sn.Epoch() == 0 {
		t.Fatal("no batches applied")
	}
	requireSameLabels(t, maxID, sn.Labels, det.Labels)
}

// A held snapshot's label rows are the detector's own slices, frozen when
// the snapshot was published. While 60 seeded batches apply, a reader
// checksums every row of the held epoch over and over, and the checksum
// must never move, on the sequential engine and on two BSP workers. Under
// -race a write to a frozen row is also reported as a data race.
func TestServiceHeldSnapshotRowsStayFrozen(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := serviceGraph(t)
			maxID := uint32(g.MaxVertexID())
			batches, err := dynamic.Stream(g.Clone(), 8, 61, 29)
			if err != nil {
				t.Fatal(err)
			}
			det, err := rslpa.Detect(g, rslpa.Config{T: 30, Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			svc, err := rslpa.NewService(det, rslpa.ServiceOptions{FlushInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			apply := func(b []rslpa.Edit) {
				t.Helper()
				if err := svc.Submit(b...); err != nil {
					t.Fatal(err)
				}
				if err := svc.Drain(); err != nil {
					t.Fatal(err)
				}
			}

			apply(batches[0])
			held := svc.Snapshot()
			checksum := func() uint64 { return labelHash(maxID, held.NumEdges(), held.Labels) }
			want := checksum()

			var stop, moved atomic.Bool
			var passes atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for !stop.Load() {
					if checksum() != want {
						moved.Store(true)
					}
					passes.Add(1)
				}
			}()
			for _, b := range batches[1:] {
				apply(b)
			}
			stop.Store(true)
			<-done

			head := svc.Snapshot()
			if head.Epoch() < held.Epoch()+60 {
				t.Fatalf("head at epoch %d, held %d: want ≥ 60 batches applied", head.Epoch(), held.Epoch())
			}
			if labelHash(maxID, head.NumEdges(), head.Labels) == want {
				t.Fatal("the batches changed no label: the test would prove nothing")
			}
			if moved.Load() || checksum() != want {
				t.Fatalf("held epoch %d's rows changed while %d batches applied (%d reader passes)",
					held.Epoch(), head.Epoch()-held.Epoch(), passes.Load())
			}
			t.Logf("held epoch %d unchanged over %d batches and %d reader passes",
				held.Epoch(), head.Epoch()-held.Epoch(), passes.Load())
		})
	}
}

// A service restarted from its checkpoint resumes maintenance
// bit-identically to a detector that never stopped.
func TestServiceCheckpointResume(t *testing.T) {
	g := serviceGraph(t)
	cfg := rslpa.Config{T: 30, Seed: 21}
	maxID := uint32(g.MaxVertexID())
	ckpt := filepath.Join(t.TempDir(), "service.ckpt")

	evolving := g.Clone()
	batches, err := dynamic.Stream(evolving, 40, 3, 17)
	if err != nil {
		t.Fatal(err)
	}

	det, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rslpa.NewService(det, rslpa.ServiceOptions{
		MaxBatch: 1 << 20, FlushInterval: time.Hour,
		CheckpointPath: ckpt, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[:2] {
		if err := svc.Submit(batch...); err != nil {
			t.Fatal(err)
		}
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Restart: load the checkpoint, serve again, apply the third batch.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := rslpa.LoadDetector(f, rslpa.Config{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := rslpa.NewService(restored, rslpa.ServiceOptions{MaxBatch: 1 << 20, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if err := svc2.Submit(batches[2]...); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Drain(); err != nil {
		t.Fatal(err)
	}

	// Twin that never restarted.
	twin, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for _, batch := range batches {
		if _, err := twin.Update(batch); err != nil {
			t.Fatal(err)
		}
	}
	requireSameLabels(t, maxID, svc2.Snapshot().Labels, twin.Labels)
}

// Regression for the service-shutdown path: Detector.Close is idempotent
// and safe to call from many goroutines, racing in-flight Labels queries.
func TestDetectorCloseIdempotentConcurrent(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		det, err := rslpa.Detect(twoBlocks(), rslpa.Config{T: 10, Seed: 2, Workers: 2, TCP: tcp})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = det.Close()
			}(i)
		}
		for v := uint32(0); v < 4; v++ {
			wg.Add(1)
			go func(v uint32) {
				defer wg.Done()
				det.Labels(v) // must not race Close
			}(v)
		}
		wg.Wait()
		for i, err := range errs {
			if err != errs[0] {
				t.Fatalf("tcp=%v: Close %d returned %v, Close 0 returned %v", tcp, i, err, errs[0])
			}
		}
		if err := det.Close(); err != errs[0] {
			t.Fatalf("tcp=%v: late Close returned %v", tcp, err)
		}
	}
	// Sequential detectors: trivially idempotent.
	det, err := rslpa.Detect(twoBlocks(), rslpa.Config{T: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if det.Close() != nil || det.Close() != nil {
		t.Fatal("sequential Close not idempotent")
	}
}

// Detector.Update shares the service's canonical-batch semantics.
func TestUpdateCanonicalizesBatches(t *testing.T) {
	det, err := rslpa.Detect(twoBlocks(), rslpa.Config{T: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	stats, err := det.Update([]rslpa.Edit{
		{Op: rslpa.Insert, U: 5, V: 105},
		{Op: rslpa.Insert, U: 105, V: 5}, // duplicate, reversed
		{Op: rslpa.Delete, U: 7, V: 42},  // absent → no-op
		{Op: rslpa.Insert, U: 3, V: 3},   // self-loop
		{Op: rslpa.Insert, U: 6, V: 106}, // cancelled below
		{Op: rslpa.Delete, U: 6, V: 106},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 || stats.Deleted != 0 {
		t.Fatalf("canonical stats: %+v", stats)
	}

	// Permuting a batch does not change the resulting state.
	a, err := rslpa.Detect(twoBlocks(), rslpa.Config{T: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := rslpa.Detect(twoBlocks(), rslpa.Config{T: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	batch := []rslpa.Edit{
		{Op: rslpa.Insert, U: 1, V: 101},
		{Op: rslpa.Delete, U: 0, V: 100},
		{Op: rslpa.Insert, U: 2, V: 102},
	}
	perm := []rslpa.Edit{batch[2], batch[0], batch[1]}
	if _, err := a.Update(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update(perm); err != nil {
		t.Fatal(err)
	}
	requireSameLabels(t, 110, a.Labels, b.Labels)
}

// fetchFeed pages through a writer's replication feed starting after
// epoch from, returning every journaled batch in epoch order.
func fetchFeed(t *testing.T, base string, from uint64) []stream.FeedEntry {
	t.Helper()
	var out []stream.FeedEntry
	for {
		resp, err := http.Get(fmt.Sprintf("%s/feed?from=%d&max=1024", base, from))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /feed?from=%d: %d: %s", from, resp.StatusCode, body)
		}
		var fr stream.FeedResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if len(fr.Batches) == 0 {
			return out
		}
		out = append(out, fr.Batches...)
		from = fr.Batches[len(fr.Batches)-1].Epoch
	}
}

// The read-tier correctness pin, end to end: 4 concurrent producers race
// edits into a journaling writer while a follower tails it over HTTP —
// and the writer crash-restarts from its checkpoint mid-run. Every
// snapshot the follower ever publishes at epoch E must be bit-identical
// to the writer's state at epoch E.
//
// With racing producers the writer's batch boundaries are
// nondeterministic, so the per-epoch ground truth cannot come from a
// pre-made serial batch list: it is built by replaying the writer's own
// feed — the exact canonical batches it applied — through a fresh
// detector, hashing after each epoch.
func TestFollowerMatchesWriterEpochsAcrossRestart(t *testing.T) {
	g := serviceGraph(t)
	cfg := rslpa.Config{T: 30, Seed: 13}
	maxID := uint32(g.MaxVertexID())
	opts := rslpa.ServiceOptions{
		MaxBatch: 64, FlushInterval: time.Hour,
		CheckpointPath:  filepath.Join(t.TempDir(), "writer.ckpt"),
		CheckpointEvery: 2,
		JournalDepth:    4096,
	}

	det1, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := rslpa.NewService(det1, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Stable front door: the follower keeps one writer URL across the
	// writer restart, exactly as it would behind a load balancer.
	var handler atomic.Pointer[http.Handler]
	setHandler := func(h http.Handler) { handler.Store(&h) }
	setHandler(svc1.Handler())
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()

	f, err := replica.New(replica.Options{
		WriterURL: front.URL, PollInterval: 2 * time.Millisecond,
		RetryMin: time.Millisecond, RetryMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Observer: hash every distinct epoch the follower publishes, the
	// first time it appears.
	type obs struct {
		epoch uint64
		hash  uint64
		res   rslpa.Result
	}
	var seen []obs
	stop := make(chan struct{})
	var owg sync.WaitGroup
	owg.Add(1)
	go func() {
		defer owg.Done()
		last := uint64(1<<64 - 1)
		for {
			sn := f.Snapshot()
			if e := sn.Epoch(); e != last {
				last = e
				o := obs{epoch: e, hash: labelHash(maxID, sn.NumEdges(), sn.Labels)}
				if res, err := sn.Communities(); err != nil {
					t.Errorf("follower epoch %d: %v", e, err)
				} else {
					o.res = rslpa.Result{Communities: res.Cover, Tau1: res.Tau1, Tau2: res.Tau2,
						Strong: res.Strong, Weak: res.Weak, Entropy: res.Entropy}
				}
				seen = append(seen, o)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// produce races one phase's edits into a writer from 4 goroutines,
	// one edit at a time, then drains. Batch composition is up to the
	// scheduler; the journal records whatever the writer actually applied.
	produce := func(svc *rslpa.Service, edits []rslpa.Edit) {
		const producers = 4
		per := (len(edits) + producers - 1) / producers
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			lo, hi := p*per, min((p+1)*per, len(edits))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(chunk []rslpa.Edit) {
				defer wg.Done()
				for _, e := range chunk {
					if err := svc.Submit(e); err != nil {
						t.Error(err)
						return
					}
				}
			}(edits[lo:hi])
		}
		wg.Wait()
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	phaseEdits := func(seed uint64) []rslpa.Edit {
		batches, err := dynamic.Stream(g.Clone(), 50, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		var flat []rslpa.Edit
		for _, b := range batches {
			flat = append(flat, b...)
		}
		return flat
	}

	// Phase 1, then capture the feed before tearing the writer down.
	produce(svc1, phaseEdits(71))
	e1 := svc1.Stats().Epoch
	feed1 := fetchFeed(t, front.URL, 0)
	if len(feed1) == 0 || feed1[len(feed1)-1].Epoch != e1 {
		t.Fatalf("feed ends at wrong epoch: %d entries, writer at %d", len(feed1), e1)
	}

	// Crash-restart: writer goes dark, then a new instance resumes from
	// the checkpoint Close flushed. Its BaseEpoch continues at e1, so the
	// follower sees a seamless epoch sequence.
	setHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "writer down", http.StatusServiceUnavailable)
	}))
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.Open(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	det2, err := rslpa.LoadDetector(ckpt, rslpa.Config{})
	ckpt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if det2.Epoch() != e1 {
		t.Fatalf("restarted writer at epoch %d, want %d", det2.Epoch(), e1)
	}
	svc2, err := rslpa.NewService(det2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	setHandler(svc2.Handler())

	// Phase 2 on the restarted writer.
	produce(svc2, phaseEdits(72))
	e2 := svc2.Stats().Epoch
	if e2 <= e1 {
		t.Fatalf("restarted writer did not advance: %d after %d", e2, e1)
	}
	feed2 := fetchFeed(t, front.URL, e1)
	if len(feed2) == 0 || feed2[len(feed2)-1].Epoch != e2 {
		t.Fatalf("post-restart feed ends at wrong epoch: %d entries, writer at %d", len(feed2), e2)
	}

	// Let the follower converge, then stop observing.
	deadline := time.Now().Add(30 * time.Second)
	for f.Stats().FollowerEpoch < e2 {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck: %+v", f.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	owg.Wait()

	// Ground truth: replay the writer's own canonical batches through a
	// fresh twin, hashing at every epoch.
	twin, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	// The twin also extracts every epoch in full — the reference for the
	// follower's epoch-to-epoch weight reuse, re-bootstraps included.
	extractTwin := func() rslpa.Result {
		res, err := twin.Communities()
		if err != nil {
			t.Fatal(err)
		}
		return *res
	}
	wantHash := map[uint64]uint64{0: labelHash(maxID, twin.Graph().NumEdges(), twin.Labels)}
	wantRes := map[uint64]rslpa.Result{0: extractTwin()}
	for _, entry := range append(feed1, feed2...) {
		batch, err := entry.GraphEdits()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Update(batch); err != nil {
			t.Fatal(err)
		}
		wantHash[entry.Epoch] = labelHash(maxID, twin.Graph().NumEdges(), twin.Labels)
		wantRes[entry.Epoch] = extractTwin()
	}

	if len(seen) == 0 {
		t.Fatal("observer saw nothing")
	}
	for _, o := range seen {
		want, ok := wantHash[o.epoch]
		if !ok {
			t.Fatalf("follower published epoch %d, which the writer never journaled", o.epoch)
		}
		if o.hash != want {
			t.Fatalf("follower snapshot at epoch %d does not hash-match the writer at that epoch", o.epoch)
		}
		if !reflect.DeepEqual(o.res, wantRes[o.epoch]) {
			t.Fatalf("follower communities at epoch %d differ from a full extraction of the writer's state", o.epoch)
		}
	}
	sn := f.Snapshot()
	if sn.Epoch() != e2 {
		t.Fatalf("final follower epoch %d, want %d", sn.Epoch(), e2)
	}
	if got := labelHash(maxID, sn.NumEdges(), sn.Labels); got != wantHash[e2] {
		t.Fatalf("final follower state diverged from writer at epoch %d", e2)
	}
	requireSameLabels(t, maxID, sn.Labels, func(v uint32) []uint32 { return svc2.Snapshot().Labels(v) })
}

// fetchEventsPage GETs one /events page and returns the raw body next to
// the decoded envelope (the raw bytes are what the equivalence pin
// compares).
func fetchEventsPage(t *testing.T, base string, from uint64, max int) ([]byte, []evolution.Event) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/events?from=%d&max=%d", base, from, max))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/events?from=%d: %d: %s", base, from, resp.StatusCode, body)
	}
	var env struct {
		Events []evolution.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	return body, env.Events
}

// fetchBody GETs url and returns the raw body and status.
func fetchBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// The evolution equivalence pin: a follower that bootstraps the writer's
// evolution state and replays the writer's canonical batches must serve a
// byte-identical GET /events stream — same kinds, same epochs, same
// lineage IDs — even when 4 racing producers make the writer's batch
// boundaries nondeterministic. The diff is a deterministic function of
// the snapshot sequence, and the snapshot sequence is pinned by the feed.
func TestFollowerEventsMatchWriter(t *testing.T) {
	g := serviceGraph(t)
	cfg := rslpa.Config{T: 30, Seed: 17}
	det, err := rslpa.Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rslpa.NewService(det, rslpa.ServiceOptions{
		MaxBatch: 64, FlushInterval: time.Hour,
		JournalDepth:   4096,
		EvolutionDepth: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	writer := httptest.NewServer(svc.Handler())
	defer writer.Close()

	// Bootstrap the follower before producing, so it inherits the writer's
	// epoch-0 lineage table from GET /evolution/state and then replays
	// every diff the writer performs.
	f, err := replica.New(replica.Options{
		WriterURL: writer.URL, PollInterval: 2 * time.Millisecond,
		RetryMin: time.Millisecond, RetryMax: 20 * time.Millisecond,
		EvolutionDepth: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	follower := httptest.NewServer(f.Handler())
	defer follower.Close()

	// 4 concurrent producers race single-edit submits; batch composition
	// is whatever the scheduler produced.
	batches, err := dynamic.Stream(g.Clone(), 60, 6, 23)
	if err != nil {
		t.Fatal(err)
	}
	var flat []rslpa.Edit
	for _, b := range batches {
		flat = append(flat, b...)
	}
	const producers = 4
	per := (len(flat) + producers - 1) / producers
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		lo, hi := p*per, min((p+1)*per, len(flat))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(chunk []rslpa.Edit) {
			defer wg.Done()
			for _, e := range chunk {
				if err := svc.Submit(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(flat[lo:hi])
	}
	wg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	head := svc.Stats().Epoch
	if head == 0 {
		t.Fatal("writer applied no batches")
	}

	deadline := time.Now().Add(30 * time.Second)
	for f.Stats().FollowerEpoch < head {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck: %+v", f.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Page both event journals with identical cursors; every page must be
	// byte-identical, and the walk must reach the head.
	var total int
	for from := uint64(0); ; {
		wb, wev := fetchEventsPage(t, writer.URL, from, 3)
		fb, _ := fetchEventsPage(t, follower.URL, from, 3)
		if string(wb) != string(fb) {
			t.Fatalf("events page from=%d differs:\nwriter:   %s\nfollower: %s", from, wb, fb)
		}
		if len(wev) == 0 {
			break
		}
		total += len(wev)
		from = wev[len(wev)-1].Epoch
	}
	if total == 0 {
		t.Fatal("no evolution events emitted over the run")
	}

	// Every epoch's /communities body — rendered once per epoch on each
	// tier, and for the follower's bootstrap epoch extracted by this read —
	// is the same bytes on writer and follower.
	for e := uint64(0); e <= head; e++ {
		path := fmt.Sprintf("/communities?epoch=%d", e)
		wb, wcode := fetchBody(t, writer.URL+path)
		fb, fcode := fetchBody(t, follower.URL+path)
		if wcode != http.StatusOK || fcode != http.StatusOK {
			t.Fatalf("GET %s: writer %d, follower %d", path, wcode, fcode)
		}
		if !bytes.Equal(wb, fb) {
			t.Fatalf("GET %s differs:\nwriter:   %.200s\nfollower: %.200s", path, wb, fb)
		}
	}

	// Spot-check lineage histories through the same byte-equality lens.
	_, wev := fetchEventsPage(t, writer.URL, 0, 1024)
	checked := 0
	seenLineage := map[uint64]bool{}
	for _, ev := range wev {
		if seenLineage[ev.Lineage] || checked >= 5 {
			continue
		}
		seenLineage[ev.Lineage] = true
		checked++
		url := fmt.Sprintf("/community/%d/history", ev.Lineage)
		wbody, wcode := fetchBody(t, writer.URL+url)
		fbody, fcode := fetchBody(t, follower.URL+url)
		if wcode != http.StatusOK || fcode != http.StatusOK {
			t.Fatalf("history %s: writer %d, follower %d", url, wcode, fcode)
		}
		if string(wbody) != string(fbody) {
			t.Fatalf("history %s differs:\nwriter:   %s\nfollower: %s", url, wbody, fbody)
		}
	}
	if checked == 0 {
		t.Fatal("no lineages to spot-check")
	}
}
