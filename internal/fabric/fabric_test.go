package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vliwmt/internal/resultstore"
	"vliwmt/internal/server"
	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
	"vliwmt/internal/wgen"
)

// testJobs is a 2x2 grid: small enough to fan out quickly, large
// enough to split across several shards at ShardJobs=1.
func testJobs(t *testing.T) []sweep.Job {
	t.Helper()
	jobs, err := sweep.Grid{
		Schemes:    []string{"2SC3", "3SSS"},
		Mixes:      []string{"LLHH", "HHHH"},
		InstrLimit: 5_000,
		Seed:       7,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// startWorker runs a real vliwserve worker behind httptest and returns
// its URL. The optional wrap intercepts requests before the server.
func startWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv := server.New(server.Options{})
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// newCoordinator builds a Coordinator with test-friendly retry timing.
func newCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	if opts.RetryBase == 0 {
		opts.RetryBase = 5 * time.Millisecond
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = 50 * time.Millisecond
	}
	if opts.PingInterval == 0 {
		// Tests drive health through dispatch failures, not the pinger.
		opts.PingInterval = time.Hour
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// snapshotOf fails the test on any per-job error, then snapshots.
func snapshotOf(t *testing.T, results []sweep.Result) resultstore.Snapshot {
	t.Helper()
	snap, err := resultstore.SnapshotResults(results)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestFabricDeterminism is the subsystem's contract test: the same
// grid through a local engine, a 1-worker fabric and a 3-worker fabric
// yields bit-identical ordered results (DiffSnapshots clean).
func TestFabricDeterminism(t *testing.T) {
	jobs := testJobs(t)
	local, err := sweep.New(0).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, local)

	run := func(t *testing.T, workers int) []sweep.Result {
		t.Helper()
		addrs := make([]string, workers)
		for i := range addrs {
			addrs[i] = startWorker(t, nil).URL
		}
		c := newCoordinator(t, Options{Workers: addrs, ShardJobs: 1})
		results, err := c.Run(context.Background(), jobs, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	for _, workers := range []int{1, 3} {
		results := run(t, workers)
		if d := resultstore.DiffSnapshots(want, snapshotOf(t, results)); !d.Clean() {
			t.Fatalf("%d workers: fabric results differ from local run: %+v", workers, d.Entries)
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("%d workers: result %d carries index %d", workers, i, r.Index)
			}
			if r.Worker == "" || r.Shard == 0 {
				t.Fatalf("%d workers: result %d lacks attribution: worker=%q shard=%d",
					workers, i, r.Worker, r.Shard)
			}
		}
	}
}

// TestFabricDeterminismGenerated extends the determinism contract to
// synthetic workloads: random generated mixes (canonical "genmix:"
// names, regenerated from the name on whichever box runs them) swept
// by the local engine and through a 2-worker fabric at one job per
// shard must produce bit-identical snapshots. This is the
// end-to-end proof that a generated benchmark's name alone is a
// sufficient wire format.
func TestFabricDeterminismGenerated(t *testing.T) {
	mixes := 4
	if testing.Short() {
		mixes = 2
	}
	rng := wgen.NewRand(1009)
	combos := []string{"LLHH", "LMMH", "HHHH", "LLLL"}
	var mixNames []string
	for i := 0; i < mixes; i++ {
		name, err := wgen.MixName(combos[i%len(combos)], rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		mixNames = append(mixNames, name)
	}
	jobs, err := sweep.Grid{
		Schemes:    []string{"2SC3", "C4", "IMT"},
		Mixes:      mixNames,
		InstrLimit: 4_000,
		Seed:       rng.Uint64(),
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	local, err := sweep.New(0).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, local)

	addrs := []string{startWorker(t, nil).URL, startWorker(t, nil).URL}
	c := newCoordinator(t, Options{Workers: addrs, ShardJobs: 1})
	fabricResults, err := c.Run(context.Background(), jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := resultstore.DiffSnapshots(want, snapshotOf(t, fabricResults)); !d.Clean() {
		t.Fatalf("2-worker fabric generated sweep differs from the local run: %+v", d.Entries)
	}
}

// TestFabricWorkerKilledMidSweep kills one of three workers on its
// first shard: its in-flight shard is requeued, its queue is stolen,
// the sweep still succeeds, and the merged output is still
// bit-identical to a local run.
func TestFabricWorkerKilledMidSweep(t *testing.T) {
	jobs := testJobs(t)
	local, err := sweep.New(0).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	var killed atomic.Bool
	victim := startWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost || killed.Load() {
				// The box dies the moment its first shard arrives and
				// never comes back: abort the connection mid-request.
				killed.Store(true)
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	})
	addrs := []string{startWorker(t, nil).URL, victim.URL, startWorker(t, nil).URL}

	before := telemetry.Default().Snapshot()
	c := newCoordinator(t, Options{Workers: addrs, ShardJobs: 1})
	results, err := c.Run(context.Background(), jobs, 0, nil)
	if err != nil {
		t.Fatalf("sweep failed despite two healthy workers: %v", err)
	}
	if d := resultstore.DiffSnapshots(snapshotOf(t, local), snapshotOf(t, results)); !d.Clean() {
		t.Fatalf("results differ from local run after worker death: %+v", d.Entries)
	}
	for _, r := range results {
		if r.Worker == victim.URL {
			t.Fatalf("job %d attributed to the dead worker", r.Index)
		}
	}
	after := telemetry.Default().Snapshot()
	if n := after.Counter("fabric_shards_retried_total") - before.Counter("fabric_shards_retried_total"); n == 0 {
		t.Fatal("killing a worker mid-sweep produced no retries")
	}
}

// TestFabricStoreShortCircuit: jobs already in the coordinator's store
// never leave the box — a warm sweep succeeds with every worker dead.
func TestFabricStoreShortCircuit(t *testing.T) {
	jobs := testJobs(t)
	store := resultstore.Open(t.TempDir())

	cold := newCoordinator(t, Options{Workers: []string{startWorker(t, nil).URL}, Store: store})
	coldResults, err := cold.Run(context.Background(), jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	dead := httptest.NewServer(nil)
	dead.Close()
	warm := newCoordinator(t, Options{Workers: []string{dead.URL}, Store: store, MaxRetries: 1})
	warmResults, err := warm.Run(context.Background(), jobs, 0, nil)
	if err != nil {
		t.Fatalf("warm sweep touched the dead worker: %v", err)
	}
	for _, r := range warmResults {
		if !r.Cached || r.Worker != "" || r.Shard != 0 {
			t.Fatalf("job %d not served from the store: cached=%v worker=%q shard=%d",
				r.Index, r.Cached, r.Worker, r.Shard)
		}
	}
	if d := resultstore.DiffSnapshots(snapshotOf(t, coldResults), snapshotOf(t, warmResults)); !d.Clean() {
		t.Fatalf("warm results differ from cold: %+v", d.Entries)
	}
}

// TestFabricDedup: five jobs sharing one content key travel as one
// simulation; every index is filled, secondaries with their own copy.
func TestFabricDedup(t *testing.T) {
	base := testJobs(t)[0]
	jobs := []sweep.Job{base, base, base, base, base}

	var dispatched atomic.Int64
	worker := startWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				dispatched.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	c := newCoordinator(t, Options{Workers: []string{worker.URL}})
	results, err := c.Run(context.Background(), jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := dispatched.Load(); n != 1 {
		t.Fatalf("duplicate-key jobs dispatched %d times, want 1", n)
	}
	for i, r := range results {
		if r.Res == nil {
			t.Fatalf("job %d unfilled", i)
		}
		if i > 0 {
			if r.Res == results[0].Res {
				t.Fatalf("job %d aliases job 0's result", i)
			}
			if r.Res.IPC != results[0].Res.IPC || r.Res.Cycles != results[0].Res.Cycles {
				t.Fatalf("job %d diverges from job 0", i)
			}
		}
	}
}

// TestFabricWorkSteal: with one worker slowed, the fast worker steals
// from its queue — visible on fabric_shards_stolen_total.
func TestFabricWorkSteal(t *testing.T) {
	jobs := testJobs(t)
	fast := startWorker(t, nil)
	slow := startWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				time.Sleep(300 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	})

	before := telemetry.Default().Snapshot()
	c := newCoordinator(t, Options{Workers: []string{fast.URL, slow.URL}, ShardJobs: 1})
	if _, err := c.Run(context.Background(), jobs, 0, nil); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot()
	if n := after.Counter("fabric_shards_stolen_total") - before.Counter("fabric_shards_stolen_total"); n == 0 {
		t.Fatal("fast worker never stole from the slow worker's queue")
	}
}

// TestFabricAllWorkersDown: with no healthy worker the sweep parks
// until its context expires, then returns the context error on every
// undelivered job — it never invents results.
func TestFabricAllWorkersDown(t *testing.T) {
	jobs := testJobs(t)
	dead := httptest.NewServer(nil)
	dead.Close()

	c := newCoordinator(t, Options{Workers: []string{dead.URL}, MaxRetries: 100})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	results, err := c.Run(ctx, jobs, 0, nil)
	if err == nil {
		t.Fatal("sweep with no healthy workers reported success")
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d has no error after total worker loss", i)
		}
	}
}

// TestFabricInvalidJobFailsLocally: an unrunnable job fails on its own
// Result without a round trip; the rest of the sweep completes.
func TestFabricInvalidJobFailsLocally(t *testing.T) {
	jobs := testJobs(t)
	jobs = append(jobs, sweep.Job{Scheme: "2SC3", Benchmarks: []string{"no-such-benchmark"}, InstrLimit: 100})

	c := newCoordinator(t, Options{Workers: []string{startWorker(t, nil).URL}})
	results, err := c.Run(context.Background(), jobs, 0, nil)
	if err == nil {
		t.Fatal("sweep with an invalid job reported no error")
	}
	bad := results[len(results)-1]
	if bad.Err == nil || bad.Worker != "" {
		t.Fatalf("invalid job: err=%v worker=%q — want a local validation failure", bad.Err, bad.Worker)
	}
	for _, r := range results[:len(results)-1] {
		if r.Err != nil {
			t.Fatalf("valid job %d failed: %v", r.Index, r.Err)
		}
	}
}

// TestFabricProgressMonotonic: progress callbacks arrive serialised
// with done incrementing by exactly one, covering store hits, remote
// results and local failures alike.
func TestFabricProgressMonotonic(t *testing.T) {
	jobs := testJobs(t)
	c := newCoordinator(t, Options{Workers: []string{startWorker(t, nil).URL}, ShardJobs: 1})
	var calls atomic.Int64
	last := 0
	_, err := c.Run(context.Background(), jobs, 0, func(done, total int, r sweep.Result) {
		calls.Add(1)
		if done != last+1 || total != len(jobs) {
			t.Errorf("progress %d/%d after %d", done, total, last)
		}
		last = done
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(jobs)) {
		t.Fatalf("progress called %d times for %d jobs", got, len(jobs))
	}
}

func TestChunkShards(t *testing.T) {
	units := make([]*unit, 10)
	for i := range units {
		units[i] = &unit{}
	}
	shards := chunkShards(units, 4)
	if len(shards) != 3 {
		t.Fatalf("10 units at 4/shard: %d shards, want 3", len(shards))
	}
	for i, sh := range shards {
		if sh.id != i+1 {
			t.Fatalf("shard %d has id %d (IDs are 1-based)", i, sh.id)
		}
	}
	if n := len(shards[2].units); n != 2 {
		t.Fatalf("last shard has %d units, want 2", n)
	}
}
