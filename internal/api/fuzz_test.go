package api

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vliwmt/internal/sweep"
)

// FuzzDecodeSweepRequest feeds arbitrary bytes to the server's request
// decoder, seeded with version 1, 2 and 3 documents. Decoding and the
// conversions the server applies next, grid expansion included, must
// not panic (decoding parses each job's merge scheme, and a malformed
// one is an error); expansion is safe to run on untrusted grids because
// sweep.MaxGridJobs bounds it before it allocates. An accepted
// request must survive a re-encode: omitempty folds an empty list into
// an absent one and the encoder restamps the version, so equality is
// checked on the wire form — encoding the decoded document must be a
// fixed point.
func FuzzDecodeSweepRequest(f *testing.F) {
	for _, name := range []string{"request.v1.golden.json", "request.golden.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"jobs":[{"scheme":"mine","merge":{"name":"mine","tree":"C(S(T0,T1),T2,T3)"},` +
		`"benchmarks":["mcf","fft","dijkstra","colorspace"],"instr_limit":5000,"seed":3}]}`))
	var jobs bytes.Buffer
	if err := EncodeSweepRequest(&jobs, SweepRequest{Jobs: []sweep.Job{fixtureJob()}, Workers: 2, Tag: "t"}); err != nil {
		f.Fatal(err)
	}
	f.Add(jobs.Bytes())
	f.Add([]byte(`{"grid":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSweepRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if req.Grid != nil {
			req.Grid.Jobs() // a bad name or an over-cap grid is an error
		}
		var first bytes.Buffer
		if err := EncodeSweepRequest(&first, req); err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		back, err := DecodeSweepRequest(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := EncodeSweepRequest(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("request changed across a round trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzEventUnmarshal feeds arbitrary lines to the event decoding the
// client reads NDJSON streams with (a json.Decoder), seeded with job,
// failed-job and terminal events (one carrying the final status).
// Decoding and the client's conversions must not panic, and an
// accepted event must re-encode to an equal event.
func FuzzEventUnmarshal(f *testing.F) {
	r := fixtureResult()
	failed := fixtureResult()
	failed.Sim, failed.Err = nil, "unknown scheme"
	st := SweepStatus{Version: Version, ID: "s000001", State: StateDone, Done: 1, Total: 1, CacheHits: 1,
		Summary: &SweepSummary{Jobs: 1, CacheHits: 1, CacheHitRatio: 1, WallSec: 0.5}, Results: []Result{r}}
	for _, ev := range []Event{
		{Done: 1, Total: 2, Result: &r},
		{Done: 2, Total: 2, Result: &failed, Err: failed.Err},
		{Done: 1, Total: 1, State: StateDone, Status: &st},
		{Done: 0, Total: 3, State: StateCanceled},
	} {
		b, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		var ev Event
		if err := json.NewDecoder(bytes.NewReader(line)).Decode(&ev); err != nil {
			return
		}
		if ev.Result != nil {
			ev.Result.Sweep()
		}
		if ev.Status != nil {
			SweepResults(ev.Status.Results)
		}
		first, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("accepted event does not encode: %v", err)
		}
		var back Event
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-encoded event rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("event changed across a round trip:\n%s\nvs\n%s", first, second)
		}
	})
}
