package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fmossim/internal/core"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// putRecording encodes rec and uploads it under its fingerprint,
// returning the fingerprint.
func putRecording(t *testing.T, ts *httptest.Server, rec *switchsim.Recording) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fp := switchsim.FingerprintBytes(buf.Bytes())
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/recordings/"+fp, bytes.NewReader(buf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT /recordings/%s: %s", fp, resp.Status)
	}
	var meta server.RecordingMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Fingerprint != fp || meta.Bytes != buf.Len() {
		t.Fatalf("meta = %+v", meta)
	}
	return fp
}

// waitTerminal polls a job to any terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) server.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardJobMatchesRunBatch: a shard job over an uploaded recording
// returns a batch result identical to running core.RunBatch locally over
// the same window and recording.
func TestShardJobMatchesRunBatch(t *testing.T) {
	spec := server.JobSpec{
		Netlist:  invNet,
		Patterns: invPatterns,
		Observe:  []string{"out"},
	}
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := core.Record(wl.Net, wl.Seq, core.Options{})
	lo, hi := 1, len(wl.Faults)
	want, err := core.RunBatch(context.Background(), wl.Tables, wl.Faults[lo:hi], rec, wl.Seq,
		core.Options{Observe: wl.Observe, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, server.Config{})
	fp := putRecording(t, ts, rec)

	// The fingerprint is now visible on the listing and GET endpoints.
	gresp, err := http.Get(ts.URL + "/recordings/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /recordings/%s: %s", fp, gresp.Status)
	}

	snap, resp := submit(t, ts, map[string]any{
		"netlist":       invNet,
		"patterns":      invPatterns,
		"observe":       []string{"out"},
		"shard_lo":      lo,
		"shard_hi":      hi,
		"recording_fp":  fp,
		"include_batch": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit shard: %s", resp.Status)
	}
	readStream(t, ts, snap.ID)
	st, res := getStatus(t, ts, snap.ID)
	if st.State != server.StateDone || res == nil || res.Batch == nil {
		t.Fatalf("shard job: %+v (result %+v)", st, res)
	}
	if res.NumFaults != hi-lo || res.Batches != 1 || res.BatchesRun != 1 {
		t.Fatalf("shard result shape: %+v", res)
	}

	// The batch payload survives its JSON round trip bit-identically on
	// every deterministic field (NS wall-clock figures are measured per
	// run and masked).
	got := res.Batch
	for i := range got.PerSetting {
		got.PerSetting[i].FaultNS = 0
		want.PerSetting[i].FaultNS = 0
	}
	for i := range got.PerPattern {
		got.PerPattern[i].FaultNS = 0
		want.PerPattern[i].FaultNS = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch result differs:\ngot  %+v\nwant %+v", got, want)
	}
	if res.Detected != want.DetectedCount() {
		t.Fatalf("detected %d, want %d", res.Detected, want.DetectedCount())
	}
}

// TestPutRecordingFingerprintMismatch: the server re-hashes the body and
// refuses an upload whose fingerprint does not match.
func TestPutRecordingFingerprintMismatch(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req, _ := http.NewRequest(http.MethodPut,
		ts.URL+"/recordings/"+"deadbeef", bytes.NewReader([]byte("not a recording")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched fingerprint: %s, want 400", resp.Status)
	}
}

// TestShardJobMissingRecording: a shard job referencing an unknown
// fingerprint fails with a pointed message instead of silently
// re-recording.
func TestShardJobMissingRecording(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	snap, resp := submit(t, ts, map[string]any{
		"netlist":       invNet,
		"patterns":      invPatterns,
		"observe":       []string{"out"},
		"shard_lo":      0,
		"shard_hi":      2,
		"recording_fp":  "0000000000000000000000000000000000000000000000000000000000000000",
		"include_batch": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	st := waitTerminal(t, ts, snap.ID)
	if st.State != server.StateFailed {
		t.Fatalf("state %q, want failed", st.State)
	}
}

// TestShardSpecValidation: malformed shard specs 400 at submit time.
func TestShardSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, spec := range []map[string]any{
		{"workload": "ram64", "shard_lo": 3, "shard_hi": 3},          // empty window
		{"workload": "ram64", "shard_lo": 2},                         // lo without hi
		{"workload": "ram64", "include_batch": true},                 // batch payload needs a shard
		{"workload": "ram64", "shard_hi": 8, "coverage_target": 0.5}, // coordinator owns early stop
		{"netlist": invNet, "patterns": invPatterns, "observe": []string{"out"}, "shard_hi": -1},
	} {
		_, resp := submit(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %v: %s, want 400", spec, resp.Status)
		}
	}

	// A window past the end of the universe fails the job at run time.
	snap, resp := submit(t, ts, map[string]any{
		"netlist": invNet, "patterns": invPatterns, "observe": []string{"out"},
		"shard_lo": 0, "shard_hi": 10000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if st := waitTerminal(t, ts, snap.ID); st.State != server.StateFailed {
		t.Fatalf("state %q, want failed", st.State)
	}
}

// TestResultBatchWire: a result's batch travels under "batch" as the
// base64 of its binary encoding, decodes back to the identical value,
// is omitted when absent, and fails the whole result when it does not
// decode.
func TestResultBatchWire(t *testing.T) {
	br := &core.BatchResult{
		NumFaults:  1,
		PerSetting: []core.SettingStats{{Pattern: 0, Setting: 0, ActiveCircuits: 1, FaultNS: 1234}},
		Detected:   []bool{true},
		Detections: []core.Detection{{Pattern: 0, Setting: 0, Output: 3, Good: logic.Hi, Faulty: logic.Lo, Hard: true}},
		Oscillated: []bool{false},
		Records:    []map[netlist.NodeID]logic.Value{nil},
	}
	data, err := json.Marshal(&server.Result{NumFaults: 1, Detected: 1, Batch: br})
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Batch []byte `json:"batch"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw.Batch, []byte("FMOSBAT1")) {
		t.Fatalf("batch is not the base64 of the binary encoding: %s", data)
	}
	var got server.Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.NumFaults != 1 || got.Detected != 1 || !reflect.DeepEqual(got.Batch, br) {
		t.Fatalf("round trip: got %+v (batch %+v)", got, got.Batch)
	}

	plain, err := json.Marshal(server.Result{NumFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(`"batch"`)) {
		t.Fatalf("result without a batch carries one: %s", plain)
	}
	for _, bad := range []string{`""`, `"Rk1PU1JFQzI="`, `"not base64"`} {
		res := server.Result{Batch: br}
		if err := json.Unmarshal([]byte(`{"num_faults":1,"batch":`+bad+`}`), &res); err == nil {
			t.Errorf("batch %s decoded without error", bad)
		} else if res.Batch != nil {
			t.Errorf("batch %s: failed decode left a batch", bad)
		}
	}
}
